"""Start, watch and reap ``python -m repro ...`` server subprocesses.

Every server runs in its own session (so its shard workers share its
process group), binds port 0, and is reaped on every exit path:
SIGTERM, wait, then SIGKILL of whatever is left of the group.  Servers
inherit the ledger process's environment and CPU affinity (see
``PINNED_ENV`` and ``pin_to_one_cpu``).
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What every server and worker runs under, and the ledger process too
#: (see ``run.py``), so a number measures the program and not the box.
#:
#: * One BLAS thread: no oversubscription of a small machine.
#: * A glibc allocator with fixed thresholds that keeps freed blocks.  By
#:   default it adapts them to the sizes a process happened to free
#:   first, so one process serves the (q, n) score temporaries of a few
#:   hundred KB from its heap and the next maps, faults in and unmaps
#:   them on every request.  Interleaved processes timing
#:   ``cosine_scores`` on S read 3.0 to 4.7 ms with the default and 2.3
#:   to 2.5 ms with these settings.
#: * No transparent huge pages for numpy's arrays (it asks for them above
#:   4 MB).  On the shared VM this was built on, a huge-page fault costs
#:   whatever the hypervisor needs to back 2 MB: ``a * 1.5`` on S's 51 MB
#:   of coordinates took 18 to 1289 ms with them and 28 to 45 ms without,
#:   and consecutive starts of ``repro serve`` on one store alternated
#:   between 0.9 and 2 to 2.9 s with them and stayed within 0.90 to
#:   1.35 s without.  The scan itself ran as fast either way.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # the largest glibc accepts
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

def pin_to_one_cpu() -> int | None:
    """Confine this process, and so every server and worker it starts, to
    one of the CPUs it may use (the last); returns it, or None where the
    platform has no such call.

    A request here is a chain of wake-ups: generator -> front end ->
    executor thread or shard workers -> front end -> generator.  On a
    small VM each hop to a halted virtual CPU costs an interrupt through
    the hypervisor whose price changes with the host's load, and two busy
    virtual CPUs slow each other by up to a third when the host runs them
    on one core.  With both CPUs, one closed-loop connection on
    ``serve_exact`` read 112, 146 and 120 replies/s on three servers in a
    row, one-second rates between 95 and 160; on one CPU 170, 167 and
    165, one-second rates mostly 160 to 175, and faster throughout (S of
    100 000 documents).  So a run measures the work a request costs, on
    one CPU, and not how well the host schedules two.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


_BANNER = re.compile(r"on http://[^:]+:(\d+)")
_WORKER_UP = re.compile(r"^\[supervisor\] worker \d+ .*\bup on ")


def server_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


class Server:
    """One server subprocess, from spawn to reaped.

    Use as a context manager; leaving the block stops the server however
    the block ended.
    """

    def __init__(self, args: list[str], cwd: pathlib.Path):
        self.args = [sys.executable, "-m", "repro", "--no-obs", *args]
        self.cwd = cwd
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.spawned = 0.0  # perf_counter at Popen
        self.lines: list[tuple[float, str]] = []  # (perf_counter, stdout line)
        self._pump: threading.Thread | None = None
        self._banner = threading.Event()

    # -- lifecycle ----------------------------------------------------- #
    def __enter__(self) -> "Server":
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            self.args,
            cwd=self.cwd,
            env=server_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._pump = threading.Thread(target=self._read_stdout, daemon=True)
        self._pump.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self.lines.append((time.perf_counter(), line.rstrip("\n")))
            match = _BANNER.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._banner.set()
        self._banner.set()  # EOF: wake a waiter so it can report the death

    def wait_ready(self, timeout: float = 120.0) -> int:
        """Block until the ``on http://host:port`` banner; return the port."""
        if not self._banner.wait(timeout) or self.port is None:
            raise RuntimeError(
                f"server did not come up: {' '.join(self.args)}\n" + self.log_tail()
            )
        return self.port

    def stop(self, timeout: float = 30.0) -> int | None:
        """SIGTERM, wait, SIGKILL the group's leftovers; return exit code."""
        proc = self.proc
        if proc is None:
            return None
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
            # Watch for the exit without reaping it: while the leader is a
            # zombie its pid cannot be reused, so the group kill below
            # cannot reach a stranger.
            deadline = time.monotonic() + timeout
            flags = os.WEXITED | os.WNOWAIT | os.WNOHANG
            while time.monotonic() < deadline:
                if os.waitid(os.P_PID, proc.pid, flags) is not None:
                    break
                time.sleep(0.01)
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # orphan workers, hung leader
            except ProcessLookupError:
                pass
        code = proc.wait()
        if self._pump is not None:
            self._pump.join(5.0)
        proc.stdout.close()
        self.proc = None
        return code

    # -- observation --------------------------------------------------- #
    def log_tail(self, n: int = 20) -> str:
        return "\n".join(line for _, line in self.lines[-n:])

    def printed(self, text: str) -> bool:
        return any(text in line for _, line in self.lines)

    def workers_up_s(self) -> float:
        """Seconds from spawn until the last shard worker reported up
        (0.0 for a front end without a supervisor)."""
        stamps = [s for s, line in self.lines if _WORKER_UP.match(line)]
        return max(stamps) - self.spawned if stamps else 0.0

    def rss_peak_mb(self) -> float:
        """Sum of ``VmHWM`` over the server's process group, in MB."""
        total_kb = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    # pgrp is the 3rd field after the parenthesised name
                    pgrp = int(fh.read().rsplit(")", 1)[1].split()[2])
                if pgrp != self.proc.pid:
                    continue
                with open(f"/proc/{entry}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except (OSError, IndexError, ValueError):
                continue  # the process exited while we were reading it
        return total_kb / 1024.0
