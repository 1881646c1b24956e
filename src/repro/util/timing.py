"""Lightweight wall-clock instrumentation for the benchmark harness.

:class:`Stopwatch` and :class:`PerfCounters` are the self-contained
stopwatch tools benchmarks instantiate locally.  Process-wide serving
metrics live in :data:`repro.obs.metrics.registry` under the
``serving.`` prefix (``python -m repro stats``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "Stopwatch",
    "PerfCounters",
    "format_seconds",
    "timer_key",
]


def timer_key(name: str) -> str:
    """The namespaced snapshot key for a timer: ``<name>_seconds``.

    Timers and counters historically merged into one flat dict, so a
    counter and a timer sharing a name silently clobbered each other.
    Snapshots now suffix timer names with ``_seconds`` (idempotently,
    so conventional names like ``gemm_seconds`` keep their key).
    """
    return name if name.endswith("_seconds") else f"{name}_seconds"


@dataclass
class Stopwatch:
    """Accumulating stopwatch with named laps.

    Example
    -------
    >>> sw = Stopwatch()
    >>> with sw.lap("svd"):
    ...     pass
    >>> "svd" in sw.laps
    True
    """

    laps: dict[str, float] = field(default_factory=dict)

    class _Lap:
        """Re-entrant, exception-safe lap context.

        Start times live on a stack rather than a single ``_t0``, so
        one lap object can be nested or reused concurrently with
        itself: each exit pairs with its own enter, and an exception
        inside the block still records the elapsed time.
        """

        def __init__(self, owner: "Stopwatch", name: str):
            self._owner = owner
            self._name = name
            self._starts: list[float] = []

        def __enter__(self) -> "Stopwatch._Lap":
            self._starts.append(time.perf_counter())
            return self

        def __exit__(self, *exc) -> None:
            elapsed = time.perf_counter() - self._starts.pop()
            self._owner.laps[self._name] = (
                self._owner.laps.get(self._name, 0.0) + elapsed
            )

    def lap(self, name: str) -> "Stopwatch._Lap":
        """Context manager that adds elapsed time to the named lap."""
        return Stopwatch._Lap(self, name)

    def total(self) -> float:
        """Sum of all laps, in seconds."""
        return sum(self.laps.values())

    def report(self) -> str:
        """Human-readable one-line-per-lap summary, slowest first."""
        rows = sorted(self.laps.items(), key=lambda kv: -kv[1])
        return "\n".join(f"{name:>24s}  {format_seconds(t)}" for name, t in rows)


@dataclass
class PerfCounters:
    """Named event counters plus accumulating timers for hot paths.

    Benchmarks snapshot and reset them to report cache-hit rates and
    where query time goes.  Overhead per event is one dict update
    (counters) or two ``perf_counter`` calls (timers) — negligible
    against a GEMM over thousands of documents.
    """

    counts: dict[str, int] = field(default_factory=dict)
    timers: dict[str, float] = field(default_factory=dict)

    def incr(self, name: str, by: int = 1) -> None:
        """Add ``by`` to the named counter (created at 0)."""
        self.counts[name] = self.counts.get(name, 0) + by

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the named timer."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    class _Timer:
        """Re-entrant, exception-safe timing context (cf. ``_Lap``)."""

        def __init__(self, owner, name: str):
            self._owner = owner
            self._name = name
            self._starts: list[float] = []

        def __enter__(self) -> "PerfCounters._Timer":
            self._starts.append(time.perf_counter())
            return self

        def __exit__(self, *exc) -> None:
            self._owner.add_time(
                self._name, time.perf_counter() - self._starts.pop()
            )

    def time(self, name: str) -> "PerfCounters._Timer":
        """Context manager accumulating elapsed time into ``name``."""
        return PerfCounters._Timer(self, name)

    def snapshot(self) -> dict[str, float]:
        """One flat dict of counters and timers, namespaced apart.

        Counters keep their name; timers appear under
        :func:`timer_key` (``<name>_seconds``), so a counter and a
        timer sharing a base name no longer clobber each other.
        """
        out: dict[str, float] = dict(self.counts)
        for name, t in self.timers.items():
            out[timer_key(name)] = t
        return out

    def reset(self) -> None:
        """Zero every counter and timer."""
        self.counts.clear()
        self.timers.clear()

    def report(self) -> str:
        """Human-readable summary: counters first, then timers."""
        lines = [f"{name:>24s}  {val}" for name, val in sorted(self.counts.items())]
        lines += [
            f"{name:>24s}  {format_seconds(t)}"
            for name, t in sorted(self.timers.items())
        ]
        return "\n".join(lines)


def format_seconds(t: float) -> str:
    """Render a duration with a unit that keeps 3 significant digits."""
    if t < 1e-6:
        return f"{t * 1e9:.1f} ns"
    if t < 1e-3:
        return f"{t * 1e6:.1f} us"
    if t < 1.0:
        return f"{t * 1e3:.1f} ms"
    return f"{t:.3f} s"
