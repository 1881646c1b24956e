"""The perf ledger's one command.

    python3 ledger/run.py --seed 11                      # all workloads + replay
    python3 ledger/run.py --workload serve_ann --seed 11 --seconds 15 --trace 0

``--trace 0`` measures a workload end to end against real server
subprocesses with tracing off; ``--trace 1`` does a short served pass of
the workload, the traced in-process replay and the per-layer
measurements; leaving ``--trace`` out does both.  Every metric is
printed by name with its unit, a machine-stamped result JSON is written
under ``ledger/out/``, and with one ``--workload`` and an explicit
``--trace`` the last line of standard output is the one JSON object the
benchmark driver reads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "ledger" / "out"

sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from ledger.servers import PINNED_ENV, pin_to_one_cpu  # noqa: E402  (imports no numpy)

# One CPU for this process and everything it starts, before any thread
# exists; and the servers' environment here too, so the in-process reference, replay
# and layer timings run as they do: numpy reads its variables when it
# loads, which is after this line, and glibc read its own when this
# process started, so the allocator gets the same settings through
# ``mallopt``.
PINNED_CPU = pin_to_one_cpu()
os.environ.update(PINNED_ENV)
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt(-3, int(PINNED_ENV["MALLOC_MMAP_THRESHOLD_"]))  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, int(PINNED_ENV["MALLOC_TRIM_THRESHOLD_"]))  # M_TRIM_THRESHOLD
except (OSError, AttributeError):
    pass  # not glibc: the servers ignore the variables too

#: Seconds of served traffic in a ``--trace 1`` pass; it only has to
#: give the replay a served p50 and the server's own counters.
TRACE_PASS_SECONDS = 3.0


def machine_stamp(args, sizes, rounds: int) -> dict:
    import numpy

    from ledger.loadgen import CONNECTIONS

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpu": PINNED_CPU,
        "blas": blas,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        **PINNED_ENV,
        "seed": args.seed,
        "connections": CONNECTIONS,
        "rounds": rounds,
        "seconds": args.seconds,
        "smoke": sizes.name == "smoke",
        "unix_time": time.time(),
    }


def summarize(values: list[float]) -> dict:
    from ledger.loadgen import quartiles

    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def print_table(name: str, entry: dict) -> None:
    print(f"\n== {name} ==")
    for phase, tally in entry.get("requests", {}).items():
        print(
            f"  requests {phase}: attempted {tally['attempted']} "
            f"succeeded {tally['succeeded']} failed {tally['failed']}"
            + (f" {tally['reasons']}" if tally.get("reasons") else "")
        )
    for problem in entry.get("problems", []):
        print(f"  PROBLEM: {problem}")
    for metric, row in entry.get("end_to_end", {}).items():
        print(
            f"  {metric:<44s} {row['median']:>14.6g} {row['unit']:<6s} "
            f"(q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']})"
        )
    for metric, row in entry.get("per_layer", {}).items():
        print(f"  {metric:<44s} {row['value']:>14.6g} {row['unit']}")
    for key, value in entry.get("notes", {}).items():
        print(f"  note {key}: {value}")


def main(argv=None) -> int:
    from ledger.catalog import end_to_end_specs, load_benchmark

    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="servers each workload is measured on, one after the other; "
             "--seconds is split between them and a metric is the median of "
             "its per-round values (default 3; 1 with --smoke)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny fixtures for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: {ROOT / 'src' / 'repro'} is missing; nothing to measure", file=sys.stderr)
        return 2

    from ledger import layers, replay, workloads
    from ledger.fixtures import SIZES

    sizes = SIZES["smoke" if args.smoke else "bench"]
    rounds = args.rounds or (1 if args.smoke else workloads.ROUNDS)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    specs = end_to_end_specs(benchmark)
    layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    report = {"stamp": machine_stamp(args, sizes, rounds), "workloads": {}}
    results = {}

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)  # unwinds through every server's stop()

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, on_signal)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        fx = workloads.Fixtures(args.seed, sizes, workdir)
        layer_values: dict[str, dict] = {}  # store -> ledger/layers.py's numbers on it
        for name in names:
            entry = report["workloads"].setdefault(name, {})
            if args.trace in (None, 0):
                result = workloads.run_workload(
                    name, fx, seconds=args.seconds, rounds=rounds
                )
            else:
                result = workloads.run_workload(
                    name, fx, seconds=min(args.seconds, TRACE_PASS_SECONDS), rounds=1
                )
            results[name] = result
            entry["requests"] = {k: t.to_dict() for k, t in result.tallies.items()}
            entry["problems"] = result.problems
            entry["notes"] = result.notes
            if args.trace in (None, 0):
                entry["end_to_end"] = {
                    metric: {"unit": specs[metric]["unit"], **summarize(values)}
                    for metric, values in result.end_to_end.items()
                }
            if args.trace in (None, 1):
                store = workloads.WORKLOADS[name].store
                if store not in layer_values:
                    layer_values[store] = layers.measure_layers(fx, store)
                served_p50 = result.end_to_end.get("search_p50_ms", [0.0])
                replayed = replay.replay(
                    name, fx,
                    units=layer_units,
                    served_p50_ms=statistics.median(served_p50),
                    http_overhead_ms=layer_values[store].get("server.http.overhead_p50_ms"),
                    out_dir=OUT,
                )
                # A layer this workload never enters did no work: 0.
                measured = {**layer_values[store], **result.observed, **replayed}
                entry["per_layer"] = {
                    metric: {"value": float(measured.get(metric, 0.0)), "unit": unit}
                    for metric, unit in layer_units.items()
                }
                if replayed["ledger.trace.overhead_share"] >= 0.02 and not args.smoke:
                    entry["notes"]["trace_overhead"] = (
                        "recording spans cost 2 % or more of a replayed request; "
                        "read the replay's layer numbers with that in mind"
                    )
            print_table(name, entry)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(parents=True, exist_ok=True)
    tag = args.workload or "all"
    path = OUT / f"result-{tag}-seed{args.seed}-{sizes.name}-{int(time.time() * 1000)}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\nresult written to {path.relative_to(ROOT)}")

    if args.workload is None or args.trace is None:
        return 0 if all(r.correct for r in results.values()) else 1
    # The driver's line: exactly these keys, every declared metric.
    result = results[args.workload]
    entry = report["workloads"][args.workload]
    if args.trace == 0:
        metrics = {
            m["name"]: {"value": entry["end_to_end"][m["name"]]["median"], "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    else:
        metrics = entry["per_layer"]
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": max(result.attempted, 1),
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
