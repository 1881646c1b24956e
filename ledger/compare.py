"""Compare two ledger result files: ``python3 ledger/compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians, both
quartile ranges, the ratio B/A (base: A) and a verdict:

``worse``       B's median is worse than A's by more than the metric's bound
``better``      B's median is better than A's by more than the bound
``unchanged``   the medians differ by no more than the bound
``unresolved``  A has fewer than three values, or the distance between
                A's own quartiles exceeds the bound, so a difference of
                that size cannot be told from A's noise
``missing``     A has the workload or the metric and B does not: B's run
                crashed or produced no samples there

A result has one value of every metric per round, three unless
``--rounds`` said otherwise.  ``failed_share`` is judged on its
difference, not its ratio, at any n.  Per-layer values follow, side by side and without a
verdict: they say where a difference sits, not whether it counts.

Exit status is 1 if any row is ``worse`` or ``missing``, else 0.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from ledger.catalog import end_to_end_specs, load_benchmark  # noqa: E402


#: Fewest values of a metric whose quartiles say anything about its noise.
MIN_VALUES = 3
VERDICTS = ("better", "worse", "unchanged", "unresolved", "missing")


def verdict(spec: dict, a: dict, b: dict) -> str:
    """Judge B's median against A's for one metric (see module docstring)."""
    bound = spec["bound"]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    if spec.get("absolute"):
        delta = sign * (b["median"] - a["median"])
        return "worse" if delta > bound else "better" if delta < -bound else "unchanged"
    base = abs(a["median"])
    if a["n"] < MIN_VALUES or base == 0 or (a["q3"] - a["q1"]) / base > bound:
        return "unresolved"
    worse_by = sign * (b["median"] - a["median"]) / base
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(a: dict, b: dict, specs: dict[str, dict]) -> list[dict]:
    rows = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload, {}).get("end_to_end", {})
        for metric, left in entry.get("end_to_end", {}).items():
            right = other.get(metric)
            row = {"workload": workload, "metric": metric, "unit": left["unit"],
                   "a": left, "b": right, "ratio": float("nan"), "verdict": "missing"}
            if right is not None:
                if left["median"]:
                    row["ratio"] = right["median"] / left["median"]
                row["verdict"] = verdict(specs[metric], left, right)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b = json.load(fh)
    for key in ("git_sha", "cpu_model", "nproc", "seed", "smoke", "seconds", "rounds"):
        print(f"{key:>10s}: A {a['stamp'].get(key)!s:<44s} B {b['stamp'].get(key)!s}")
    rows = compare(a, b, end_to_end_specs(load_benchmark()))
    print(
        f"\n{'workload':<14s} {'metric':<20s} {'unit':<6s} {'A median [q1, q3]':<36s} "
        f"{'B median [q1, q3]':<36s} {'B/A':>7s}  verdict"
    )
    for row in rows:
        cells = [
            "-" if s is None
            else f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"
            for s in (row["a"], row["b"])
        ]
        print(
            f"{row['workload']:<14s} {row['metric']:<20s} {row['unit']:<6s} "
            f"{cells[0]:<36s} {cells[1]:<36s} {row['ratio']:>7.3f}  {row['verdict']}"
        )
    print(f"\n{'workload':<14s} {'layer metric':<46s} {'unit':<6s} {'A':>12s} {'B':>12s} {'B/A':>7s}")
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload, {}).get("per_layer", {})
        for metric, left in entry.get("per_layer", {}).items():
            if metric in other:
                va, vb = left["value"], other[metric]["value"]
                if va == 0 and vb == 0:
                    continue  # a layer this workload never enters
                ratio = f"{vb / va:7.3f}" if va else "      -"
                print(
                    f"{workload:<14s} {metric:<46s} {left['unit']:<6s} "
                    f"{va:>12.6g} {vb:>12.6g} {ratio}"
                )
    counts = {v: sum(r["verdict"] == v for r in rows) for v in VERDICTS}
    print("\n" + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] or counts["missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
