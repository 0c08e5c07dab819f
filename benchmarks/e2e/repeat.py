#!/usr/bin/env python3
"""Repeat the benchmark in fresh processes and report how much it moves.

    python3 benchmarks/e2e/repeat.py --sets 2              # same seed twice
    python3 benchmarks/e2e/repeat.py --sets 10 --vary-seed # ten seeds

A *set* is every workload once untraced and once traced, each run in its
own process with ``PYTHONHASHSEED`` pinned.  Per metric and workload it
prints the median, the quartiles and the relative spread (interquartile
range over median, as ``statistics.quantiles(values, n=4)`` gives them).

With one seed (the default) the sets must agree: it exits non-zero when two
sets differ by more than the metric's bound in ``BENCHMARK.json`` on any
end-to-end metric, or in their input hashes or decision digests, and it
lists every count of the traced run that does not repeat exactly as
``unstable``.  With ``--vary-seed`` set *i* runs seed ``--seed + i``; that is
the spread the bounds are calibrated against.

The numbers go to ``CALIBRATION.json`` next to this file (``BENCHMARK.json``
itself has a fixed set of keys and no room for them).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
CALIBRATION_JSON = HERE / "CALIBRATION.json"


def summarize(values: list) -> dict:
    """Median, quartiles and IQR/median of one metric's values."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def disagreement(values: list, better: str) -> float:
    """How much worse the worst set is than the best, as a share of the best."""
    best, worst = (min(values), max(values)) if better == "lower" else (max(values), min(values))
    return abs(worst - best) / abs(best) if best else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true", help="set i runs seed SEED+i")
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="skip the traced runs (and leave CALIBRATION.json alone)",
    )
    args = parser.parse_args(argv)
    workloads = list(bench.WORKLOADS)
    spec = json.loads(BENCHMARK_JSON.read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    env = {"PYTHONHASHSEED": "0"}

    # runs[workload][trace] = [(result, detail), ...] in set order
    runs = {w: {0: [], 1: []} for w in workloads}
    for index in range(args.sets):
        seed = args.seed + index if args.vary_seed else args.seed
        for workload in workloads:
            for trace in (0,) if args.no_trace else (0, 1):
                started = time.perf_counter()
                runs[workload][trace].append(
                    bench.run_child(workload, seed, bench.NOMINAL_SECONDS, trace, env)
                )
                print(
                    f"set {index} seed {seed} {workload} trace={trace}: "
                    f"{time.perf_counter() - started:.1f} s",
                    file=sys.stderr,
                )

    problems: list[str] = []
    calibration: dict = {"sets": args.sets, "vary_seed": args.vary_seed, "workloads": {}}
    for workload in workloads:
        untraced, traced = runs[workload][0], runs[workload][1]
        entry: dict = {"end_to_end": {}, "per_layer": {}, "unstable": []}
        calibration["workloads"][workload] = entry
        print(f"\n== {workload}")
        print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
        for name, meta in end_to_end.items():
            summary = summarize([r["metrics"][name]["value"] for r, _ in untraced])
            summary["bound"] = meta["bound"]
            entry["end_to_end"][name] = summary
            flag = ""
            if name != "setup_s" and summary["spread"] > meta["bound"]:
                flag = "  spread over bound"
            print(
                f"{name:<28} {summary['median']:>12.4f} {summary['q1']:>12.4f} "
                f"{summary['q3']:>12.4f} {summary['spread']:>8.3f} {meta['bound']:>7.3f}{flag}"
            )
            if not args.vary_seed:
                gap = disagreement(summary["values"], meta["better"])
                if gap > meta["bound"]:
                    problems.append(
                        f"{workload}: {name} differs by {gap:.3f} between sets "
                        f"(bound {meta['bound']})"
                    )
        for result, info in untraced + traced:
            if not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed: {info['failures'][:3]}")
        if not args.vary_seed:
            for key in ("input_sha256", "decision_digest"):
                seen = {info[key] for _, info in untraced + traced}
                if len(seen) > 1:
                    problems.append(f"{workload}: {key} differs between runs of one seed")
        if traced:
            for name in traced[0][0]["metrics"]:
                values = [r["metrics"][name]["value"] for r, _ in traced]
                entry["per_layer"][name] = summarize(values)
                exact = traced[0][0]["metrics"][name]["unit"] == "count"
                if exact and not args.vary_seed and len(set(values)) > 1:
                    entry["unstable"].append(name)
            overhead = [
                t[1]["measured_wall_s"] / u[1]["measured_wall_s"]
                for u, t in zip(untraced, traced)
            ]
            entry["measured_trace_overhead_ratio"] = summarize(overhead)
            print(f"traced wall / untraced wall: {statistics.median(overhead):.3f}")
            if entry["unstable"]:
                print("unstable counts: " + ", ".join(entry["unstable"]))

    if not args.no_trace:
        CALIBRATION_JSON.write_text(json.dumps(calibration, indent=2) + "\n")
    for line in problems:
        print(f"DISAGREE {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
