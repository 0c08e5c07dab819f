#!/usr/bin/env python3
"""Decision-latency benchmark over the program zoo.

    python3 benchmarks/e2e/run.py --workload route_churn --seed 1
    python3 benchmarks/e2e/run.py --workload policy_flip --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --all

Prints every metric by name with its unit, checks the engine's outputs, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics without ``--trace``, the per-layer metrics with it.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parents[1] / "src"

# The benchmark builds nothing and installs nothing: it imports the engine
# from the checkout it sits in, and is useless without it.
if not (SOURCE_ROOT / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: no engine source at {SOURCE_ROOT}; run from a full checkout")
for path in (str(SOURCE_ROOT), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from harness import tracing  # noqa: E402
from harness.measure import RunResult, percentile_or_zero, run_workload  # noqa: E402
from harness.workloads import NOMINAL_SECONDS, WORKLOADS  # noqa: E402

#: Nominal measured seconds of a ``--smoke`` run (floors lifted).
SMOKE_SECONDS = 5


def detail(result: RunResult) -> dict:
    """Everything a repeat run compares that the result line has no key for."""
    return {
        "workload": result.workload,
        "seed": result.seed,
        "traced": result.traced,
        "input_sha256": result.input_sha256,
        "decision_digest": result.decision_digest,
        "decisions": sum(len(run.latencies_ms) for run in result.programs),
        "measured_wall_s": sum(sum(run.latencies_ms) for run in result.programs) / 1000,
        "programs": {
            run.program: {
                "decisions": len(run.latencies_ms),
                "updates": run.updates,
                "setup_s": run.setup_s,
                "setup_slowdown": run.setup_slowdown,
                "slowdown": run.slowdown,
                "decision_p50_ms": percentile_or_zero(run.latencies_ms, 0.50),
                "decision_p95_ms": percentile_or_zero(run.latencies_ms, 0.95),
                "decision_p99_ms": percentile_or_zero(run.latencies_ms, 0.99),
                "recompiled": sum(run.recompiled),
                "input_sha256": run.input_sha256,
            }
            for run in result.programs
        },
        "packets_skipped": sum(check.skipped for check in result.check_results),
        "failures": result.failures,
    }


def report(result: RunResult, info: dict) -> None:
    mode = "traced" if result.traced else "untraced"
    print(f"# {result.workload} seed={result.seed} {mode}: {info['decisions']} decisions")
    print(f"# input_sha256    {result.input_sha256}")
    print(f"# decision_digest {result.decision_digest}")
    print("# as measured (the end-to-end time metrics below are divided by `slowdown`):")
    print("# program        decisions  setup_s   p50_ms   p95_ms   p99_ms  recompiled  slowdown")
    for name, row in info["programs"].items():
        print(
            f"# {name:<14} {row['decisions']:>9} {row['setup_s']:>8.2f} "
            f"{row['decision_p50_ms']:>8.2f} {row['decision_p95_ms']:>8.2f} "
            f"{row['decision_p99_ms']:>8.2f} {row['recompiled']:>11} {row['slowdown']:>9.3f}"
        )
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<36} {value:>14.4f} {unit}")
    if info["packets_skipped"]:
        print(f"# {info['packets_skipped']} packets skipped on known engine defects "
              "(harness/checks.py _known_defect)")
    for line in result.failures:
        print(f"FAILED {line}")
    print("detail " + json.dumps(info))


def result_line(result: RunResult) -> str:
    return json.dumps(
        {
            "correct": result.failed == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result.metrics.items()
            },
        }
    )


def run_child(workload: str, seed: int, seconds: float, trace: int, env=None) -> tuple:
    """One run in a fresh process: (result line, detail line) as dicts."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, env={**os.environ, **(env or {})}
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(command)} printed no result:\n{done.stderr}")
    info = next(line for line in reversed(lines) if line.startswith("detail "))
    return json.loads(lines[-1]), json.loads(info[len("detail "):])


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, info = run_child(workload, seed, seconds, trace)
            mode = "traced" if trace else "untraced"
            print(f"== {workload} ({mode}): {info['decisions']} decisions, "
                  f"{result['failed']} of {result['attempted']} checks failed")
            for name, metric in result["metrics"].items():
                print(f"{name:<36} {metric['value']:>14.4f} {metric['unit']}")
            for line in info["failures"]:
                print(f"FAILED {line}")
            failed += result["failed"]
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=NOMINAL_SECONDS,
        help="nominal measured seconds; scales the generated stream",
    )
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"a {SMOKE_SECONDS}-second size with the decision floors lifted",
    )
    parser.add_argument("--json", metavar="OUT", help="also write the detail record here")
    parser.add_argument("--spans", metavar="OUT", help="traced run: write the spans as JSONL")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    # A terminated run unwinds like an interrupted one, so the check workers
    # (or ``--all``'s child) are stopped and waited for on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.all:
        return run_all(args.seed, args.seconds)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    info = detail(result)
    report(result, info)
    if args.json:
        Path(args.json).write_text(json.dumps(info, indent=2) + "\n")
    if args.spans and result.spans is not None:
        tracing.write_jsonl(result.spans, args.spans)
    print(result_line(result))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
