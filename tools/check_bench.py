"""CI gate: schema + floor validation for the committed ``BENCH_*.json``.

Every benchmark that dumps a JSON artifact also commits one reference
copy at the repo root.  This validator keeps those artifacts honest:

* **schema** — each file must be a flat JSON object containing every
  key its spec lists (a bench silently dropping a metric is a
  regression in the artifact contract, not a flaky number);
* **floors** — the benches embed their acceptance floors alongside the
  measurements (``<metric>_floor`` next to ``<metric>``); every such
  pair must satisfy ``metric >= floor``, so a committed artifact that
  no longer meets its own bar cannot land;
* **truths** — boolean flags (differential and refinement results) must be true.

Timing values themselves are machine-dependent and deliberately *not*
floored — only ratios and counts the benches export as floors are.

Run locally with ``python tools/check_bench.py`` (from the repo root)
or pass explicit paths: ``python tools/check_bench.py BENCH_9.json``.
"""

import glob
import json
import numbers
import os
import sys

#: Required keys per artifact.  A file at the repo root with no spec
#: entry fails validation: new benches must register their contract.
SPECS = {
    "BENCH_8.json": {
        "required": [
            "scion_cnf_clauses",
            "scion_strict_refines",
            "switch_cnf_clauses",
            "switch_strict_refines",
        ],
        "truthy": ["scion_strict_refines", "switch_strict_refines"],
    },
    "BENCH_9.json": {
        "required": [
            "switches",
            "storm_p50_ms",
            "storm_p99_ms",
            "cold_replay_ms",
            "restore_ms",
            "restore_speedup_vs_cold",
            "restore_speedup_vs_cold_floor",
            "snapshot_bytes",
        ],
    },
}

FLOOR_SUFFIX = "_floor"


def check_file(path: str) -> list:
    """All violations for one artifact, as human-readable strings."""
    name = os.path.basename(path)
    problems = []
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{name}: unreadable ({exc})"]
    if not isinstance(data, dict):
        return [f"{name}: expected a JSON object, got {type(data).__name__}"]

    spec = SPECS.get(name)
    if spec is None:
        return [f"{name}: no spec registered in tools/check_bench.py"]

    truthy = set(spec.get("truthy", ()))
    for key in spec["required"]:
        if key not in data:
            problems.append(f"{name}: missing required key {key!r}")
        elif key not in truthy and not isinstance(data[key], numbers.Real):
            problems.append(
                f"{name}: {key!r} should be numeric, got {data[key]!r}"
            )
    for key in truthy:
        if key in data and data[key] is not True:
            problems.append(f"{name}: {key!r} must be true, got {data[key]!r}")

    for key, floor in sorted(data.items()):
        if not key.endswith(FLOOR_SUFFIX):
            continue
        metric = key[: -len(FLOOR_SUFFIX)]
        if metric not in data:
            problems.append(f"{name}: {key!r} has no matching metric {metric!r}")
            continue
        value = data[metric]
        if not isinstance(value, numbers.Real) or not isinstance(
            floor, numbers.Real
        ):
            problems.append(f"{name}: {metric!r}/{key!r} must both be numeric")
        elif value < floor:
            problems.append(
                f"{name}: {metric} = {value:.4g} below its floor {floor:.4g}"
            )
    return problems


def main(argv) -> int:
    paths = argv or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("check_bench: no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    failures = []
    for path in paths:
        problems = check_file(path)
        status = "FAIL" if problems else "ok"
        print(f"check_bench: {os.path.basename(path)} {status}")
        failures.extend(problems)
    for problem in failures:
        print(f"  {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
