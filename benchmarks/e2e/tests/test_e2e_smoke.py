"""Every workload at its ``--smoke`` size, through the real command."""

import contextlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import E2E, REPO

from harness.layers import PER_LAYER
from harness.workloads import WORKLOADS

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def session_members(session: int) -> list:
    """``pid state`` of every process still in ``session`` (Linux /proc)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, _pgrp, sid = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except OSError:  # gone between the listing and the read
            continue
        if int(sid) == session:
            found.append(f"{stat.parent.name} {state}")
    return found


def run_smoke(workload: str, trace: int) -> dict:
    """One smoke run in a session of its own, which must be empty afterwards:
    the benchmark stops and waits for every process it starts."""
    command = [sys.executable, str(E2E / "run.py"), "--workload", workload, "--seed", "2",
               "--smoke", "--trace", str(trace)]
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=170)
        left_behind = session_members(child.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    assert child.returncode == 0, stdout[-2000:] + stderr[-2000:]
    assert left_behind == []
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_its_output_checks(workload):
    result = run_smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 200
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for meta in SPEC["end_to_end"]:
        metric = result["metrics"][meta["name"]]
        assert metric["unit"] == meta["unit"]
        assert metric["value"] > 0


def test_traced_smoke_run_reports_every_layer_metric():
    result = run_smoke("burst_batch", trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["engine.batch_schedule_ms"]["value"] > 0
    assert result["metrics"]["engine.batch_fork_ms"]["value"] > 0
    assert result["metrics"]["core.unattributed_share"]["value"] <= 0.10


def test_benchmark_json_matches_the_harness():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (spec.name, spec.why) for spec in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
