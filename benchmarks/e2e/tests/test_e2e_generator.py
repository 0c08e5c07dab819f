"""The workload generator: valid by construction, a pure function of the seed."""

import functools
import os
import subprocess
import sys

import pytest
from conftest import E2E, REPO

from harness.workloads import WORKLOADS, build_plan, plan_digest
from repro.analysis import analyze
from repro.programs import registry
from repro.runtime.semantics import ControlPlaneState

CASES = [
    ("route_churn", "middleblock", 300),
    ("policy_flip", "dta", 120),
    ("policy_flip", "middleblock", 120),
    ("acl_precise", "middleblock", 300),
    ("burst_batch", "middleblock", 60),
]


@functools.lru_cache(maxsize=None)
def model_of(program: str):
    entry = registry.get(program)
    return analyze(registry.load(program), None, entry.skip_parser)


@pytest.mark.parametrize("workload,program,count", CASES)
def test_every_operation_is_valid_against_the_evolving_state(workload, program, count):
    """INSERTs hit fresh keys, MODIFY/DELETE live ones — including keys of
    the initial config and the preload — so replaying the plan raises no
    ``EntryError``."""
    model = model_of(program)
    plan = build_plan(workload, program, model, seed=3, count=count)
    state = ControlPlaneState(model)
    for update in plan.config + plan.preload:
        state.apply_update(update)
    ops = set()
    for item in plan.stream:
        for update in item if isinstance(item, tuple) else (item,):
            state.apply_update(update)
            ops.add(update.op)
    assert len(plan.stream) >= count
    assert {"insert", "delete"} <= ops
    if workload == "policy_flip":
        assert all(len(table) == 0 for table in state.tables.values())
    if workload == "burst_batch":
        sizes = sorted(len(burst) for burst in plan.stream)
        assert sizes[0] >= 1 and sizes[-1] <= 400
        assert sizes[len(sizes) // 2] < sum(sizes) / len(sizes)  # heavy tail


def test_the_same_seed_gives_the_same_inputs_and_another_seed_others():
    model = model_of("middleblock")
    first = plan_digest(build_plan("route_churn", "middleblock", model, 5, 200))
    again = plan_digest(build_plan("route_churn", "middleblock", model, 5, 200))
    other = plan_digest(build_plan("route_churn", "middleblock", model, 6, 200))
    assert first == again != other


_DIGESTS = """
import sys
sys.path[:0] = [{src!r}, {e2e!r}]
from harness.workloads import build_plan, plan_digest
from repro.analysis import analyze
from repro.programs import registry
for workload, program, count in {cases!r}:
    entry = registry.get(program)
    model = analyze(registry.load(program), None, entry.skip_parser)
    print(plan_digest(build_plan(workload, program, model, 11, count)))
"""


def test_inputs_do_not_depend_on_the_hash_seed():
    script = _DIGESTS.format(src=str(REPO / "src"), e2e=str(E2E), cases=CASES)
    outputs = []
    for hash_seed in ("0", "1", "4242"):
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].split()) == len(CASES)


def test_every_workload_states_why_it_exists():
    for spec in WORKLOADS.values():
        assert spec.why and len(spec.why) <= 200 and "\n" not in spec.why
        assert spec.decisions >= spec.floor
