"""``Engine.decide``: one entry point, one decision record, no thread.

On every zoo program, with a parser value set added so that all three
kinds of input exist:

* a mixed burst (inserts, modifies, deletes and a value-set update, in
  at least two conflict groups) is decided on the calling thread — a
  patched ``threading.Thread.start`` would raise — by the engine's own
  warm pass objects on its own state: building a ``WorkerSlice`` or a
  ``SubstitutionSlice`` would raise;
* a one-update burst decides what the update decides alone on a twin
  engine: the same sorted ``changed``, recompile verdict, point and
  table verdicts and lowered writes, update after update;
* a single ``ValueSetUpdate`` runs the one-update warm path and gets its
  record: the specification's ``changed`` and recompile verdict, every
  point its symbols taint visited, and the burst fields at their
  one-update values;
* ``process_update``, ``process_batch`` and ``apply_batch`` return the
  ``Decision`` that ``decide`` returns for the same input on a twin
  engine.
"""

import dataclasses
import threading

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import Decision
from repro.engine.batch import WorkerSlice, conflict_components
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import ValueSetUpdate
from repro.smt.substitute import SubstitutionSlice

from tests.engine.spec import Spec
from tests.engine.test_warm_inventory import TARGETS

ZOO = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")

#: Every zoo parser starts with this select; the value set becomes its
#: first case.
START_SELECT = "transition select(hdr.ethernet.ether_type) {"
VALUE_SET = "ether_types"


def with_value_set(name: str):
    source = registry.get(name).source()
    assert source.count("state start {") == 1 and START_SELECT in source
    source = source.replace(
        "state start {", f"value_set<bit<16>>(4) {VALUE_SET};\n    state start {{"
    ).replace(START_SELECT, f"{START_SELECT}\n            {VALUE_SET}: accept;", 1)
    return parse_program(source)


@pytest.fixture(scope="module")
def programs():
    return {name: with_value_set(name) for name in ZOO}


def make_flay(program):
    return Flay(program, FlayOptions(target="none"))


def independent_tables(flay) -> list:
    """Up to two tables with actions, of different conflict groups (the
    value set is a group of its own besides)."""
    components = conflict_components(flay.model)
    picked: list = []
    for name, info in flay.model.tables.items():
        if info.action_order and components[name] not in {
            components[other] for other in picked
        }:
            picked.append(name)
    return picked[:2]


def mixed_burst(flay, seed=1) -> list:
    tables = independent_tables(flay)
    fuzzer = EntryFuzzer(flay.model, seed=seed)
    burst = fuzzer.update_stream(
        tables=tables, count=24, modify_fraction=0.3, delete_fraction=0.2
    )
    burst.insert(len(burst) // 2, ValueSetUpdate(VALUE_SET, (0x0800, 0x86DD)))
    return burst


def timeless(decision: Decision) -> Decision:
    return dataclasses.replace(decision, elapsed_ms=0.0)


@pytest.mark.parametrize("name", ZOO)
def test_a_mixed_burst_starts_no_thread(name, programs, monkeypatch):
    flay = make_flay(programs[name])
    spec = Spec(flay)
    burst = mixed_burst(flay)

    def refuse(thread):
        raise AssertionError(f"decide started a thread: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    decision = flay.decide(burst)
    assert decision.group_count >= 2
    assert decision.update_count == len(burst)
    assert decision.burst
    spec.check_decision(decision, burst)


@pytest.mark.parametrize("name", ZOO)
def test_a_mixed_burst_runs_the_engines_own_passes(name, programs, monkeypatch):
    flay = make_flay(programs[name])
    spec = Spec(flay)
    burst = mixed_burst(flay)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"decide built a {type(self).__name__}")

    monkeypatch.setattr(WorkerSlice, "__init__", refuse)
    monkeypatch.setattr(SubstitutionSlice, "__init__", refuse)
    ran = []
    for step in flay._warm.passes:
        def spy(ctx, step=step, run=step.run):
            ran.append(step)
            return run(ctx)

        monkeypatch.setattr(step, "run", spy)
    decision = flay.decide(burst)
    assert ran == list(flay._warm.passes)
    assert decision.group_count >= 2 and decision.coalesced_count <= len(burst)
    spec.check_decision(decision, burst)


def lowered_writes(decision) -> list:
    return [(write.target, write.table, write.update) for write in decision.lowered]


@pytest.mark.parametrize("name", ZOO)
def test_a_one_update_burst_decides_what_the_update_decides(name, programs):
    options = FlayOptions(target=TARGETS[name])
    alone, twin = Flay(programs[name], options), Flay(programs[name], options)
    for update in mixed_burst(alone, seed=3):
        single, burst = alone.decide(update), twin.decide([update])
        assert (not single.burst, burst.burst) == (True, True)
        assert sorted(burst.changed) == sorted(single.changed)
        assert burst.recompiled == single.recompiled
        assert lowered_writes(burst) == lowered_writes(single)
        assert twin.point_verdicts == alone.point_verdicts
        assert twin.table_verdicts == alone.table_verdicts
    assert twin.specialized_source() == alone.specialized_source()


@pytest.mark.parametrize("name", ZOO)
def test_a_value_set_update_gets_the_one_update_record(name, programs):
    flay = make_flay(programs[name])
    spec = Spec(flay)
    update = ValueSetUpdate(VALUE_SET, (0x0800,))
    tainted = flay.model.points_for_control_vars(
        flay.model.value_set(VALUE_SET).control_var_names()
    )
    decision = flay.decide(update)
    spec.check_decision(decision, [update])
    assert decision.affected_points == len(tainted) > 0
    assert decision.redecided_points + decision.unchanged_points <= len(tainted)
    assert not decision.overapproximated
    assert decision.update_count == decision.coalesced_count == decision.group_count == 1
    assert not decision.burst
    assert flay.ctx.decisions == 1
    # Re-installing the same values moves no symbol: nothing is visited.
    again = flay.decide(update)
    spec.check_decision(again, [update])
    assert again.forwarded and again.affected_points == 0 and again.changed == []


@pytest.mark.parametrize("name", ZOO)
def test_each_wrapper_returns_what_decide_returns(name, programs):
    program = programs[name]
    probe = make_flay(program)
    burst = mixed_burst(probe, seed=2)
    single = burst[0]
    wrapped, direct = make_flay(program), make_flay(program)
    for call, item in (
        (wrapped.process_update, single),
        (wrapped.process_batch, burst[1:12]),
        (wrapped.apply_batch, burst[12:]),
    ):
        got = call(item)
        assert isinstance(got, Decision)
        assert timeless(got) == timeless(direct.decide(item))
    assert wrapped.specialized_source() == direct.specialized_source()
