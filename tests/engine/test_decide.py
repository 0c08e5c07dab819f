"""``Engine.decide``: one entry point, one decision record, no thread.

On every zoo program, with a parser value set added so that all three
kinds of input exist:

* a mixed burst (inserts, modifies, deletes and a value-set update, in
  at least two conflict groups) is decided on the calling thread — a
  patched ``threading.Thread.start`` would raise;
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
from repro.engine.batch import conflict_components
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import ValueSetUpdate

from tests.engine.spec import Spec

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
    assert len(decision.groups) == decision.group_count
    spec.check_decision(decision, burst)


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
    assert decision.groups is None
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
