"""Incremental respecialization equals a from-scratch specializer at every
decision.

On a recompile the engine's specializer rebuilds only the statements that
read a verdict the decision moved (``changed``) and reuses every other
statement, table, control and parser as the identical object.  After every
decision below, the engine's specialized program prints exactly what a
fresh :class:`Specializer` prints for the engine's verdicts, and its report
is the fresh one's, order included:

* a policy roll-out on all seven zoo programs, one update at a time and in
  bursts;
* the ``dce`` effort (no constant propagation, inlining, narrowing or
  parser-tail pruning);
* value-set updates, which move parser select cases, and recompiles that
  move none, which keep the stripped parser object;
* a table crossing the overapproximation threshold, and a one-action table
  whose crossing moves no ``same_specialization`` field but does move its
  printed form;
* a recompile that raises half-way.
"""

import dataclasses
import random

import pytest

from repro.core import Flay, FlayOptions
from repro.engine.specialize import SpecializeError, Specializer
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.programs import registry
from repro.runtime.entries import ExactMatch, TableEntry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, Update, ValueSetUpdate

from tests.engine.spec import Spec
from tests.engine.test_change_driven import FIG3_WITH_VALUE_SET, THRESHOLD, ZOO, routes

PROGRAMS = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")


def make_flay(name: str, **options) -> Flay:
    entry = registry.get(name)
    return Flay(
        registry.load(name),
        FlayOptions(target="none", skip_parser=entry.skip_parser, **options),
    )


def assert_fresh(flay, spec: Spec) -> None:
    program, report = spec.specialize(flay.point_verdicts, flay.table_verdicts)
    assert flay.specialized_source() == print_program(program)
    assert dataclasses.asdict(flay.report) == dataclasses.asdict(report)
    assert flay.report.summary() == report.summary()


def rollout(flay, seed: int = 1) -> list:
    return EntryFuzzer(flay.model, seed=seed).rollout_stream(1)


def chunks(stream: list, seed: int) -> list:
    rng = random.Random(seed)
    out, at = [], 0
    while at < len(stream):
        size = rng.randint(1, 8)
        out.append(stream[at : at + size])
        at += size
    return out


def run_one_at_a_time(flay, stream) -> int:
    spec = Spec(flay)
    recompiles = 0
    for update in stream:
        recompiles += flay.process_update(update).recompiled
        assert_fresh(flay, spec)
    return recompiles


@pytest.mark.parametrize("name", PROGRAMS)
def test_rollout_one_update_at_a_time(name):
    flay = make_flay(name)
    assert run_one_at_a_time(flay, rollout(flay)) > 0


@pytest.mark.parametrize("name", PROGRAMS)
def test_rollout_in_batches(name):
    flay = make_flay(name)
    spec = Spec(flay)
    recompiles = 0
    for batch in chunks(rollout(flay, seed=2), seed=len(name)):
        recompiles += flay.decide(batch).recompiled
        assert_fresh(flay, spec)
    assert recompiles > 0


@pytest.mark.parametrize(
    "name, options",
    [
        ("scion", {"effort": "dce"}),
        ("beaucoup", {"effort": "dce"}),
        ("dash", {"effort": "dce"}),
        ("middleblock", {"effort": "dce"}),
    ],
)
def test_rollout_under_other_options(name, options):
    flay = make_flay(name, **options)
    assert run_one_at_a_time(flay, rollout(flay, seed=3)) > 0


def test_an_unchanged_parser_stays_the_identical_object():
    """accturbo's parser loses its unused tail headers.  A recompile that
    moves no parser verdict returns the last stripped parser object, not an
    equal copy, and the output is still a fresh specializer's."""
    flay = make_flay("accturbo")
    spec = Spec(flay)
    name = flay.program.pipeline.parser
    parser = flay.specialized_program.find(name)
    assert flay.report.pruned_headers
    recompiles = 0
    for update in rollout(flay):
        if flay.process_update(update).recompiled:
            assert flay.specialized_program.find(name) is parser
            assert_fresh(flay, spec)
            recompiles += 1
    assert recompiles > 1


def test_value_set_updates_move_the_parser():
    flay = Flay(parse_program(FIG3_WITH_VALUE_SET), FlayOptions(target="none"))
    spec = Spec(flay)
    entry = TableEntry((ExactMatch(0x2),), "set", (0x800,), 10)
    steps = [
        ValueSetUpdate("types", (0x800, 0x86DD)),
        Update("Fig3Ingress.eth_table", INSERT, entry),
        ValueSetUpdate("types", (0x800,)),
        ValueSetUpdate("types", ()),
        Update("Fig3Ingress.eth_table", DELETE, entry),
        ValueSetUpdate("types", (0x806,)),
    ]
    removed_select_cases = set()
    for step in steps:
        flay.decide(step)
        assert_fresh(flay, spec)
        removed_select_cases.add(flay.report.removed_select_cases)
    assert len(removed_select_cases) > 1  # the select cases did move


@pytest.mark.parametrize("name", sorted(ZOO))
def test_threshold_crossing(name):
    table, action_a, action_b = ZOO[name]
    flay = make_flay(name)
    spec = Spec(flay)
    entries = routes(flay, table, (action_a, action_b), THRESHOLD + 1)
    flay.process_batch([Update(table, INSERT, e) for e in entries[:THRESHOLD]])
    assert_fresh(flay, spec)
    up = flay.process_update(Update(table, INSERT, entries[THRESHOLD]))
    assert up.overapproximated
    assert_fresh(flay, spec)
    down = flay.process_update(Update(table, DELETE, entries[THRESHOLD]))
    assert not down.overapproximated
    assert_fresh(flay, spec)


ONE_ACTION = """
header h_t { bit<8> f; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action mark() { meta.m = 8w1; }
    table only {
        key = { hdr.h.f: exact; }
        actions = { mark; }
        default_action = mark();
    }
    apply { only.apply(); }
}
Pipeline(P(), C()) main;
"""


def test_overapproximation_flip_alone_is_rebuilt():
    """``C.only`` has one action and no parameters: precise, it is inlined;
    overapproximated, it is kept; its ``same_specialization`` fields are
    equal either way.  Crossing the threshold recompiles only because the
    table's selector point moves, and that point annotates no statement:
    the specializer must see the flipped flag itself."""
    flay = Flay(
        parse_program(ONE_ACTION), FlayOptions(target="none", overapprox_threshold=2)
    )
    spec = Spec(flay)
    verdicts = []
    for key in (1, 2, 3):
        decision = flay.process_update(
            Update("C.only", INSERT, TableEntry((ExactMatch(key),), "mark", (), 0))
        )
        assert_fresh(flay, spec)
        verdicts.append(flay.table_verdicts["C.only"])
    precise, _, crossed = verdicts
    assert crossed.overapproximated and crossed.same_specialization(precise)
    assert "C.only" not in decision.changed
    assert "only.apply()" in flay.specialized_source()
    assert "only.apply()" not in print_program(
        Spec(flay).specialize(flay.point_verdicts, {"C.only": precise})[0]
    )


@pytest.mark.parametrize("method", ["_spec_table_apply", "_refresh_node"])
def test_a_recompile_that_raises_leaves_no_stale_output(method, monkeypatch):
    """An injected ``SpecializeError`` half-way through one recompile; the
    next recompile's source and report are a fresh specializer's."""
    flay = make_flay("scion")
    spec = Spec(flay)
    stream = rollout(flay, seed=4)
    original = getattr(Specializer, method)
    calls = []

    def failing(self, *args):
        calls.append(args)
        if len(calls) == 2:
            raise SpecializeError("injected")
        return original(self, *args)

    for update in stream[:40]:
        flay.process_update(update)
    monkeypatch.setattr(Specializer, method, failing)
    rest = iter(stream[40:])
    for update in rest:
        try:
            flay.process_update(update)
        except SpecializeError:
            break
    else:
        pytest.fail("the injected error never fired")
    monkeypatch.setattr(Specializer, method, original)
    recompiled = False
    for update in list(rest)[:60]:
        recompiled |= flay.process_update(update).recompiled
        if recompiled:
            assert_fresh(flay, spec)
    assert recompiled
