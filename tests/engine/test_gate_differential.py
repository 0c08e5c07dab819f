"""Differential safety net for the verdict gate: engine == specification.

The gate's contract is that a replay only ever short-circuits a MAYBE
two concrete witnesses prove, and that every other verdict is
``QueryEngine._executability``'s.  These tests pin that contract against
the specification in ``tests/engine/spec.py`` — a bare ``QueryEngine``
over a one-shot substitution of the engine's mapping, re-derived after
every chunk — the same way the batch scheduler's differential suite pins
batching: fuzzer streams, every target backend, sequential and batched
application.

"Ungated" in the test names is that specification: the gate-less query
engine.
"""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.engine.queries import QueryEngine
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.entries import ExactMatch, TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import INSERT, Update
from repro.smt import Solver, interval
from repro.smt.interval import _refuted_by_pins

from tests.engine.spec import Spec

TARGETS = ("tofino", "bmv2")

SOURCE = """
header h_t { bit<8> a; bit<8> b; bit<8> f; bit<8> g; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; bit<8> n; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action setn(bit<8> v) { meta.n = v; }
    action noop() { }
    table ta {
        key = { hdr.h.a: exact; }
        actions = { setn; noop; }
        default_action = noop();
    }
    table t1 {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    table t2 {
        key = { meta.m: exact; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply {
        ta.apply();
        t1.apply();
        if (meta.m == 8w3) { t2.apply(); }
        if (meta.n == 8w7) { hdr.h.g = 8w1; }
    }
}
Pipeline(P(), C()) main;
"""

ALL_TABLES = ["ta", "t1", "t2"]
#: The tables whose entries decide an ``if`` guard (ta: n == 7, t1: m == 3).
GUARD_TABLES = ["ta", "t1"]


def make_flay(target):
    return Flay(parse_program(SOURCE), FlayOptions(target=target))


def chunk(stream, seed):
    """Split a stream into random-size batches (1..12), seeded."""
    rng = random.Random(seed * 7919 + 13)
    batches, i = [], 0
    while i < len(stream):
        size = rng.randint(1, 12)
        batches.append(stream[i : i + size])
        i += size
    return batches


def lowered_trace(spec):
    """Every write the decisions ``spec`` checked sent to the device."""
    return [(lowered.target, lowered.table, lowered.update) for lowered in spec.lowered]


def assert_same_result(a, b):
    assert a.runtime.point_verdicts == b.runtime.point_verdicts
    assert a.runtime.table_verdicts == b.runtime.table_verdicts
    assert a.specialized_source() == b.specialized_source()


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_sequential_stream_gated_equals_ungated(target, seed):
    """One-at-a-time application of a mixed stream: after every update the
    verdicts are the specification's, the decision reports exactly the
    verdicts that moved, the source is what a from-scratch specializer
    prints, and the lowered write sequence is the forwarded updates —
    and the gate actually engaged (non-vacuous)."""
    flay = make_flay(target)
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.3, delete_fraction=0.2
    )
    for update in stream:
        spec.check_decision(flay.process_update(update), [update])
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()
    assert flay.gate_stats().screened > 0


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [2, 9])
def test_batched_stream_gated_equals_ungated(target, seed):
    """The batch scheduler path: the burst's warm passes, run over its net
    updates on the shared gate, leave the specification's verdicts after
    every batch."""
    flay = make_flay(target)
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.25, delete_fraction=0.15
    )
    for batch in chunk(stream, seed):
        spec.check_decision(flay.decide(batch), batch)
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()


@pytest.mark.parametrize("seed", [3, 8])
def test_output_is_deterministic(seed):
    """Two engines fed the same bursts: byte-identical everything, and the
    specification's verdicts after every batch."""
    first, second = make_flay("tofino"), make_flay("tofino")
    stream = EntryFuzzer(first.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=60, modify_fraction=0.25, delete_fraction=0.15
    )
    specs = [Spec(first), Spec(second)]
    for flay, spec in zip((first, second), specs):
        for batch in chunk(stream, seed):
            spec.check_decision(flay.decide(batch))
    assert_same_result(first, second)
    assert lowered_trace(specs[0]) == lowered_trace(specs[1])


def test_witness_replay_regime_stays_identical():
    """The regime the gate accelerates — a warm-up that leaves both `if`
    guards MAYBE, then an insert burst into the two tables that guard
    them, which the gate answers mostly from witness fingerprints — still
    holds the specification's verdicts after every update."""
    flay = make_flay("tofino")
    spec = Spec(flay)
    fuzzer = EntryFuzzer(flay.model, seed=4)
    # ``meta.n == 7`` is decided by ta's entries, ``meta.m == 3`` by t1's:
    # one entry each that makes the guard reachable, so both points hold a
    # witness record.  Value points hold none, so a burst that only moves
    # those replays nothing.
    warmup = [
        Update("C.ta", INSERT, TableEntry((ExactMatch(1),), "setn", (7,), 0)),
        Update("C.t1", INSERT, TableEntry((TernaryMatch(1, 0xFF),), "set", (3,), 9)),
    ]
    taken = {(u.table, u.entry.match_key()) for u in warmup}
    for table in ALL_TABLES:
        for update in fuzzer.representative_updates(table, per_action=2):
            if (update.table, update.entry.match_key()) not in taken:
                warmup.append(update)
    spec.check_decision(flay.process_batch(warmup), warmup)
    burst = []
    for table in GUARD_TABLES:
        burst.extend(fuzzer.insert_burst(table, 15))
    before = flay.gate_stats()
    for update in burst:
        spec.check_decision(flay.process_update(update), [update])
    delta = flay.gate_stats().since(before)
    assert delta.witness_hits > 0, "burst should exercise the replay tier"
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()


DASH_CHURN_TABLES = ["DashIngress.direction_lookup", "DashIngress.outbound_routing"]


def dash_churn(model, seed, count):
    """A live insert/modify/delete stream on dash's direction and routing
    tables, with every ``set_direction`` argument 5 or, one time in five,
    1: the ``meta.direction == 1`` guard then moves between chains whose
    constant leaves all miss 1 (the interval precheck refutes it) and
    chains with a leaf that hits (the SAT core decides it)."""
    rng = random.Random(seed)
    stream = []
    for update in EntryFuzzer(model, seed=seed).update_stream(
        tables=DASH_CHURN_TABLES, count=count, modify_fraction=0.2, delete_fraction=0.3
    ):
        entry = update.entry
        if entry.action == "set_direction":
            direction = 1 if rng.random() < 0.2 else 5
            entry = TableEntry(entry.matches, entry.action, (direction,), entry.priority)
        stream.append(Update(update.table, update.op, entry))
    return stream


@pytest.mark.parametrize("seed", [1, 23])
def test_dash_direction_churn_matches_the_sat_core(seed):
    """The interval precheck's verdicts are checked against a specification
    that cannot share them: its solver has no precheck and encodes every
    query afresh, so each guard the precheck refutes in the engine is
    decided by the complete SAT core in the specification."""
    entry = registry.get("dash")
    flay = Flay.from_source(
        entry.source(), FlayOptions(target="bmv2", skip_parser=entry.skip_parser)
    )
    reference = Solver(
        use_interval_precheck=False,
        max_conflicts=QueryEngine.DEFAULT_MAX_CONFLICTS,
    )
    spec = Spec(flay, solver=reference)
    before = flay.solver_stats().snapshot()
    for update in dash_churn(flay.model, seed, count=40):
        spec.check_decision(flay.process_update(update), [update])
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()
    engine = flay.solver_stats().since(before)
    # Non-vacuous: the engine's precheck decided guards during the churn,
    # and every query of the specification that was not settled by the
    # simplifier went to the SAT core.
    assert engine.by_interval > 0
    assert reference.stats.by_interval == 0
    assert reference.stats.probes == reference.stats.by_sat > 0


def make_beaucoup():
    entry = registry.get("beaucoup")
    return Flay.from_source(
        entry.source(), FlayOptions(target="tofino", skip_parser=entry.skip_parser)
    )


@pytest.mark.parametrize("seed", [1, 3])
def test_beaucoup_rollouts_match_the_sat_core(seed, monkeypatch):
    """The pre-check's pinned-conjunct rule against a specification that
    cannot share it.  Two policy roll-outs (``EntryFuzzer.rollout_stream``:
    the first entry per (table, action) with random protocol and port keys,
    then deletes) on beaucoup, whose ``meta.query_id != 0`` is a first-match
    chain of ``protocol == k && l4_port == p`` guards, where ``l4_port`` is
    a port only under protocol 6 or 17.  Each guard the engine refutes under
    its own pin is decided by the complete SAT core in the specification."""
    refuted = []

    def counting(conjuncts, results):
        verdict = _refuted_by_pins(conjuncts, results)
        refuted.append(verdict)
        return verdict

    monkeypatch.setattr(interval, "_refuted_by_pins", counting)
    flay = make_beaucoup()
    reference = Solver(
        use_interval_precheck=False,
        max_conflicts=QueryEngine.DEFAULT_MAX_CONFLICTS,
    )
    spec = Spec(flay, solver=reference)
    for update in EntryFuzzer(flay.model, seed=seed).rollout_stream(2):
        spec.check_decision(flay.process_update(update), [update])
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()
    # Non-vacuous: the engine's pre-check refuted pinned guards, and every
    # query of the specification that was not settled by the simplifier
    # went to the SAT core.
    assert any(refuted)
    assert reference.stats.by_interval == 0
    assert reference.stats.probes == reference.stats.by_sat > 0


#: Total SAT conflicts allowed over eleven beaucoup roll-outs on one engine.
ROLLOUT_CONFLICT_BOUND = 1000


@pytest.mark.parametrize("seed", [1, 3])
def test_eleven_beaucoup_rollouts_stay_under_a_conflict_bound(seed):
    """Eleven of the roll-outs above on one engine, the shape of a policy
    stream that repeats its roll-out (``benchmarks/e2e/README.md``, Known
    defect 6).  With the pinned-conjunct rule the SAT core spends 368
    (seed 1) and 426 (seed 3) conflicts on all eleven, against
    ``ROLLOUT_CONFLICT_BOUND`` = 1 000.  Without it every refutable guard is
    probed: 6 911 and 6 744 conflicts, and under the persistent solver
    session the engine then had, roll-outs grew from 0.2 s to 1.6-2.0 s as
    it filled with their cones."""
    flay = make_beaucoup()
    before = flay.solver_stats().snapshot()
    for update in EntryFuzzer(flay.model, seed=seed).rollout_stream(11):
        flay.process_update(update)
    assert flay.solver_stats().since(before).search.conflicts < ROLLOUT_CONFLICT_BOUND


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=5, max_value=30),
    modify=st.sampled_from([0.0, 0.2, 0.4]),
    delete=st.sampled_from([0.0, 0.2]),
)
def test_property_gated_equals_ungated(seed, count, modify, delete):
    """Hypothesis sweep over stream shapes: any fuzzer stream, any mix of
    inserts/modifies/deletes, the gate never changes a verdict."""
    flay = make_flay("none")
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES,
        count=count,
        modify_fraction=modify,
        delete_fraction=delete,
    )
    for update in stream:
        spec.check_decision(flay.process_update(update))
    assert flay.specialized_source() == spec.specialized_source()
