"""Unit tests for the verdict gate (engine/gate.py).

The end-to-end cost is ``benchmarks/e2e``'s to measure and the
equivalence claim is test_gate_differential.py's; this module pins the
mechanics — counter bookkeeping and the witness-record lifecycle.
"""

import dataclasses
import pickle

from repro.core import Flay, FlayOptions
from repro.engine.context import EngineOptions
from repro.engine.gate import GateStats, _ZeroDefault
from repro.p4.parser import parse_program
from repro.runtime.entries import ExactMatch, TableEntry, TernaryMatch
from repro.runtime.semantics import DELETE, INSERT, MODIFY, TableState, Update
from repro.smt import terms as T

from tests.engine.spec import Spec

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
    apply {
        ta.apply();
        t1.apply();
        if (meta.n == 8w7) { hdr.h.g = 8w1; }
    }
}
Pipeline(P(), C()) main;
"""


def make_flay(**options):
    return Flay(parse_program(SOURCE), FlayOptions(target="none", **options))


def insert_ta(key, arg, action="setn"):
    args = () if action == "noop" else (arg,)
    return Update("C.ta", INSERT, TableEntry((ExactMatch(key),), action, args, 0))


# ---------------------------------------------------------------------------
# GateStats bookkeeping
# ---------------------------------------------------------------------------


class TestGateStats:
    def test_solver_free_sums_non_probe_tiers(self):
        stats = GateStats(
            screened=10,
            witness_hits=4,
            exec_cache_hits=2,
            solver_fallbacks=2,
        )
        assert stats.solver_free == 8
        # A screened point kept on its unchanged term reaches no tier and
        # no solver: solver-free all the same.
        assert GateStats(screened=10, witness_hits=1, solver_fallbacks=2).solver_free == 8

    def test_snapshot_is_independent(self):
        stats = GateStats(screened=3)
        frozen = stats.snapshot()
        stats.screened = 9
        assert frozen.screened == 3

    def test_since_subtracts_fieldwise(self):
        before = GateStats(screened=3, harvested=1)
        after = GateStats(screened=10, harvested=4, witness_hits=2)
        delta = after.since(before)
        assert delta.screened == 7
        assert delta.harvested == 3
        assert delta.witness_hits == 2

    def test_describe_mentions_every_tier(self):
        text = GateStats(screened=4, witness_hits=2).describe()
        assert "screens: 4" in text
        assert "witness 2" in text
        assert "solver-free" in text
        assert "fdd:" in text

    def test_describe_survives_zero_screens(self):
        assert "0.0%" in GateStats().describe()


# ---------------------------------------------------------------------------
# Wiring: option flag, stats surface, event emission
# ---------------------------------------------------------------------------


class TestWiring:
    def test_gate_attached_by_default(self):
        flay = make_flay()
        assert flay.runtime.gate is not None
        assert isinstance(flay.gate_stats(), GateStats)
        # Every table got a diagram.
        for state in flay.runtime.ctx.state.tables.values():
            assert state.fdd is not None

    def test_no_option_switches_a_layer_off(self):
        """The gate, the table-verdict memo, the solver and parser-tail
        pruning are not options: an ablation of one is the
        specification in ``spec.py``, a test-side fixture or the effort
        level.  What is left is one option per paper axis."""
        assert {f.name for f in dataclasses.fields(EngineOptions)} == {
            "skip_parser",
            "overapprox_threshold",
            "target",
            "effort",
        }

    def test_warm_run_moves_the_gate_counters(self):
        flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
        before = flay.gate_stats()
        flay.process_update(insert_ta(1, 7))
        assert flay.gate_stats().since(before).screened > 0


# ---------------------------------------------------------------------------
# Witness-record lifecycle on the real warm path
# ---------------------------------------------------------------------------


class TestWitnessLifecycle:
    def test_maybe_point_harvests_witnesses(self):
        gated = make_flay()
        ungated = Spec(gated)
        # setn(7) reachable iff h.a == 1 → the n==7 guard goes MAYBE and
        # the probe pair's two models become the point's witnesses.  The
        # second insert makes setn's parameter a non-constant value point.
        for update in (insert_ta(1, 7), insert_ta(2, 9)):
            ungated.check_decision(gated.process_update(update))
        gate = gated.runtime.gate
        assert gated.gate_stats().harvested >= 1
        records = gate._records
        assert records, "a MAYBE verdict should leave a witness record"
        points = gated.runtime.ctx.model.points
        for pid, record in records.items():
            # Records exist only for MAYBE executability points: their two
            # witnesses are the models of the probe pair that decided them.
            assert points[pid].kind in ("if", "select")
            assert record.verdict.executability == "maybe"
            assert T.evaluate(record.term, record.pos_model) == 1
            assert T.evaluate(record.term, record.neg_model) == 0
            # The cached key points agree with re-evaluating the models.
            assert record.pos_keys == gate._key_points(pid, record.pos_model)
            assert record.neg_keys == gate._key_points(pid, record.neg_model)
        # A non-constant value point leaves no record and is still decided
        # exactly as the gate-less specification decides it.
        verdicts = gated.runtime.ctx.point_verdicts
        varying = [
            pid
            for pid, v in verdicts.items()
            if v.executability is None and not v.is_constant
        ]
        assert varying
        assert not set(varying) & set(records)
        assert verdicts == ungated.points

    def test_disjoint_insert_replays_verdict_from_witnesses(self):
        flay = make_flay()
        flay.process_update(insert_ta(1, 7))
        before = flay.gate_stats()
        # Keys 200/201 are disjoint from both witnesses' key values, so
        # the fingerprints hold and the stored MAYBE is replayed without
        # a solver probe.
        flay.process_update(insert_ta(200, 3))
        flay.process_update(insert_ta(201, 4))
        delta = flay.gate_stats().since(before)
        assert delta.witness_hits >= 2
        assert delta.solver_fallbacks == 0

    def test_touching_a_witness_key_invalidates_the_record(self):
        flay = make_flay()
        update = insert_ta(1, 7)
        flay.process_update(update)
        before = flay.gate_stats()
        # Deleting the entry changes the first-match decision at the
        # positive witness's key point → fingerprint miss → full re-decide, and
        # the now-NEVER guard drops its record.
        flay.process_update(Update("C.ta", DELETE, update.entry))
        delta = flay.gate_stats().since(before)
        assert delta.witness_hits == 0
        verdicts = flay.runtime.ctx.point_verdicts
        guard = next(
            v for v in verdicts.values()
            if v.kind == "if" and v.executability is not None
        )
        assert guard.executability == "never"

    def test_gated_verdicts_match_ungated(self):
        gated = make_flay()
        ungated = Spec(gated)
        for update in [insert_ta(1, 7), insert_ta(9, 2), insert_ta(200, 7)]:
            ungated.check_decision(gated.process_update(update))
        assert gated.specialized_source() == ungated.specialized_source()


# ---------------------------------------------------------------------------
# The interval domain is the solver's layer, not a gate tier
# ---------------------------------------------------------------------------

INTERVAL_SOURCE = """
header h_t { bit<8> f; bit<8> g; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v + (hdr.h.g & 8w0x0F); }
    action noop() { }
    table t1 {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply {
        meta.m = 8w0;
        t1.apply();
        if (meta.m < 8w64) { hdr.h.g = 8w1; }
        if ((hdr.h.f & 8w0x0F) > 8w15) { hdr.h.g = 8w2; }
    }
}
Pipeline(P(), C()) main;
"""


def test_a_guard_the_interval_domain_decides_costs_no_probe():
    """``v + (g & 0xF) < 64`` holds for every installed ``v`` ≤ 48 and
    ``(f & 0xF) > 15`` never does; neither folds syntactically.  Both are
    decided by ``check_sat``'s interval precheck — the gate has no tier of
    its own for them — so they cost solver *calls* but no SAT probe."""
    flay = Flay(parse_program(INTERVAL_SOURCE), FlayOptions(target="none"))
    spec = Spec(flay)
    bounded, masked = sorted(
        pid for pid, point in flay.model.points.items() if point.kind == "if"
    )

    def insert(key, value, priority):
        entry = TableEntry((TernaryMatch(key, 0xFF),), "set", (value,), priority)
        return Update("t1", INSERT, entry)

    assert flay.point_verdicts[masked].executability == "never"
    assert flay.solver_stats().by_interval == 1
    for step, update in enumerate([insert(1, 16, 9), insert(2, 32, 8)], start=1):
        spec.check_decision(flay.process_update(update))
        assert flay.point_verdicts[bounded].executability == "always"
        assert flay.point_verdicts[masked].executability == "never"
        # One call for the guard, one for its negation, both by interval.
        assert flay.solver_stats().by_interval == 1 + 2 * step
    stats = flay.gate_stats()
    assert flay.solver_stats().probes == 0
    assert stats.solver_fallbacks == 3 and stats.harvested == 0
    assert stats.interval_decided == 0  # kept for benchmarks/e2e, reads 0
    assert not flay.gate._records
    # 60 + 15 can reach 64: now the probe pair has to search.
    spec.check_decision(flay.process_update(insert(3, 60, 7)))
    assert flay.point_verdicts[bounded].executability == "maybe"
    assert flay.solver_stats().probes == 2
    assert set(flay.gate._records) == {bounded}


# ---------------------------------------------------------------------------
# _ZeroDefault
# ---------------------------------------------------------------------------


def test_zero_default_reads_absent_variables_as_zero():
    model = _ZeroDefault({"x": 5})
    assert model["x"] == 5
    assert model["never_assigned"] == 0


# ---------------------------------------------------------------------------
# Lookup rows: lazy, and plain values across a snapshot
# ---------------------------------------------------------------------------


class TestLookupRows:
    def test_overapproximated_table_is_never_repacked(self, monkeypatch):
        """Counts, not time: past the threshold a table is never looked
        up, so its updates derive no rows and no active list — an INSERT
        packs its own entry once, a MODIFY or DELETE packs nothing."""
        flay = make_flay(overapprox_threshold=3)
        entries = [insert_ta(key, key).entry for key in range(1, 9)]
        for entry in entries[:5]:
            flay.process_update(Update("C.ta", INSERT, entry))
        state = flay.runtime.ctx.state.tables["C.ta"]
        assert len(state) > 3
        packs = []
        pack_entry = TableState.pack_entry
        monkeypatch.setattr(
            TableState,
            "pack_entry",
            lambda self, entry: packs.append(entry) or pack_entry(self, entry),
        )
        rebuilds = state.fdd.rebuilds
        recomputes = state.counter.misses
        before = flay.gate_stats()
        for entry in entries[5:]:
            flay.process_update(Update("C.ta", INSERT, entry))
        assert packs == entries[5:]
        flay.process_update(Update("C.ta", DELETE, entries[0]))
        flay.process_update(
            Update("C.ta", MODIFY, TableEntry(entries[1].matches, "setn", (42,), 0))
        )
        flay.process_update(Update("C.ta", DELETE, entries[6]))
        assert packs == entries[5:]
        assert state.fdd.rebuilds == rebuilds
        assert state.counter.misses == recomputes
        assert flay.gate_stats().since(before).fdd_rebuilds == 0

    def test_fingerprints_survive_a_snapshot(self):
        live = Flay.from_source(SOURCE, FlayOptions(target="none"))
        live.process_update(insert_ta(1, 7))
        live.process_update(insert_ta(2, 9))
        restored = Flay.restore(pickle.loads(pickle.dumps(live.snapshot())))
        records = live.gate._records
        twins = restored.gate._records
        assert records and twins.keys() == records.keys()
        for pid, record in records.items():
            twin = twins[pid]
            assert (twin.fp_pos, twin.fp_neg) == (record.fp_pos, record.fp_neg)
            assert (twin.pos_keys, twin.neg_keys) == (record.pos_keys, record.neg_keys)
        # First update after restore: screened from the fingerprints,
        # nothing re-harvested, exactly as on the engine that never stopped.
        deltas = []
        for flay in (live, restored):
            before = flay.gate_stats()
            flay.process_update(insert_ta(200, 3))
            deltas.append(flay.gate_stats().since(before))
        assert deltas[1].witness_hits >= 1
        assert deltas[1].harvested == 0
        assert deltas[1].solver_fallbacks == 0
        assert (deltas[1].screened, deltas[1].witness_hits) == (
            deltas[0].screened,
            deltas[0].witness_hits,
        )
