"""The fused substitute-and-simplify pass against its specification, on the zoo.

``DeltaSubstitution.apply`` promises the very object
``simplify(Substitution(mapping).apply(term))`` returns.  The smt-level
suite (``tests/smt/test_delta_substitution.py``) checks that on random
terms; this one checks it on every program point of all seven zoo
programs, after valid update streams through real table encodings —
directly, and through a worker slice that is absorbed — and then pins,
by count rather than by time, what the cutoff is for: a precise ACL insert
re-decides a handful of points and rewrites less than it marks, memo,
edges and dirty set do not grow with history, a budget-``MAYBE`` is still
retried, and the terms the verdicts were decided from survive a snapshot.
"""

import dataclasses
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.engine.engine import Engine
from repro.engine.queries import MAYBE, QueryEngine
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.entries import TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import (
    DELETE,
    INSERT,
    ControlPlaneState,
    Update,
    encode_all,
    encode_table,
)
from repro.smt.sat import SolverBudgetExceeded
from repro.smt.simplify import simplify
from repro.smt.solver import Solver
from repro.smt.substitute import DeltaSubstitution, Substitution

ZOO = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")
SCION_ACL = "ScionIngress.acl_v4"


@pytest.fixture(scope="module")
def models():
    return {
        name: Flay(registry.load(name), FlayOptions(target="none")).model for name in ZOO
    }


def _specification(mapping, points):
    """pid → ``simplify(Substitution(mapping).apply(expr))``, memos shared."""
    substitution = Substitution(mapping)
    memo: dict = {}
    return {
        pid: simplify(substitution.apply(point.expr), memo)
        for pid, point in points.items()
    }


# -- (a) the differential -----------------------------------------------------


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(ZOO),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 40),
    threshold=st.sampled_from([3, 100]),  # 3: streams cross it both ways
)
def test_fused_pass_is_the_specification_on_every_point(
    models, name, seed, count, threshold
):
    model = models[name]
    rng = random.Random(seed)
    tables = rng.sample(sorted(model.tables), min(3, len(model.tables)))
    stream = EntryFuzzer(model, seed=seed).update_stream(
        tables=tables, count=count, modify_fraction=0.25, delete_fraction=0.25
    )
    state = ControlPlaneState(model)
    mapping = encode_all(model, state, threshold)
    direct = DeltaSubstitution(mapping)
    shared = DeltaSubstitution(mapping)  # only ever written through slices
    pids = sorted(model.points)
    position = 0
    while position < len(stream):
        chunk = stream[position : position + rng.randint(1, 8)]
        position += len(chunk)
        touched = sorted({state.apply_update(update).name for update in chunk})
        delta: dict = {}
        for table in touched:
            delta.update(
                encode_table(model.tables[table], state.tables[table], threshold).mapping
            )
        mapping.update(delta)
        piece = shared.fork_slice()
        assert piece.set_many(delta) == direct.set_many(delta)
        # Pull a sample only, so that dirty entries outlive the chunk.
        expected = _specification(mapping, model.points)
        for pid in rng.sample(pids, min(40, len(pids))):
            expr = model.points[pid].expr
            assert direct.apply(expr) is expected[pid]
            assert piece.apply(expr) is expected[pid]
        shared.absorb(piece)
    expected = _specification(mapping, model.points)
    for pid, point in model.points.items():
        assert direct.apply(point.expr) is expected[pid]
        assert shared.apply(point.expr) is expected[pid]


# -- (c) traps, by count ------------------------------------------------------


def _scion_with_acl(entries):
    flay = Flay(registry.load("scion"), FlayOptions(target="none"))
    flay.process_batch([Update(SCION_ACL, INSERT, entry) for entry in entries])
    assert not flay.runtime.table_assignments[SCION_ACL].overapproximated
    return flay


def test_precise_acl_insert_redecides_a_handful_and_rewrites_less_than_it_marks():
    probe = Flay(registry.load("scion"), FlayOptions(target="none"))
    entries = EntryFuzzer(probe.model, seed=7).unique_entries(SCION_ACL, 24)
    flay = _scion_with_acl(entries[:16])
    substitution = flay.runtime.substitution
    tainted = flay.model.points_for_control_vars(
        flay.model.table(SCION_ACL).control_var_names()
    )
    assert len(tainted) > 50
    marking_inserts = 0
    for entry in entries[16:]:
        marked, rewrites = substitution.counter.invalidations, substitution.rewrites
        decision = flay.process_update(Update(SCION_ACL, INSERT, entry))
        assert not decision.overapproximated
        assert decision.affected_points > 50
        assert decision.redecided_points <= 5
        assert (
            decision.redecided_points + decision.unchanged_points
            <= decision.affected_points
        )
        marked = substitution.counter.invalidations - marked
        rewrites = substitution.rewrites - rewrites
        if marked:  # else the new encodings simplify to the old ones
            marking_inserts += 1
            assert 0 < rewrites < marked
        else:
            assert rewrites == 0
        assert "re-decided" in decision.describe()
    assert marking_inserts >= 4


def test_the_three_update_paths_count_points_alike():
    probe = Flay(registry.load("scion"), FlayOptions(target="none"))
    entries = EntryFuzzer(probe.model, seed=7).unique_entries(SCION_ACL, 18)
    update = Update(SCION_ACL, INSERT, entries[17])
    decisions = [
        _scion_with_acl(entries[:17]).process_update(update),
        _scion_with_acl(entries[:17]).process_batch([update]),
        _scion_with_acl(entries[:17]).apply_batch([update], workers=1),
    ]
    counts = {
        (d.affected_points, d.redecided_points, d.unchanged_points) for d in decisions
    }
    assert len(counts) == 1
    ((tainted, redecided, unchanged),) = counts
    assert tainted > 50 and unchanged > 50 and redecided <= 5
    wording = f"points: {tainted} tainted, {redecided} re-decided, {unchanged} unchanged term"
    assert all(wording in d.describe() for d in decisions)
    (group,) = decisions[2].groups
    assert (group.redecided_points, group.unchanged_points) == (redecided, unchanged)


def test_alternating_insert_and_delete_leaves_every_structure_the_size_two_did(models):
    model = models["scion"]
    info = model.table(SCION_ACL)
    entries = EntryFuzzer(model, seed=11).unique_entries(SCION_ACL, 13)
    state = ControlPlaneState(model)
    for entry in entries[:12]:
        state.apply_update(Update(SCION_ACL, INSERT, entry))
    simplify_memo: dict = {}
    substitution = DeltaSubstitution(
        encode_all(model, state), simplify_memo=simplify_memo
    )
    exprs = [
        model.points[pid].expr
        for pid in sorted(model.points_for_control_vars(info.control_var_names()))
    ]

    def alternate(times):
        for _ in range(times):
            for op in (INSERT, DELETE):
                state.apply_update(Update(SCION_ACL, op, entries[12]))
                substitution.set_many(encode_table(info, state.tables[info.name]).mapping)
                for expr in exprs:
                    substitution.apply(expr)
        return (
            substitution.memo_size,
            len(substitution._inputs),
            sum(len(nodes) for nodes in substitution._parents.values()),
            len(substitution._dirty),
            len(simplify_memo),
            len(state.tables[info.name]._conds),
        )

    after_two = alternate(2)
    assert alternate(1000) == after_two


# -- (d) the budget-MAYBE exception -------------------------------------------

BUDGET_SOURCE = """
header h_t { bit<8> f; bit<8> g; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table t1 {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply {
        t1.apply();
        if (meta.m == 8w3) { hdr.h.g = 8w1; }
    }
}
Pipeline(P(), C()) main;
"""


def _noop(value, priority):
    """A lowest-precedence entry running the default action: the selector's
    encoding changes (one more ``ite``), its simplified form does not."""
    return Update(
        "t1", INSERT, TableEntry((TernaryMatch(value, 0xFF),), "noop", (), priority)
    )


@pytest.mark.parametrize("gate", [True, False])
def test_budget_maybe_is_retried_on_a_changed_symbol_with_an_unchanged_term(
    gate, monkeypatch
):
    """``gate=False`` holds the specification to the same contract: a bare
    gate-less ``QueryEngine`` over a one-shot substitution of the engine's
    mapping, re-asked after every update."""
    flay = Flay(parse_program(BUDGET_SOURCE), FlayOptions(target="none"))
    engine = flay.ctx.query_engine if gate else QueryEngine(flay.model)
    (point,) = [p for p in flay.model.points.values() if p.kind == "if"]
    probes: list = []
    real_check_sat = engine.solver.check_sat

    def out_of_budget(term, *args, **kwargs):
        probes.append(term)
        raise SolverBudgetExceeded("test budget")

    def process(update):
        """Apply ``update``; the subject's verdict and the point's term."""
        decision = flay.process_update(update)
        assert decision.affected_points >= 1  # the selector was re-assigned
        if gate:
            verdict = flay.runtime.point_verdicts[point.pid]
            return verdict, flay.runtime.substitution.apply(point.expr)
        one_shot = Substitution(flay.mapping)
        verdict = engine.point_verdict(point, one_shot)
        return verdict, simplify(one_shot.apply(point.expr), memo=engine.simplify_memo)

    monkeypatch.setattr(engine.solver, "check_sat", out_of_budget)
    verdict, pulled = process(
        Update("t1", INSERT, TableEntry((TernaryMatch(1, 0xFF),), "set", (3,), 9))
    )
    assert verdict.executability == MAYBE
    assert probes  # the solver was asked and ran out of budget
    term, _ = engine._decided[point.pid]
    assert term is None

    # The selector is re-assigned, the point's term is the same object, and
    # the point is decided again — the solver gets its retry.
    del probes[:]
    redecided = engine.redecided
    verdict, term = process(_noop(2, 5))
    assert term is pulled
    assert probes
    assert engine.redecided > redecided

    # With budget the verdict is memoized, and the next such update keeps it.
    monkeypatch.setattr(engine.solver, "check_sat", real_check_sat)
    process(_noop(4, 4))
    term, verdict = engine._decided[point.pid]
    assert term is pulled and verdict.executability == MAYBE
    monkeypatch.setattr(engine.solver, "check_sat", out_of_budget)
    del probes[:]
    verdict, term = process(_noop(6, 3))
    assert term is pulled
    assert not probes
    assert verdict.executability == MAYBE


# -- (e) snapshot, format 5 ---------------------------------------------------


def test_first_update_after_restore_keeps_the_points_the_live_engine_keeps():
    source = registry.get("scion").source()
    live = Engine(source=source, options=FlayOptions(target="none"))
    entries = EntryFuzzer(live.model, seed=7).unique_entries(SCION_ACL, 20)
    live.process_batch([Update(SCION_ACL, INSERT, entry) for entry in entries[:16]])
    live.process_update(Update(SCION_ACL, INSERT, entries[16]))
    blob = pickle.loads(pickle.dumps(live.snapshot()))
    assert blob["format"] == 5
    restored = Engine.restore(blob)
    assert restored.ctx.query_engine._decided == live.ctx.query_engine._decided
    for entry in entries[17:]:
        update = Update(SCION_ACL, INSERT, entry)
        ours, theirs = live.process_update(update), restored.process_update(update)
        assert theirs.unchanged_points == ours.unchanged_points > 0
        assert theirs.redecided_points == ours.redecided_points
        assert theirs.affected_points == ours.affected_points
        assert theirs.changed == ours.changed
    assert restored.point_verdicts == live.point_verdicts


def test_first_update_after_restore_replays_witnesses_without_the_solver(monkeypatch):
    """The records a blob carries are the probe pairs' by-products, for
    MAYBE executability points only — and they still save the probes: the
    restored engine's first ACL insert replays every record the insert
    taints and asks the solver nothing."""
    source = registry.get("scion").source()
    live = Engine(source=source, options=FlayOptions(target="none"))
    entries = EntryFuzzer(live.model, seed=7).unique_entries(SCION_ACL, 18)
    live.process_batch([Update(SCION_ACL, INSERT, entry) for entry in entries[:16]])
    live.process_update(Update(SCION_ACL, INSERT, entries[16]))
    restored = Engine.restore(pickle.loads(pickle.dumps(live.snapshot())))
    records = restored.ctx.gate._records.map
    assert records.keys() == live.ctx.gate._records.map.keys()
    assert all(record.verdict.executability == MAYBE for record in records.values())
    tainted = restored.model.points_for_control_vars(
        restored.model.tables[SCION_ACL].control_var_names()
    )
    assert tainted & records.keys()
    probes = []
    check_sat = Solver.check_sat
    monkeypatch.setattr(
        Solver,
        "check_sat",
        lambda self, term, *args, **kwargs: probes.append(term)
        or check_sat(self, term, *args, **kwargs),
    )
    before = restored.gate_stats()
    decision = restored.process_update(Update(SCION_ACL, INSERT, entries[17]))
    delta = restored.gate_stats().since(before)
    assert decision.forwarded
    assert delta.witness_hits == len(tainted & records.keys())
    assert delta.solver_fallbacks == 0 and not probes


def test_a_format_2_blob_is_refused():
    live = Engine(source=registry.get("fig3").source(), options=FlayOptions(target="none"))
    blob = live.snapshot()
    blob["format"] = 2
    with pytest.raises(ValueError, match="unsupported snapshot format"):
        Engine.restore(blob)


def test_a_format_3_blob_is_refused_not_misread():
    """Format 3 carried value-point records and hunt counters."""
    live = Engine(source=registry.get("fig3").source(), options=FlayOptions(target="none"))
    blob = live.snapshot()
    assert "hunt_failures" not in blob
    blob["format"] = 3
    with pytest.raises(ValueError, match="unsupported snapshot format"):
        Engine.restore(blob)


def test_a_format_4_blob_is_refused_not_misread():
    """Format 4 pickled ten option fields; three of them no longer exist."""
    live = Engine(source=registry.get("fig3").source(), options=FlayOptions(target="none"))
    blob = live.snapshot()
    assert len(dataclasses.fields(blob["options"])) == 7
    blob["format"] = 4
    with pytest.raises(ValueError, match="unsupported snapshot format"):
        Engine.restore(blob)
