"""Tests for the specialization queries and verdicts."""

import pytest

from repro.analysis import analyze
from repro.engine.queries import ALWAYS, MAYBE, NEVER, QueryEngine, _possible_values
from repro.p4.parser import parse_program
from repro.runtime.entries import ExactMatch, TableEntry, TernaryMatch
from repro.runtime.semantics import ControlPlaneState, INSERT, Update, encode_all, encode_table
from repro.smt import Substitution, terms as T

SOURCE = """
header h_t { bit<8> f; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action drop_it() { mark_to_drop(); }
    action noop() { }
    table t {
        key = { hdr.h.f: ternary; }
        actions = { set; drop_it; noop; }
        default_action = noop();
    }
    apply {
        t.apply();
        if (meta.m == 0) {
            meta.m = 1;
        }
    }
}
Pipeline(P(), C()) main;
"""


@pytest.fixture()
def setup():
    model = analyze(parse_program(SOURCE))
    state = ControlPlaneState(model)
    engine = QueryEngine(model)
    return model, state, engine


def _substitution(model, state):
    return Substitution(encode_all(model, state))


class TestPointVerdicts:
    def test_empty_table_makes_if_always(self, setup):
        model, state, engine = setup
        sub = _substitution(model, state)
        if_points = [p for p in model.points.values() if p.kind == "if"]
        (point,) = if_points
        verdict = engine.point_verdict(point, sub)
        # Empty table → default noop → meta.m stays 0 → condition always true.
        assert verdict.executability == ALWAYS

    def test_entry_changes_if_verdict(self, setup):
        model, state, engine = setup
        state.apply_update(
            Update("t", INSERT, TableEntry((TernaryMatch(1, 0xFF),), "set", (5,), 1))
        )
        sub = _substitution(model, state)
        (point,) = [p for p in model.points.values() if p.kind == "if"]
        assert engine.point_verdict(point, sub).executability == MAYBE

    def test_value_point_constant(self, setup):
        model, state, engine = setup
        sub = _substitution(model, state)
        value_points = [p for p in model.points.values() if p.kind == "action-value"]
        for point in value_points:
            verdict = engine.point_verdict(point, sub)
            assert verdict.is_constant  # empty table: all effects constant

    def test_verdict_comparability(self, setup):
        model, state, engine = setup
        sub = _substitution(model, state)
        (point,) = [p for p in model.points.values() if p.kind == "if"]
        a = engine.point_verdict(point, sub)
        b = engine.point_verdict(point, sub)
        assert a.same_specialization(b)


class TestExecutability:
    def test_solver_refines_maybe(self):
        model = analyze(parse_program(SOURCE))
        engine = QueryEngine(model, use_solver=True)
        x = T.data_var("q_x", 8)
        tautology = T.bool_or(T.eq(x, T.bv_const(1, 8)), T.ne(x, T.bv_const(1, 8)))
        assert engine._executability(tautology).verdict == ALWAYS
        contradiction = T.bool_and(T.eq(x, T.bv_const(1, 8)), T.eq(x, T.bv_const(2, 8)))
        assert engine._executability(contradiction).verdict == NEVER

    def test_solver_disabled_returns_maybe(self):
        model = analyze(parse_program(SOURCE))
        engine = QueryEngine(model, use_solver=False)
        x = T.data_var("q_y", 8)
        contradiction = T.bool_and(T.eq(x, T.bv_const(1, 8)), T.eq(x, T.bv_const(2, 8)))
        assert engine._executability(contradiction).verdict == MAYBE

    def test_budget_guard(self):
        model = analyze(parse_program(SOURCE))
        engine = QueryEngine(model, use_solver=True, solver_node_budget=3)
        x = T.data_var("q_z", 8)
        big = T.eq(T.add(T.add(x, x), T.add(x, x)), T.bv_const(0, 8))
        assert engine._executability(big).verdict == MAYBE


class TestTableVerdicts:
    def test_empty_table(self, setup):
        model, state, engine = setup
        info = model.table("t")
        assignment = encode_table(info, state.table_state("t"))
        verdict = engine.table_verdict(info, assignment, state.table_state("t"))
        assert verdict.feasible_actions == frozenset({"noop"})
        assert verdict.hit == NEVER
        assert verdict.match_plan == ("none",)

    def test_single_full_mask_entry_narrows_to_exact(self, setup):
        model, state, engine = setup
        state.apply_update(
            Update("t", INSERT, TableEntry((TernaryMatch(2, 0xFF),), "set", (9,), 1))
        )
        info = model.table("t")
        assignment = encode_table(info, state.table_state("t"))
        verdict = engine.table_verdict(info, assignment, state.table_state("t"))
        assert verdict.feasible_actions == frozenset({"set", "noop"})
        assert verdict.match_plan == ("exact",)
        assert dict(verdict.const_params)[("set", "v")] == 9

    def test_partial_mask_stays_ternary(self, setup):
        model, state, engine = setup
        state.apply_update(
            Update("t", INSERT, TableEntry((TernaryMatch(2, 0x0F),), "set", (9,), 1))
        )
        info = model.table("t")
        assignment = encode_table(info, state.table_state("t"))
        verdict = engine.table_verdict(info, assignment, state.table_state("t"))
        assert verdict.match_plan == ("ternary",)

    def test_wildcard_entry_forces_action(self, setup):
        model, state, engine = setup
        state.apply_update(
            Update("t", INSERT, TableEntry((TernaryMatch(0, 0),), "set", (3,), 1))
        )
        info = model.table("t")
        assignment = encode_table(info, state.table_state("t"))
        verdict = engine.table_verdict(info, assignment, state.table_state("t"))
        # The wildcard always matches: selector constant `set`, hit always.
        assert verdict.feasible_actions == frozenset({"set"})
        assert verdict.hit == ALWAYS

    def test_overapprox_covers_everything(self, setup):
        model, state, engine = setup
        for i in range(4):
            state.apply_update(
                Update("t", INSERT, TableEntry((TernaryMatch(i, 0xFF),), "set", (i,), i + 1))
            )
        info = model.table("t")
        assignment = encode_table(info, state.table_state("t"), threshold=2)
        verdict = engine.table_verdict(info, assignment, state.table_state("t"))
        assert verdict.overapproximated
        assert verdict.feasible_actions == frozenset({"set", "drop_it", "noop"})
        assert verdict.hit == MAYBE

    def test_verdict_change_detection(self, setup):
        model, state, engine = setup
        info = model.table("t")
        empty = engine.table_verdict(
            info, encode_table(info, state.table_state("t")), state.table_state("t")
        )
        state.apply_update(
            Update("t", INSERT, TableEntry((TernaryMatch(2, 0xFF),), "set", (9,), 1))
        )
        configured = engine.table_verdict(
            info, encode_table(info, state.table_state("t")), state.table_state("t")
        )
        assert not empty.same_specialization(configured)


class TestPossibleValues:
    def test_constant(self):
        assert _possible_values(T.bv_const(3, 8)) == {3}

    def test_ite_tree(self):
        x = T.data_var("pv_x", 8)
        tree = T.ite(
            T.eq(x, T.bv_const(0, 8)),
            T.bv_const(1, 8),
            T.ite(T.eq(x, T.bv_const(1, 8)), T.bv_const(2, 8), T.bv_const(3, 8)),
        )
        assert _possible_values(tree) == {1, 2, 3}

    def test_opaque_term_returns_none(self):
        assert _possible_values(T.data_var("pv_y", 8)) is None
