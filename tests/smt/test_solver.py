"""Tests for the layered solver facade."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.queries import MAYBE, NEVER, Executability, QueryEngine
from repro.smt import terms as T
from repro.smt.sat import SatSolver, SolverBudgetExceeded
from repro.smt.simplify import simplify
from repro.smt.solver import Solver

X = T.data_var("so_x", 8)
Y = T.data_var("so_y", 8)
Z = T.data_var("so_z", 4)
P = T.bool_var("so_p")


def c(v, w=8):
    return T.bv_const(v, w)


class TestCheckSat:
    def test_trivially_true(self):
        solver = Solver()
        assert solver.check_sat(T.TRUE).satisfiable
        assert solver.stats.by_simplify == 1

    def test_trivially_false(self):
        solver = Solver()
        assert not solver.check_sat(T.FALSE).satisfiable

    def test_decided_by_simplify(self):
        solver = Solver()
        assert not solver.check_sat(T.ne(X, X)).satisfiable
        assert solver.stats.by_sat == 0

    def test_decided_by_interval(self):
        solver = Solver()
        term = T.eq(T.bv_and(X, c(0x0F)), c(0xF0))
        assert not solver.check_sat(term).satisfiable
        assert solver.stats.by_interval == 1
        assert solver.stats.by_sat == 0

    def test_interval_precheck_can_be_disabled(self):
        solver = Solver(use_interval_precheck=False)
        term = T.eq(T.bv_and(X, c(0x0F)), c(0xF0))
        assert not solver.check_sat(term).satisfiable
        assert solver.stats.by_sat == 1

    def test_falls_through_to_sat_with_model(self):
        solver = Solver()
        result = solver.check_sat(
            T.bool_and(T.eq(T.add(X, Y), c(10)), T.eq(X, c(3)))
        )
        assert result.satisfiable
        assert result.model is not None
        assert (result.model["so_x"] + result.model["so_y"]) % 256 == 10

    def test_rejects_bv_term(self):
        with pytest.raises(T.SortError):
            Solver().check_sat(X)


class TestValidity:
    def test_tautology(self):
        solver = Solver()
        assert solver.is_valid(T.bool_or(T.eq(X, c(1)), T.ne(X, c(1))))

    def test_non_tautology(self):
        assert not Solver().is_valid(T.eq(X, c(1)))

    def test_masked_identity_valid(self):
        # (x & 0xF0) | (x & 0x0F) == x for all x.
        lhs = T.bv_or(T.bv_and(X, c(0xF0)), T.bv_and(X, c(0x0F)))
        assert Solver().is_valid(T.eq(lhs, X))


class TestProveEqual:
    def test_identical_terms(self):
        solver = Solver()
        assert solver.prove_equal(T.add(X, c(1)), T.add(X, c(1)))

    def test_commuted(self):
        assert Solver().prove_equal(T.add(X, Y), T.add(Y, X))

    def test_semantic_equality_needs_solver(self):
        # x + x == x << 1 (not syntactically equal after simplification).
        assert Solver().prove_equal(T.add(X, X), T.shl(X, c(1)))

    def test_inequality(self):
        assert not Solver().prove_equal(T.add(X, c(1)), X)

    def test_sort_mismatch(self):
        assert not Solver().prove_equal(T.TRUE, X)
        assert not Solver().prove_equal(X, T.data_var("so_w16", 16))


class TestFindConstant:
    def test_literal(self):
        assert Solver().find_constant(c(9)) == 9

    def test_simplifies_to_constant(self):
        assert Solver().find_constant(T.bv_and(X, c(0))) == 0

    def test_non_constant(self):
        assert Solver().find_constant(X) is None

    def test_semantically_constant(self):
        # (x | ~x) is all-ones for every x — only the solver can see it.
        expr = T.bv_or(X, T.bv_not(X))
        assert Solver().find_constant(expr) == 0xFF

    def test_bool_constant(self):
        assert Solver().find_constant(T.ule(c(0), X)) == 1
        assert Solver().find_constant(T.ult(X, c(0))) == 0
        assert Solver().find_constant(T.eq(X, c(3))) is None


@given(value=st.integers(0, 255))
@settings(max_examples=50, deadline=None)
def test_unsat_means_no_counterexample(value):
    """If check_sat says UNSAT, no concrete value satisfies the term."""
    solver = Solver()
    term = T.bool_and(T.eq(X, c(value)), T.ne(X, c(value)))
    result = solver.check_sat(term)
    assert not result.satisfiable
    assert T.evaluate(term, {"so_x": value}) == 0


# -- the probe pair: both halves on one throw-away encoding ------------------


@st.composite
def bv_terms(draw, depth=0):
    """Random 8-bit terms, ``ite`` chains (a table's shape) included."""
    if depth > 2 or draw(st.booleans()):
        return draw(st.sampled_from([X, Y, T.concat(Z, Z), c(draw(st.integers(0, 255)))]))
    op = draw(st.sampled_from(["add", "and", "xor", "mul", "ite"]))
    a = draw(bv_terms(depth=depth + 1))
    b = draw(bv_terms(depth=depth + 1))
    if op == "ite":
        return T.ite(draw(guards(depth=depth + 1)), a, b)
    return {"add": T.add, "and": T.bv_and, "xor": T.bv_xor, "mul": T.mul}[op](a, b)


@st.composite
def guards(draw, depth=0):
    """Random executability guards over the terms above."""
    if depth > 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return P
        cmp = draw(st.sampled_from([T.eq, T.ult, T.ule]))
        return cmp(draw(bv_terms(depth=depth + 1)), draw(bv_terms(depth=depth + 1)))
    op = draw(st.sampled_from(["and", "or", "not"]))
    a = draw(guards(depth=depth + 1))
    if op == "not":
        return T.bool_not(a)
    b = draw(guards(depth=depth + 1))
    return T.bool_and(a, b) if op == "and" else T.bool_or(a, b)


def holds(term, model) -> bool:
    """``term`` under ``model``; variables the model omits (simplification
    dropped them, so their value cannot matter) read as 0."""
    assignment = {var.name: 0 for var in T.variables(term)}
    assignment.update(model)
    return T.evaluate(term, assignment) == 1


@given(guard=guards())
@settings(max_examples=150, deadline=None)
def test_probe_pair_agrees_with_two_fresh_solvers(guard):
    # No precheck, so every half simplification leaves open reaches the
    # shared encoding.
    solver = Solver(use_interval_precheck=False)
    positive, negative = solver.probe_pair(guard)
    assert positive.satisfiable == Solver().check_sat(guard).satisfiable
    if not positive.satisfiable:
        assert negative is None
        return
    assert holds(guard, positive.model)
    assert negative.satisfiable == Solver().check_sat(T.bool_not(guard)).satisfiable
    if negative.satisfiable:
        assert not holds(guard, negative.model)


class TestProbePair:
    def test_both_halves_share_one_solver_and_drop_it(self, monkeypatch):
        solvers = []
        solve = SatSolver.solve

        def recording(sat_solver, *args, **kwargs):
            solvers.append(sat_solver)
            return solve(sat_solver, *args, **kwargs)

        monkeypatch.setattr(SatSolver, "solve", recording)
        solver = Solver()
        guard = T.eq(T.add(X, Y), c(10))
        positive, negative = solver.probe_pair(guard)
        assert positive.satisfiable and negative.satisfiable
        assert len(solvers) == 2 and solvers[0] is solvers[1]
        assert solver._pair is None
        # Outside a pair every query gets its own solver.
        solver.check_sat(T.ult(X, Y))
        solver.check_sat(T.ult(Y, X))
        assert len({id(s) for s in solvers}) == 3

    def test_budget_on_the_second_half_is_a_maybe_that_is_not_memoised(
        self, monkeypatch
    ):
        solve = SatSolver.solve
        calls = []

        def second_half_blows(sat_solver, *args, **kwargs):
            calls.append(sat_solver)
            if len(calls) == 2:
                raise SolverBudgetExceeded("exceeded 0 conflicts")
            return solve(sat_solver, *args, **kwargs)

        monkeypatch.setattr(SatSolver, "solve", second_half_blows)
        solver = Solver()
        engine = QueryEngine(None, solver=solver)  # the pair never reads the model
        guard = simplify(T.eq(T.add(X, Y), c(10)))
        assert engine._executability(guard) == Executability(MAYBE, "budget")
        assert calls[0] is calls[1]
        assert guard not in engine._exec_cache
        assert list(solver._results) == [guard]  # the first half only
        assert solver._pair is None
        # The next questions are answered as a fresh engine would answer them.
        again = engine._executability(guard)
        assert (again.verdict, again.how) == (MAYBE, "probed")
        assert not holds(guard, again.models[1]) and holds(guard, again.models[0])
        assert engine._exec_cache[guard] == MAYBE
        contradiction = simplify(T.bool_and(T.ult(X, Y), T.ult(Y, X)))
        assert engine._executability(contradiction).verdict == NEVER


# -- the simplify and interval memos outlive the query ----------------------


@st.composite
def guard_streams(draw):
    """Guards over shared subterms, some conjoined with a pin ``x == c``."""
    stream = []
    for guard in draw(st.lists(guards(), min_size=2, max_size=8)):
        if draw(st.booleans()):
            pin = T.eq(draw(st.sampled_from([X, Y])), c(draw(st.integers(0, 255))))
            guard = T.bool_and(pin, guard)
        stream.append(guard)
    return stream


@given(stream=guard_streams())
@settings(max_examples=100, deadline=None)
def test_long_lived_solver_answers_like_a_fresh_one_per_query(stream):
    solver = Solver()
    for guard in stream:
        kept = solver.check_sat(guard)
        assert kept.satisfiable == Solver().check_sat(guard).satisfiable
        if kept.satisfiable:
            assert holds(guard, kept.model)


class TestSolverMemos:
    def test_a_pin_never_leaks_into_the_persistent_memo(self):
        v = T.data_var("so_v", 8)
        p = T.data_var("so_pv", 8)
        port = T.eq(T.ite(T.eq(v, c(6)), p, c(0)), c(5))
        solver = Solver()
        # Under its own pin v == 3 the port is 0, never 5.
        assert not solver.check_sat(T.bool_and(T.eq(v, c(3)), port)).satisfiable
        assert solver.stats.by_interval == 1
        # Without the pin, and under another one, the port can be 5.
        alone = solver.check_sat(port)
        assert alone.satisfiable and holds(port, alone.model)
        other = T.bool_and(T.eq(v, c(6)), T.eq(p, c(5)))
        assert solver.check_sat(other).satisfiable
        assert solver.check_sat(T.bool_and(T.eq(v, c(6)), port)).satisfiable

    def test_a_burst_queries_the_engines_own_solver(self, monkeypatch):
        from repro.core import Flay, FlayOptions
        from repro.engine import engine as engine_module
        from repro.p4.parser import parse_program
        from repro.runtime.fuzzer import EntryFuzzer
        from repro.smt import solver as solver_module

        flay = Flay(parse_program(BURST_SOURCE), FlayOptions(target="none"))
        shared = flay.runtime.ctx.query_engine.solver
        deltas = []
        schedule_batch = engine_module.schedule_batch

        def refuse(*args, **kwargs):
            raise AssertionError("a burst built a solver of its own")

        def checked(ctx, passes):
            assert ctx.query_engine.solver is shared
            before = shared.stats.snapshot()
            with monkeypatch.context() as patch:
                patch.setattr(solver_module.Solver, "__init__", refuse)
                decision = schedule_batch(ctx, passes)
            deltas.append(shared.stats.since(before))
            return decision

        monkeypatch.setattr(engine_module, "schedule_batch", checked)
        fuzzer = EntryFuzzer(flay.model, seed=3)
        for _ in range(3):
            burst = fuzzer.insert_burst("ta", 6) + fuzzer.insert_burst("tb", 6)
            flay.decide(burst)
        assert len(deltas) == 3 and any(delta.total for delta in deltas)
        assert shared._interval_memo


BURST_SOURCE = """
header h_t { bit<8> a; bit<8> b; bit<8> f; }
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
        key = { hdr.h.a: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    table tb {
        key = { hdr.h.b: ternary; }
        actions = { setn; noop; }
        default_action = noop();
    }
    apply {
        ta.apply();
        tb.apply();
        if (meta.m == 8w3) { hdr.h.f = 8w1; }
        if (meta.n + meta.m == 8w7) { hdr.h.f = 8w2; }
    }
}
Pipeline(P(), C()) main;
"""
