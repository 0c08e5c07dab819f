"""Tests for the incremental CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.sat import SAT, UNSAT, SatSolver, SolverBudgetExceeded, luby
from repro.smt.solver import SolverStats


def brute_force(num_vars: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses
        ):
            return True
    return False


def brute_force_under(
    num_vars: int, clauses: list[list[int]], assumptions: list[int]
) -> bool:
    return brute_force(num_vars, clauses + [[lit] for lit in assumptions])


class TestBasics:
    def test_empty_formula_sat(self):
        assert SatSolver().solve() == SAT

    def test_single_unit(self):
        solver = SatSolver()
        solver.add_clause([1])
        assert solver.solve() == SAT
        assert solver.model()[1] is True

    def test_conflicting_units(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() == UNSAT
        assert solver.model() is None

    def test_empty_clause_unsat(self):
        solver = SatSolver()
        solver.add_clause([])
        assert solver.solve() == UNSAT

    def test_tautology_dropped(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        assert solver.num_clauses == 0
        assert solver.solve() == SAT

    def test_duplicate_literals_collapsed(self):
        solver = SatSolver()
        solver.add_clause([1, 1, 1])
        assert solver.solve() == SAT

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            SatSolver().add_clause([0])

    def test_implication_chain(self):
        solver = SatSolver()
        for i in range(1, 50):
            solver.add_clause([-i, i + 1])  # i -> i+1
        solver.add_clause([1])
        solver.add_clause([-50])
        assert solver.solve() == UNSAT

    def test_model_satisfies_clauses(self):
        rng = random.Random(1)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, 8) for _ in range(3)]
            for _ in range(20)
        ]
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        if solver.solve() == SAT:
            model = solver.model()
            for clause in clauses:
                assert any(model.get(abs(l), False) == (l > 0) for l in clause)

    def test_pigeonhole_3_into_2_unsat(self):
        # var p_{i,j}: pigeon i in hole j (i in 0..2, j in 0..1)
        def v(i, j):
            return i * 2 + j + 1

        solver = SatSolver()
        for i in range(3):
            solver.add_clause([v(i, 0), v(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    solver.add_clause([-v(i1, j), -v(i2, j)])
        assert solver.solve() == UNSAT


def pigeonhole(solver: SatSolver, pigeons: int, holes: int) -> None:
    def v(i, j):
        return i * holes + j + 1

    for i in range(pigeons):
        solver.add_clause([v(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                solver.add_clause([-v(i1, j), -v(i2, j)])


class TestBudget:
    def test_conflict_budget_exceeded(self):
        # Pigeonhole 8→7 needs exponentially many conflicts even for CDCL;
        # a budget of 1 conflict trips immediately.
        solver = SatSolver()
        pigeonhole(solver, 8, 7)
        with pytest.raises(SolverBudgetExceeded):
            solver.solve(max_conflicts=1)

    def test_budget_is_per_call(self):
        # A blown budget must not poison the solver: the same instance
        # answers correctly on a later call with enough budget.
        solver = SatSolver()
        pigeonhole(solver, 6, 5)
        with pytest.raises(SolverBudgetExceeded):
            solver.solve(max_conflicts=1)
        assert solver.solve() == UNSAT


class TestModelInvalidation:
    def test_add_clause_invalidates_cached_model(self):
        # Regression: mutating the clause set after SAT must not leave a
        # stale model visible — [1] alone gave {1: True}, which does not
        # satisfy the formula once [-1, 2] is added.
        solver = SatSolver()
        solver.add_clause([1])
        assert solver.solve() == SAT
        assert solver.model() == {1: True}
        solver.add_clause([-1, 2])
        assert solver.model() is None
        assert solver.solve() == SAT
        model = solver.model()
        assert model[1] is True and model[2] is True

    def test_add_clause_after_unsat_stays_unsat(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() == UNSAT
        solver.add_clause([2])
        assert solver.solve() == UNSAT


class TestAssumptions:
    def test_assumption_forces_polarity(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) == SAT
        assert solver.model()[2] is True
        assert solver.solve(assumptions=[-2]) == SAT
        assert solver.model()[1] is True

    def test_unsat_under_assumptions_only(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]) == UNSAT
        # The formula itself is untouched: still SAT without assumptions.
        assert solver.solve() == SAT

    def test_conflicting_assumptions(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[1, -1]) == UNSAT
        assert solver.solve() == SAT

    def test_assumption_of_root_falsified_literal(self):
        solver = SatSolver()
        solver.add_clause([1])
        assert solver.solve(assumptions=[-1]) == UNSAT
        assert solver.solve(assumptions=[1]) == SAT

    def test_activation_literal_pattern(self):
        # Each query root guarded by (¬act ∨ root), probed under act.
        solver = SatSolver()
        x, a1, a2 = 1, 2, 3
        solver.add_clause([-a1, x])
        solver.add_clause([-a2, -x])
        assert solver.solve(assumptions=[a1]) == SAT
        assert solver.model()[x] is True
        assert solver.solve(assumptions=[a2]) == SAT
        assert solver.model()[x] is False
        assert solver.solve(assumptions=[a1, a2]) == UNSAT
        assert solver.solve() == SAT

    def test_incremental_reuse_keeps_learning(self):
        # Repeated probes of an UNSAT core should get cheaper as learned
        # clauses accumulate — at minimum, stay correct across many calls.
        solver = SatSolver()
        pigeonhole(solver, 5, 4)
        act = solver.new_var()
        solver.add_clause([-act, 1])
        first = solver.stats.conflicts
        assert solver.solve(assumptions=[act]) == UNSAT
        cost_first = solver.stats.conflicts - first
        for _ in range(3):
            before = solver.stats.conflicts
            assert solver.solve(assumptions=[act]) == UNSAT
            assert solver.stats.conflicts - before <= max(cost_first, 1)


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestStats:
    def test_counters_move(self):
        solver = SatSolver()
        pigeonhole(solver, 4, 3)
        assert solver.solve() == UNSAT
        stats = solver.stats
        assert stats.solves == 1
        assert stats.conflicts > 0
        assert stats.propagations > 0
        assert stats.learned > 0

    def test_snapshot_since(self):
        solver = SatSolver()
        pigeonhole(solver, 4, 3)
        before = solver.stats.snapshot()
        assert solver.solve() == UNSAT
        delta = solver.stats.since(before)
        assert delta.solves == 1
        assert delta.conflicts == solver.stats.conflicts

    def test_learned_units_are_counted_apart(self):
        solver = SatSolver()
        pigeonhole(solver, 4, 3)
        before = solver.stats.snapshot()
        assert solver.solve() == UNSAT
        delta = solver.stats.since(before)
        assert 0 < delta.learned_units < delta.learned
        # A unit is asserted at the root; every other learned clause enters
        # the database, where only _reduce_db removes it.
        assert solver.num_learned == delta.learned - delta.learned_units - delta.deleted
        text = SolverStats(search=delta).describe()
        assert (
            f"clauses: {delta.learned} learned ({delta.learned_units} units), "
            f"{delta.deleted} deleted"
        ) in text


clause_strategy = st.lists(
    st.lists(
        st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v])),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=15,
)

wide_clause_strategy = st.lists(
    st.lists(
        st.integers(1, 14).flatmap(lambda v: st.sampled_from([v, -v])),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=40,
)


@given(clauses=clause_strategy)
@settings(max_examples=200, deadline=None)
def test_agrees_with_brute_force(clauses):
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    expected = brute_force(6, clauses)
    assert (solver.solve() == SAT) == expected


@given(clauses=wide_clause_strategy)
@settings(max_examples=100, deadline=None)
def test_wide_agrees_with_brute_force_and_model_is_valid(clauses):
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    expected = brute_force(14, clauses)
    assert (solver.solve() == SAT) == expected
    if expected:
        model = solver.model()
        for clause in clauses:
            assert any(model.get(abs(l), False) == (l > 0) for l in clause)


@given(
    clauses=wide_clause_strategy,
    assumptions=st.lists(
        st.integers(1, 14).flatmap(lambda v: st.sampled_from([v, -v])),
        max_size=4,
    ),
)
@settings(max_examples=100, deadline=None)
def test_assumptions_agree_with_brute_force(clauses, assumptions):
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    expected = brute_force_under(14, clauses, assumptions)
    assert (solver.solve(assumptions=assumptions) == SAT) == expected
    # The probe must not leave residue: plain solve still matches.
    assert (solver.solve() == SAT) == brute_force(14, clauses)


@given(
    clauses=clause_strategy,
    extra=st.lists(
        st.lists(
            st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v])),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=100, deadline=None)
def test_incremental_add_matches_from_scratch(clauses, extra):
    # solve / add more clauses / solve again ≡ one fresh solver with all
    # clauses — clause learning must be conservative.
    incremental = SatSolver()
    for clause in clauses:
        incremental.add_clause(clause)
    incremental.solve()
    for clause in extra:
        incremental.add_clause(clause)
    expected = brute_force(6, clauses + extra)
    assert (incremental.solve() == SAT) == expected
