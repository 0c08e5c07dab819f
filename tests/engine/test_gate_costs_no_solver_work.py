"""The gate may only ever save solver work, never add any.

A value point's verdict is ``constant_value(term)`` — syntactic — so the
solver has nothing to decide there, and the gate holds witness records
only for executability points, whose two witnesses are the models of the
probe pair that decided them.  On a ``policy_flip``-shaped stream (the
first entry per (table, action) in shuffled order, then the same entries
deleted in another shuffled order: nearly every update flips a verdict)
over all seven zoo programs this module pins, by count:

* the engine ≡ the gate-less specification (``tests/engine/spec.py``,
  the "ungated" of the test names) on every decision, verdict and
  specialized source;
* the engine issues no more ``check_sat`` calls than that specification;
* no ``check_sat`` call happens while a value point is being decided;
* one ``VerdictGate.decide`` is exactly one
  ``QueryEngine._executability`` call, and a record exists afterwards
  iff that call found MAYBE with both probe models;
* the decision scope a session derives from the fragments' cached
  variable lists is the list the literal-by-literal cone walk gives, for
  every activation (same order ⇒ same scoped decisions ⇒ same models ⇒
  same witness records).
"""

import random

import pytest

from repro.analysis.model import KIND_IF, KIND_SELECT
from repro.core import Flay, FlayOptions
from repro.engine.gate import VerdictGate
from repro.engine.queries import MAYBE, QueryEngine
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, Update
from repro.smt.session import SolverSession
from repro.smt.solver import Solver

from tests.engine.spec import Spec

ZOO = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")


def policy_flip_stream(model, seed):
    """First entry per (table, action), shuffled; then shuffled deletes."""
    fuzzer = EntryFuzzer(model, seed=seed)
    inserts = [
        update
        for table in sorted(model.tables)
        for update in fuzzer.representative_updates(table, per_action=1)
    ]
    shape = random.Random(seed)
    shape.shuffle(inserts)
    deletes = [Update(update.table, DELETE, update.entry) for update in inserts]
    shape.shuffle(deletes)
    return inserts + deletes


def literal_walk(session, term):
    """``_collect_cone_vars`` as it was before fragments kept their
    variables: every literal of every clause of the cone, in load order."""
    encoder = session.encoder
    frag = (encoder._bool_frags if term.is_bool else encoder._bv_frags)[term]
    seen, cone, visited, stack = set(), [], set(), [frag]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        for clause in node.clauses:
            for lit in clause:
                var = session._local[abs(lit)]
                if var not in seen:
                    seen.add(var)
                    cone.append(var)
        stack.extend(node.children)
    return cone


class Run:
    """One program's stream through the engine, the specification beside it."""

    def __init__(self, name, monkeypatch):
        self.deciding = []  # kinds of the points being decided, innermost last
        self.solver_calls_by_kind = []  # kind of the point each check_sat served
        self.activations = 0
        self.cone_mismatches = []
        self.decides = []  # per gate.decide: (_executability calls, verdict, record kept, term)
        self.executability_calls = []  # every _executability outcome, in order

        point_verdict = QueryEngine.point_verdict
        executability = QueryEngine._executability
        decide = VerdictGate.decide
        check_sat = Solver.check_sat
        collect = SolverSession._collect_cone_vars

        def spy_point_verdict(engine, point, *args, **kwargs):
            self.deciding.append(point.kind)
            try:
                return point_verdict(engine, point, *args, **kwargs)
            finally:
                self.deciding.pop()

        def spy_check_sat(solver, term, *args, **kwargs):
            if self.deciding:
                self.solver_calls_by_kind.append(self.deciding[-1])
            return check_sat(solver, term, *args, **kwargs)

        def spy_executability(engine, term):
            found = executability(engine, term)
            self.executability_calls.append(found)
            return found

        def spy_decide(gate, point, term, query_engine):
            before = len(self.executability_calls)
            verdict = decide(gate, point, term, query_engine)
            calls = self.executability_calls[before:]
            kept = gate._records.get(point.pid)
            self.decides.append((calls, verdict, kept, term))
            return verdict

        def spy_collect(session, term):
            cone = collect(session, term)
            self.activations += 1
            if cone != literal_walk(session, term):
                self.cone_mismatches.append(term)
            return cone

        monkeypatch.setattr(QueryEngine, "point_verdict", spy_point_verdict)
        monkeypatch.setattr(QueryEngine, "_executability", spy_executability)
        monkeypatch.setattr(VerdictGate, "decide", spy_decide)
        monkeypatch.setattr(Solver, "check_sat", spy_check_sat)
        monkeypatch.setattr(SolverSession, "_collect_cone_vars", spy_collect)

        program = registry.load(name)
        self.gated = Flay(program, FlayOptions(target="none"))
        self.ungated = Spec(self.gated)
        self.decisions = []
        for update in policy_flip_stream(self.gated.model, seed=23):
            decision = self.gated.process_update(update)
            self.ungated.check_decision(decision)
            self.decisions.append(decision)


@pytest.fixture(scope="module", params=ZOO)
def run(request):
    monkeypatch = pytest.MonkeyPatch()
    try:
        yield Run(request.param, monkeypatch)
    finally:
        monkeypatch.undo()


def test_gated_and_ungated_agree_on_every_decision(run):
    # Every decision was checked against the specification as it was made
    # (``Spec.check_decision`` in ``Run``); what is left is the end state.
    assert run.decisions
    assert run.gated.point_verdicts == run.ungated.points
    assert run.gated.table_verdicts == run.ungated.tables
    assert run.gated.specialized_source() == run.ungated.specialized_source()
    assert any(not decision.forwarded for decision in run.decisions)


def test_the_gate_adds_no_solver_call(run):
    assert run.gated.solver_stats().total <= run.ungated.solver_calls()


def test_one_decide_is_one_executability_call(run):
    """``decide`` is ``_executability`` plus record upkeep: one call each,
    the same verdict, and a record afterwards iff the call found MAYBE
    with both probe models (or re-validated an earlier such pair)."""
    assert run.decides
    for calls, verdict, kept, term in run.decides:
        assert len(calls) == 1
        (found,) = calls
        assert verdict == found.verdict
        if found.how == "probed":
            assert (kept is not None) == (found.models is not None)
            assert (found.models is not None) == (verdict == MAYBE)
        if kept is not None:
            assert verdict == MAYBE
            assert kept.term is term
        if found.how in ("trivial", "budget"):
            assert kept is None


def test_no_solver_call_serves_a_value_point(run):
    assert set(run.solver_calls_by_kind) <= {KIND_IF, KIND_SELECT}


def test_records_are_for_maybe_executability_points_only(run):
    points = run.gated.model.points
    for pid, record in run.gated.gate._records.map.items():
        assert points[pid].kind in (KIND_IF, KIND_SELECT)
        assert record.verdict.executability == "maybe"


def test_cone_variables_keep_the_literal_walk_order(run):
    assert run.activations
    assert not run.cone_mismatches
