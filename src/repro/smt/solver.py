"""Solver facade: the QF_BV decision procedure Flay's queries sit on.

Layered fast paths, in the order Flay needs them to keep update analysis
within its ~100 ms budget (§4.1):

1. algebraic simplification (often decides the query outright),
2. interval abstract interpretation (cheap sound pre-check; an equality
   between a constant and a table's ``ite`` chain is decided by reading the
   chain's leaves, so a guard no action value can satisfy is refuted
   without being encoded or probed; and a conjunction is read under the
   ``v == c`` equalities it asserts, so a first-match guard that
   contradicts its own key is refuted the same way),
3. bit-blasting + CDCL (complete, used when the fast paths punt).

A **result memo** keyed on the hash-consed simplified term sits behind the
simplifier: identical residual terms across updates never reach layers 2
and 3 twice between two term collections.

Layers 1 and 2 also keep a per-node memo each, from one term collection
to the next: ``simplify``'s (``id`` of a term → its simplified form) and
the interval sweep's (``id`` of a simplified node → its interval or
tri-state verdict).  Guards share their tables' ``ite`` chains, so a
query walks only the nodes no earlier query reached.  Both are keyed on
``id``, which is sound because every solver registers with the default
term factory, which has it forget all three memos (:meth:`Solver.forget`)
before a collection frees the terms those ids name; and both map a node
to a value that depends on that node alone.  The pinned re-evaluation of
a conjunction (``interval._refuted_by_pins``) reads its conjuncts under
assumed equalities, so it runs in a memo of its own and no pinned
interval ever enters the persistent one.  Neither is snapshotted or
shared between solvers (both are ``local``, ``generation`` rows of
:data:`~repro.engine.context.WARM_STATE`).

Layer 3 keeps nothing between queries.  Each query that reaches it gets a
fresh :class:`~repro.smt.cnf.BitBlaster` and SAT solver, dropped once it
is answered — except that the two halves of an executability probe pair
(:meth:`Solver.probe_pair`) share one.  The first half to reach layer 3
builds it; each half encodes its term into it (the second reuses the
subterm encodings the first memoised) and is solved under its root
literal as an assumption.  The clause database holds only Tseitin
definitions, which every input assignment extends, so neither half
constrains the other and each gets the answer a fresh solver would give.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.ir.metrics import CacheCounter
from repro.smt import interval, sat, terms as T
from repro.smt.cnf import BitBlaster, model_values
from repro.smt.sat import SatStats
from repro.smt.simplify import simplify
from repro.smt.terms import Term


@dataclass
class SolverStats:
    """Where queries were decided, and what the SAT core spent on them.

    The ``by_*`` counters say which fast-path layer answered; the
    search counters (one :class:`~repro.smt.sat.SatStats`) plus the probe
    count and total time are the solver-health surface the ``--stats``
    CLI flag and the benchmark JSON report.  Every field is a running
    total: nothing grows with the number of probes.
    """

    by_simplify: int = 0
    by_interval: int = 0
    by_sat: int = 0
    by_cache: int = 0  # answered from the cross-update result memo
    # SAT-core observability.
    probes: int = 0  # queries that actually reached the SAT core
    probe_us_total: float = 0.0
    search: SatStats = field(default_factory=SatStats)

    @property
    def total(self) -> int:
        return self.by_simplify + self.by_interval + self.by_sat + self.by_cache

    def snapshot(self) -> "SolverStats":
        """A frozen copy, for before/after deltas."""
        return SolverStats(
            by_simplify=self.by_simplify,
            by_interval=self.by_interval,
            by_sat=self.by_sat,
            by_cache=self.by_cache,
            probes=self.probes,
            probe_us_total=self.probe_us_total,
            search=self.search.snapshot(),
        )

    def since(self, baseline: "SolverStats") -> "SolverStats":
        return SolverStats(
            by_simplify=self.by_simplify - baseline.by_simplify,
            by_interval=self.by_interval - baseline.by_interval,
            by_sat=self.by_sat - baseline.by_sat,
            by_cache=self.by_cache - baseline.by_cache,
            probes=self.probes - baseline.probes,
            probe_us_total=self.probe_us_total - baseline.probe_us_total,
            search=self.search.since(baseline.search),
        )

    def absorb(self, other: "SolverStats") -> None:
        """Fold another stats record into this one (burst-slice merge)."""
        self.by_simplify += other.by_simplify
        self.by_interval += other.by_interval
        self.by_sat += other.by_sat
        self.by_cache += other.by_cache
        self.probes += other.probes
        self.probe_us_total += other.probe_us_total
        self.search.add(other.search)

    def describe(self) -> str:
        """Multi-line counter report for the ``--stats`` CLI flag."""
        s = self.search
        mean_us = self.probe_us_total / self.probes if self.probes else 0.0
        lines = [
            (
                f"queries: {self.total} "
                f"(simplify {self.by_simplify}, interval {self.by_interval}, "
                f"sat {self.by_sat}, memo {self.by_cache})"
            ),
            (
                f"probes: {self.probes} "
                f"(mean {mean_us:.0f} us, "
                f"total {self.probe_us_total / 1000:.1f} ms)"
            ),
            (
                f"search: {s.decisions} decisions, {s.conflicts} conflicts, "
                f"{s.propagations} propagations, {s.restarts} restarts"
            ),
            f"clauses: {s.learned} learned ({s.learned_units} units), {s.deleted} deleted",
        ]
        return "\n".join(lines)


@dataclass
class SatResult:
    """Outcome of a satisfiability check."""

    satisfiable: bool
    model: Optional[dict[str, int]] = None


class Solver:
    """Decides satisfiability/validity of boolean terms over bitvectors."""

    def __init__(
        self,
        use_interval_precheck: bool = True,
        max_conflicts: Optional[int] = 100_000,
    ) -> None:
        self.use_interval_precheck = use_interval_precheck
        self.max_conflicts = max_conflicts
        self.stats = SolverStats()
        self.cache_counter = CacheCounter("solver-memo")
        self._results: dict[Term, SatResult] = {}
        # Per-node memos for layers 1 and 2, kept until the next term
        # collection (see the module docstring); keyed on ``id``.
        self._simplify_memo: dict[int, Term] = {}
        self._interval_memo: dict[int, interval.Interval] = {}
        # Inside :meth:`probe_pair`: whether a pair is open, and its
        # encoding once one of its halves has reached bit-blasting.
        self._pairing = False
        self._pair: Optional[BitBlaster] = None
        T.DEFAULT_FACTORY.register(self)

    def forget(self) -> None:
        """Drop the memos a term collection would leave stale.

        The two ``id``-keyed per-node memos, and the result memo, whose
        keys would pin terms nothing else holds.  Called by
        :meth:`~repro.smt.terms.TermFactory.collect`.
        """
        self._results.clear()
        self._simplify_memo.clear()
        self._interval_memo.clear()

    def check_sat(self, term: Term) -> SatResult:
        """Is there an assignment making ``term`` true?"""
        if not term.is_bool:
            raise T.SortError("check_sat expects a boolean term")
        simplified = simplify(term, self._simplify_memo)
        if simplified.op == T.OP_BOOLCONST:
            self.stats.by_simplify += 1
            return SatResult(bool(simplified.payload), {} if simplified.payload else None)
        cached = self._results.get(simplified)
        if cached is not None:
            self.stats.by_cache += 1
            self.cache_counter.hit()
            return cached
        self.cache_counter.miss()
        if self.use_interval_precheck:
            verdict = interval.eval_bool(simplified, self._interval_memo)
            if verdict == interval.DEFINITELY_FALSE:
                self.stats.by_interval += 1
                result = SatResult(False)
                self._results[simplified] = result
                return result
            # DEFINITELY_TRUE means *every* assignment satisfies it → SAT.
            if verdict == interval.DEFINITELY_TRUE:
                self.stats.by_interval += 1
                result = SatResult(True, {})
                self._results[simplified] = result
                return result
        self.stats.by_sat += 1
        result = self._check_sat_blasted(simplified)
        # A blown conflict budget raises out of the call above and is
        # deliberately *not* cached: a later query under a bigger budget
        # must be free to try again.
        self._results[simplified] = result
        return result

    def probe_pair(self, term: Term) -> tuple[SatResult, Optional[SatResult]]:
        """Executability's probe pair: ``check_sat(term)`` and, when that is
        satisfiable, ``check_sat(¬term)`` (else ``None``).

        Both halves go through :meth:`check_sat`, so every layer and the
        result memo see each of them; the halves that reach bit-blasting
        share one encoding (see the module docstring), dropped on return.
        A blown budget on either half raises
        :class:`~repro.smt.sat.SolverBudgetExceeded` after the drop.
        """
        self._pairing = True
        try:
            positive = self.check_sat(term)
            if not positive.satisfiable:
                return positive, None
            return positive, self.check_sat(T.bool_not(term))
        finally:
            self._pairing = False
            self._pair = None

    def _check_sat_blasted(self, simplified: Term) -> SatResult:
        start = time.perf_counter()
        try:
            return self._solve(simplified)
        finally:
            elapsed_us = (time.perf_counter() - start) * 1e6
            self.stats.probes += 1
            self.stats.probe_us_total += elapsed_us

    def _solve(self, simplified: Term) -> SatResult:
        """Encode ``simplified`` and solve it under its root literal."""
        blaster = self._pair
        if blaster is None:
            blaster = BitBlaster()
            if self._pairing:
                self._pair = blaster
        solver = blaster.solver
        before = solver.stats.snapshot()
        try:
            root = blaster.encode_bool(simplified)
            outcome = solver.solve(assumptions=[root], max_conflicts=self.max_conflicts)
        finally:
            self.stats.search.add(solver.stats.since(before))
        if outcome == sat.UNSAT:
            return SatResult(False)
        return SatResult(True, model_values(blaster, simplified))

    # -- higher-level queries --------------------------------------------------

    def is_valid(self, term: Term) -> bool:
        """Does ``term`` hold under every assignment?"""
        return not self.check_sat(T.bool_not(term)).satisfiable

    def prove_equal(self, a: Term, b: Term) -> bool:
        """Are ``a`` and ``b`` semantically equal for all inputs?

        This is the behaviour-change check at the heart of the incremental
        pipeline: the old and new expression at a program point are equal
        iff the control-plane update did not change that point's semantics.
        """
        if a is b:
            self.stats.by_simplify += 1
            return True
        if a.is_bool != b.is_bool or a.width != b.width:
            return False
        sa, sb = simplify(a), simplify(b)
        if sa is sb:
            self.stats.by_simplify += 1
            return True
        return self.is_valid(T.eq(sa, sb))

    def find_constant(self, term: Term) -> Optional[int]:
        """If ``term`` has the same value under every assignment, return it.

        This implements Flay's second query type: "can we replace this
        program variable with a constant?".  Simplification handles the
        overwhelmingly common case; the solver closes the gap (e.g. masked
        expressions that fold semantically but not syntactically).
        """
        simplified = simplify(term)
        value = _literal_value(simplified)
        if value is not None:
            self.stats.by_simplify += 1
            return value
        if not T.variables(simplified):
            # Closed but unsimplified (shouldn't happen); evaluate directly.
            return T.evaluate(simplified, {})
        # Get a candidate value from one model, then prove uniqueness.
        if simplified.is_bool:
            if not self.check_sat(simplified).satisfiable:
                return 0
            if not self.check_sat(T.bool_not(simplified)).satisfiable:
                return 1
            return None
        # Probe: evaluate under the all-zeros assignment to get a candidate.
        zeros = {var.name: 0 for var in T.variables(simplified)}
        candidate = T.evaluate(simplified, zeros)
        candidate_term = T.bv_const(candidate, simplified.width)
        if self.is_valid(T.eq(simplified, candidate_term)):
            return candidate
        return None


def _literal_value(term: Term) -> Optional[int]:
    if term.op == T.OP_BVCONST:
        return term.payload
    if term.op == T.OP_BOOLCONST:
        return int(term.payload)
    return None
