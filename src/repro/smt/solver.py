"""Solver facade: the QF_BV decision procedure Flay's queries sit on.

Layered fast paths, in the order Flay needs them to keep update analysis
within its ~100 ms budget (§4.1):

1. algebraic simplification (often decides the query outright),
2. interval abstract interpretation (cheap sound pre-check),
3. bit-blasting + incremental CDCL (complete, used when the fast paths punt).

Two cross-update caches sit on top (the "Once" cost paid once):

* a **result memo** keyed on the hash-consed simplified term — identical
  residual terms across updates never reach the SAT core twice, and
* a **CNF fragment cache** (:class:`~repro.smt.cnf.FragmentBitBlaster`)
  that reuses Tseitin encodings of shared subterms across queries, so
  bit-blasting cost scales with the delta rather than the full expression.

Below both sits the **solver session** (:class:`~repro.smt.session.SolverSession`):
one persistent CDCL instance per solver into which every query's cone is
streamed exactly once and probed under an activation-literal assumption —
the incremental-solving discipline the paper gets from Z3.  Clauses the
CDCL core learns while answering one update's queries keep pruning the
search for every later update.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.ir.metrics import CacheCounter
from repro.smt import interval, sat, terms as T
from repro.smt.cnf import BitBlaster, FragmentBitBlaster, assert_term, model_values
from repro.smt.sat import SatStats
from repro.smt.session import SolverSession
from repro.smt.simplify import simplify
from repro.smt.terms import Term


@dataclass
class SolverStats:
    """Where queries were decided, and what the SAT core spent on them.

    The ``by_*`` counters say which fast-path layer answered; the
    search counters (one :class:`~repro.smt.sat.SatStats`) plus the probe
    latency record are the solver-health surface the ``--stats`` CLI flag
    and the benchmark JSON report.
    """

    by_simplify: int = 0
    by_interval: int = 0
    by_sat: int = 0
    by_cache: int = 0  # answered from the cross-update result memo
    # SAT-core observability.
    probes: int = 0  # queries that actually reached the SAT core
    probe_us_total: float = 0.0
    search: SatStats = field(default_factory=SatStats)
    probe_latencies_us: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.by_simplify + self.by_interval + self.by_sat + self.by_cache

    def probe_latency_us(self, quantile: float) -> float:
        """Per-probe latency percentile (0.5 → p50, 0.99 → p99), in µs."""
        latencies = sorted(self.probe_latencies_us)
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(quantile * len(latencies)))
        return latencies[index]

    def snapshot(self) -> "SolverStats":
        """A frozen copy (latency list elided), for before/after deltas."""
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
        """Fold another stats record into this one (batch-worker merge)."""
        self.by_simplify += other.by_simplify
        self.by_interval += other.by_interval
        self.by_sat += other.by_sat
        self.by_cache += other.by_cache
        self.probes += other.probes
        self.probe_us_total += other.probe_us_total
        self.search.add(other.search)
        self.probe_latencies_us.extend(other.probe_latencies_us)

    def describe(self) -> str:
        """Multi-line counter report for the ``--stats`` CLI flag."""
        s = self.search
        lines = [
            (
                f"queries: {self.total} "
                f"(simplify {self.by_simplify}, interval {self.by_interval}, "
                f"sat {self.by_sat}, memo {self.by_cache})"
            ),
            (
                f"probes: {self.probes} "
                f"(p50 {self.probe_latency_us(0.5):.0f} us, "
                f"p99 {self.probe_latency_us(0.99):.0f} us, "
                f"total {self.probe_us_total / 1000:.1f} ms)"
            ),
            (
                f"search: {s.decisions} decisions, {s.conflicts} conflicts, "
                f"{s.propagations} propagations, {s.restarts} restarts"
            ),
            f"clauses: {s.learned} learned, {s.deleted} deleted",
        ]
        return "\n".join(lines)


@dataclass
class SatResult:
    """Outcome of a satisfiability check."""

    satisfiable: bool
    model: Optional[dict[str, int]] = None


class Solver:
    """Decides satisfiability/validity of boolean terms over bitvectors."""

    #: Reset the shared encoder past this many allocated SAT variables —
    #: a generation bump that bounds fragment-cache (and session clause
    #: database) memory.  The result memo survives resets (its entries
    #: stay correct forever).
    ENCODER_VAR_LIMIT = 500_000

    def __init__(
        self,
        use_interval_precheck: bool = True,
        max_conflicts: Optional[int] = 100_000,
        share_encodings: bool = True,
        _fork_of: Optional["Solver"] = None,
    ) -> None:
        self.use_interval_precheck = use_interval_precheck
        self.max_conflicts = max_conflicts
        self.share_encodings = share_encodings
        self.stats = SolverStats()
        self.cache_counter = CacheCounter("solver-memo")
        self.cnf_counter = CacheCounter("cnf-fragments")
        self.generation = 0
        self._results: dict[Term, SatResult] = {}
        #: Set on a :meth:`fork_slice` twin until its first bit-blasted
        #: query: the solver whose encoder and session it will fork then.
        self._fork_parent = _fork_of
        #: Serializes the materialisation of this solver's twins (two
        #: thread slices may reach it at once, and ``SatSolver.fork``
        #: backtracks the solver it copies).
        self._fork_lock = threading.Lock()
        self._encoder: Optional[FragmentBitBlaster] = None
        self._session: Optional[SolverSession] = None
        #: Set by :meth:`adopt_shared`: the encoder is owned by a shared
        #: store, so the var-limit generation reset must never swap it out
        #: from under the other solvers attached to it.
        self._encoder_pinned = False
        if _fork_of is None:
            self._reset_encoder()

    @property
    def session(self) -> Optional[SolverSession]:
        """The CDCL session (None on a twin that has not bit-blasted yet)."""
        return self._session

    def _reset_encoder(self) -> None:
        self._fork_parent = None
        self._encoder = FragmentBitBlaster(self.cnf_counter)
        self._session = SolverSession(self._encoder)
        self._encoder_pinned = False

    def invalidate_caches(self) -> None:
        """Drop the result memo, fragment cache, and solver session."""
        self.generation += 1
        self.cache_counter.invalidate(len(self._results))
        self._results.clear()
        self._reset_encoder()

    def check_sat(self, term: Term) -> SatResult:
        """Is there an assignment making ``term`` true?"""
        if not term.is_bool:
            raise T.SortError("check_sat expects a boolean term")
        simplified = simplify(term)
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
            verdict = interval.eval_bool(simplified)
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

    def _check_sat_blasted(self, simplified: Term) -> SatResult:
        start = time.perf_counter()
        try:
            if not self.share_encodings:
                return self._solve_fresh(simplified)
            if self._fork_parent is not None:
                self._materialize_fork()
            if (
                not self._encoder_pinned
                and self._encoder.var_count > self.ENCODER_VAR_LIMIT
            ):
                self.cnf_counter.invalidate()
                self._reset_encoder()
            return self._solve_session(simplified)
        finally:
            elapsed_us = (time.perf_counter() - start) * 1e6
            self.stats.probes += 1
            self.stats.probe_us_total += elapsed_us
            self.stats.probe_latencies_us.append(elapsed_us)

    def _solve_session(self, simplified: Term) -> SatResult:
        """One assumption probe against the persistent session."""
        session = self._session
        before = session.sat.stats.snapshot()
        try:
            satisfiable = session.probe(
                simplified, max_conflicts=self.max_conflicts
            )
        finally:
            self.stats.search.add(session.sat.stats.since(before))
        if not satisfiable:
            return SatResult(False)
        return SatResult(True, session.model_values(simplified))

    def _solve_fresh(self, simplified: Term) -> SatResult:
        """Fresh per-query encoding and solver (``share_encodings=False``)."""
        blaster = BitBlaster()
        assert_term(blaster, simplified)
        try:
            outcome = blaster.solver.solve(max_conflicts=self.max_conflicts)
        finally:
            self.stats.search.add(blaster.solver.stats)
        if outcome == sat.UNSAT:
            return SatResult(False)
        return SatResult(True, model_values(blaster, simplified))

    # -- shared-store adoption -------------------------------------------------

    def adopt_shared(
        self,
        encoder: FragmentBitBlaster,
        session: Optional[SolverSession] = None,
        results: Optional[dict[Term, SatResult]] = None,
    ) -> None:
        """Attach this solver to store-owned warm state.

        ``encoder`` (and optionally ``session`` and the result memo) come
        from a fleet shared store; every cache involved is a pure function
        of hash-consed terms, so sharing them across engine instances is
        sound as long as access is serialized (the fleet simulator is a
        single-threaded discrete-event loop).  The encoder is pinned:
        generation resets are disabled so sibling solvers never see their
        fragment numbering invalidated.
        """
        self._encoder = encoder
        self._session = session if session is not None else SolverSession(encoder)
        if results is not None:
            self._results = results
        self._encoder_pinned = True

    # -- batch-worker forking --------------------------------------------------

    def fork_slice(self) -> "Solver":
        """A private view for one batch worker slice; copies nothing yet.

        The twin keeps a reference to this solver and forks its encoder
        and session (:meth:`_materialize_fork`) only when one of its own
        queries falls through to bit-blasting — most slices decide every
        point in the gate or the simplifier and never do.  Nothing
        mutable is shared either way; the anchor-order merge folds the
        twin's stats and exportable learned clauses back via
        :meth:`absorb_fork`.  The batch scheduler probes only slices
        between fork and merge, so a twin forks the same clause database
        whenever it materialises.
        """
        twin = Solver(
            use_interval_precheck=self.use_interval_precheck,
            max_conflicts=self.max_conflicts,
            share_encodings=self.share_encodings,
            _fork_of=self,
        )
        twin.generation = self.generation
        return twin

    def _materialize_fork(self) -> None:
        """Fork the parent's encoder and session, on the first probe.

        The twin gets its own encoder (sharing the parent's immutable
        fragments) and its own session pre-loaded with the parent's
        clause database — including everything learned so far — so the
        probe that triggered this, and every later one, runs warm.
        """
        parent = self._fork_parent
        with parent._fork_lock:
            self._encoder = parent._encoder.fork(self.cnf_counter)
            self._session = parent._session.fork(self._encoder)
        self._fork_parent = None

    def absorb_fork(self, fork: "Solver") -> int:
        """Fold a fork's query/search stats and learned clauses back.

        Returns the number of learned clauses imported into the shared
        session (0 when the fork never materialised or its session is
        unrelated).
        """
        self.stats.absorb(fork.stats)
        if fork._session is None:
            return 0
        return self._session.absorb(fork._session)

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
