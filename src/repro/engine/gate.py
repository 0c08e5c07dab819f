"""The tiered pre-solver verdict gate: witness screening over first-match lookups.

After PR 5, every warm executability query still pays substitution +
simplification + (for the residual MAYBEs) a CDCL assumption probe, even
though the common control-plane update lands in key space disjoint from
every tainted path and changes no verdict at all.  This module answers
that common case with O(lookup) work:

**Tier 2a — witness fingerprints (the fast path).**  Whenever the slow
path decides a point is MAYBE it has, by definition, two *witnesses*: a
model making the point's expression true and a model making it false.
The gate harvests both from the solver and records, per witness, a
*fingerprint*: for every table the point is tainted by, the table's
first-match decision (the winning ``(action, args)``, or MISS) at the
witness's concrete key point — plus each dependent value set's tuple
and each dependent table's overapproximation status.  On the next update
touching the point, the gate recomputes the fingerprint against the
*current* entries (one :class:`~repro.smt.fdd.TableFdd` row scan per
dependency table).  If nothing changed, the
expression's value at both witnesses is provably unchanged — a point's
post-substitution term is a function of its taint deps' table functions
at the witness's key values — so both witnesses still stand, the verdict
is still MAYBE, and the stored verdict is returned **without touching
the substitution, the simplifier, or the solver**.

**Tier 1 — interval screen.**  When the fingerprint misses (or the point
is not MAYBE), the term is recomputed and the existing interval domain
(:mod:`repro.smt.interval`) gets the first shot; a definite answer
decides the verdict with no solver dispatch.  This is the same interval
layer :meth:`Solver.check_sat` runs internally, so the decided verdict
is identical to the ungated path's by construction.

**Tier 2b — witness evaluation.**  Still no solver: the recomputed term
is concretely evaluated under the stored witness models (missing
variables default to zero, matching how the models were harvested).  If
the positive witness still evaluates true and the negative still false,
the verdict is MAYBE — a sound, complete-procedure-identical answer for
the price of two term evaluations.  Successful harvests also feed a
small per-table **witness-model pool**, and record-less points — most
importantly hunt-retired monster value terms, which would otherwise pay
the full slow path on every re-verdict forever — *lazily* borrow pool
models as candidate witnesses: two that evaluate the term differently
are a complete certificate, so the point graduates to tier-2a screening
without ever being probe-eligible.

**Tier 3 — CDCL fallback.**  The exact probe pair the ungated path runs
(``check_sat(t)`` / ``check_sat(¬t)``), with fresh witnesses harvested
from the models.

Every tier returns precisely what the ungated path would return — tiers
1/3 *are* the ungated decision layers, and tiers 2a/2b only ever
short-circuit to MAYBE when two concrete witnesses prove MAYBE — which
is what makes ``--no-fdd-gate`` a pure ablation: byte-identical output,
different speed.

Batch workers fork the gate alongside the solver session: witness
records are a copy-on-write overlay (conflict groups partition program
points, so overlays never collide) merged back in anchor order; table
entries only change on the main thread, before workers start, and a
worker that finds a table's lookup rows stale re-derives them and
publishes the new list in one assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.smt import interval, terms as T
from repro.smt.simplify import constant_value
from repro.smt.fdd import TableFdd
from repro.smt.sat import SolverBudgetExceeded

# Re-stated here (not imported from queries) to avoid an import cycle.
ALWAYS = "always"
NEVER = "never"
MAYBE = "maybe"

#: Fingerprint component for an overapproximated dependency: while a
#: table is overapproximated its control symbols map to the stable
#: ``!any`` data vars, so its contribution to the point's term is fixed.
_OVERAPPROX = ("overapprox",)


class _ZeroDefault(dict):
    """Witness model with absent variables reading as zero.

    Solver models only assign the variables of the simplified term; key
    terms may mention variables the simplifier eliminated.  Defaulting
    them to zero is sound because the *same* completed assignment is
    used at harvest time and at every later screen — the fingerprint
    argument only needs one fixed point per witness.
    """

    def __missing__(self, key) -> int:
        return 0


@dataclass
class WitnessRecord:
    """One MAYBE point's cached verdict plus the evidence that pins it.

    ``pos_keys``/``neg_keys`` cache each dependency table's key point
    under the witness models, packed into the table's one key integer.
    Models are frozen at harvest time and key terms are fixed per table,
    so the points never change for the life of the record — caching them
    turns a screen into pure row scans (no term evaluation and no
    packing on the hot path).
    """

    verdict: object  # the frozen PointVerdict to replay
    term: object  # the simplified term the witnesses certify
    pos_model: _ZeroDefault
    neg_model: _ZeroDefault
    pos_keys: dict  # table name → packed concrete key point
    neg_keys: dict
    fp_pos: tuple
    fp_neg: tuple


class _RecordStore:
    """The main gate's witness records (plain dict semantics)."""

    def __init__(self) -> None:
        self.map: dict = {}

    def get(self, pid: str):
        return self.map.get(pid)

    def set(self, pid: str, record: WitnessRecord) -> None:
        self.map[pid] = record

    def drop(self, pid: str) -> None:
        self.map.pop(pid, None)


class _RecordOverlay:
    """A worker slice's copy-on-write view (None entries are tombstones)."""

    def __init__(self, base) -> None:
        self.base = base
        self.delta: dict = {}

    def get(self, pid: str):
        if pid in self.delta:
            return self.delta[pid]
        return self.base.get(pid)

    def set(self, pid: str, record: WitnessRecord) -> None:
        self.delta[pid] = record

    def drop(self, pid: str) -> None:
        self.delta[pid] = None


@dataclass
class GateStats:
    """Per-tier gate decision counters (the ``--stats`` surface).

    ``screened`` counts executability queries offered to the gate;
    ``witness_hits`` resolved before substitution (tier 2a),
    ``exec_cache_hits``/``interval_decided``/``witness_evals`` resolved
    after substitution but before the solver (tiers 0/1/2b), and
    ``solver_fallbacks`` reached the probe pair (tier 3).  ``fdd_rebuilds``
    counts lazy re-packs of a table's lookup rows; ``fdd_fast_inserts``
    always reads 0 (there is no second maintenance path) and stays only
    because ``benchmarks/e2e`` indexes it — ROADMAP item 1(b) removes it.
    """

    screened: int = 0
    witness_hits: int = 0
    exec_cache_hits: int = 0
    interval_decided: int = 0
    witness_evals: int = 0
    solver_fallbacks: int = 0
    budget_maybes: int = 0
    harvested: int = 0
    lazy_harvests: int = 0
    table_verdict_hits: int = 0
    table_verdict_misses: int = 0
    fdd_fast_inserts: int = 0
    fdd_rebuilds: int = 0

    @property
    def solver_free(self) -> int:
        """Queries resolved without dispatching the probe pair."""
        return (
            self.witness_hits
            + self.exec_cache_hits
            + self.interval_decided
            + self.witness_evals
        )

    def snapshot(self) -> "GateStats":
        return GateStats(**{f: getattr(self, f) for f in _FIELDS})

    def since(self, baseline: "GateStats") -> "GateStats":
        return GateStats(
            **{f: getattr(self, f) - getattr(baseline, f) for f in _FIELDS}
        )

    def absorb(self, other: "GateStats") -> None:
        for f in _FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def describe(self) -> str:
        screened = self.screened or 1
        lines = [
            (
                f"screens: {self.screened} "
                f"(witness {self.witness_hits}, cached {self.exec_cache_hits}, "
                f"interval {self.interval_decided}, eval {self.witness_evals}, "
                f"solver {self.solver_fallbacks})"
            ),
            (
                f"solver-free: {self.solver_free} "
                f"({100.0 * self.solver_free / screened:.1f}% of screens), "
                f"{self.harvested} witnesses harvested "
                f"(+{self.lazy_harvests} lazy from the 2b pool), "
                f"{self.budget_maybes} budget punts"
            ),
            (
                f"table verdicts: {self.table_verdict_hits} memo hits, "
                f"{self.table_verdict_misses} misses"
            ),
            f"fdd: {self.fdd_rebuilds} lookup-row re-packs",
        ]
        return "\n".join(lines)


_FIELDS = tuple(GateStats.__dataclass_fields__)


class VerdictGate:
    """Owns the per-table lookup rows and the per-point witness records."""

    def __init__(self, model, state, threshold: Optional[int]) -> None:
        self.model = model
        self.state = state
        self.threshold = threshold
        self.stats = GateStats()
        self._records = _RecordStore()
        # Attach a first-match lookup index to every table's state; it
        # follows the state's revision from here on.
        for table_state in state.tables.values():
            table_state.fdd = TableFdd()
        # Per-point taint dependencies: which tables / value sets can
        # change this executability point's post-substitution term.
        owner: dict = {}
        for name, info in model.tables.items():
            for var in info.control_var_names():
                owner[var] = (True, name)
        for name, info in model.value_sets.items():
            for var in info.control_var_names():
                owner[var] = (False, name)
        # Per-point consecutive distinguishing-witness hunt failures.  A
        # point whose term is too big to probe (or genuinely near-constant)
        # fails the hunt identically on every re-verdict; after a few
        # strikes the gate stops paying for the attempt.  Purely a speed
        # decision — record absence never changes a verdict.
        self._hunt_failures: dict = {}
        # The tier-2b witness-model pool: per dependency table, a few
        # harvested witness models keyed by that table's packed key point
        # under the model (distinct points = distinct match points, which
        # is the diversity that distinguishes value terms the fixed probe
        # patterns cannot).  Record-less points — hunt-retired monsters
        # included — borrow these as candidate witnesses; one successful
        # borrow turns every later re-verdict into a tier-2a screen.
        self._pool: dict = {}
        self._pool_version = 0
        # pid → (pool version, dep revisions) at the last failed borrow:
        # a point retries at most once per pool growth or table change,
        # so saturated pools and quiet tables cost nothing.  A few total
        # failures retire the point from lazy attempts for good.
        self._lazy_attempts: dict = {}
        self._lazy_failures: dict = {}
        # table name → revision of the last solver-assisted pool seeding.
        self._seed_attempts: dict = {}
        self._deps: dict = {}
        for pid, point in model.points.items():
            tables: set = set()
            value_sets: set = set()
            for var in point.control_vars():
                entry = owner.get(var)
                if entry is None:
                    continue
                (tables if entry[0] else value_sets).add(entry[1])
            self._deps[pid] = (tuple(sorted(tables)), tuple(sorted(value_sets)))

    # -- fingerprints ---------------------------------------------------------

    def _key_point(self, name: str, model: _ZeroDefault) -> int:
        """Table ``name``'s packed key point under one witness model."""
        info = self.model.tables[name]
        return self.state.tables[name].pack_point(
            T.evaluate(k.term, model) for k in info.keys
        )

    def _key_points(self, pid: str, model: _ZeroDefault) -> dict:
        """Each dependency table's key point under one witness model.

        Computed once per record (term evaluation is the expensive part
        of a fingerprint); screens replay the cached points.
        """
        return {name: self._key_point(name, model) for name in self._deps[pid][0]}

    def _fingerprint(self, pid: str, points_by_table: dict) -> tuple:
        """The point's dependency state as seen from one witness model:
        per dependency table its first-match decision at the witness's
        key point (or the overapproximation marker), then each dependency
        value set's tuple."""
        dep_tables, dep_value_sets = self._deps[pid]
        components: list = []
        for name in dep_tables:
            table_state = self.state.tables[name]
            if self.threshold is not None and len(table_state) > self.threshold:
                components.append(_OVERAPPROX)
                continue
            components.append(
                table_state.fdd.lookup(points_by_table[name], table_state)
            )
        for name in dep_value_sets:
            components.append(self.state.value_sets[name])
        return tuple(components)

    # -- the tiers ------------------------------------------------------------

    def screen(self, point):
        """Tier 2a: replay the stored verdict iff both fingerprints hold.

        Returns the frozen :class:`PointVerdict` on a hit, else None (and
        the caller recomputes the term and calls :meth:`decide`).
        """
        self.stats.screened += 1
        record = self._records.get(point.pid)
        if record is None:
            return None
        if self._fingerprint(point.pid, record.pos_keys) != record.fp_pos:
            return None
        if self._fingerprint(point.pid, record.neg_keys) != record.fp_neg:
            return None
        self.stats.witness_hits += 1
        return record.verdict

    def decide(self, point, term, query_engine) -> str:
        """Tiers 0/1/2b/3 over the recomputed term.

        Mirrors ``QueryEngine._executability`` exactly — same trivial
        cases, same cache, same node budget, same probe pair with the
        same budget handling — with the interval screen and witness
        evaluation inserted between the cache and the solver.  Every
        inserted tier returns what the probe pair would have returned.
        """
        pid = point.pid
        if term is T.TRUE:
            self._records.drop(pid)
            return ALWAYS
        if term is T.FALSE:
            self._records.drop(pid)
            return NEVER
        cached = query_engine._exec_cache.get(term)
        if cached is not None:
            query_engine.exec_counter.hit()
            self.stats.exec_cache_hits += 1
            self._revalidate(point, term, cached, query_engine)
            return cached
        query_engine.exec_counter.miss()
        if (
            not query_engine.use_solver
            or T.tree_size(term) > query_engine.solver_node_budget
        ):
            query_engine._exec_cache[term] = MAYBE
            self._revalidate(point, term, MAYBE, query_engine)
            return MAYBE
        # Tier 1: the interval domain.  DEFINITELY_FALSE means no model
        # exists (NEVER); DEFINITELY_TRUE means no countermodel exists
        # (ALWAYS) — the same two facts the solver's internal interval
        # precheck would have derived, minus the dispatch.
        abstract = interval.eval_bool(term)
        if abstract == interval.DEFINITELY_FALSE:
            self.stats.interval_decided += 1
            query_engine._exec_cache[term] = NEVER
            self._records.drop(pid)
            return NEVER
        if abstract == interval.DEFINITELY_TRUE:
            self.stats.interval_decided += 1
            query_engine._exec_cache[term] = ALWAYS
            self._records.drop(pid)
            return ALWAYS
        # Tier 2b: concrete evaluation under the stored witnesses.
        record = self._records.get(pid)
        if (
            record is not None
            and T.evaluate(term, record.pos_model) == 1
            and T.evaluate(term, record.neg_model) == 0
        ):
            self.stats.witness_evals += 1
            query_engine._exec_cache[term] = MAYBE
            self._store(
                point, term, record.verdict,
                record.pos_model, record.neg_model,
                pos_keys=record.pos_keys, neg_keys=record.neg_keys,
            )
            return MAYBE
        # Tier 3: the ungated probe pair, with witness harvesting.
        self.stats.solver_fallbacks += 1
        solver = query_engine.solver
        try:
            positive = solver.check_sat(term)
            if not positive.satisfiable:
                verdict = NEVER
            else:
                negative = solver.check_sat(T.bool_not(term))
                verdict = MAYBE if negative.satisfiable else ALWAYS
        except SolverBudgetExceeded:
            # Same contract as the ungated path: MAYBE, not memoized.
            self.stats.budget_maybes += 1
            self._records.drop(pid)
            # A lazy pair is still sound evidence here: term true under
            # one model and false under another *proves* MAYBE exactly,
            # which is the verdict the ungated retry would re-derive.
            self._lazy_harvest(point, term, MAYBE, query_engine)
            return MAYBE
        query_engine._exec_cache[term] = verdict
        if verdict == MAYBE and positive.model is not None and negative.model is not None:
            from repro.engine.queries import PointVerdict

            frozen = PointVerdict(pid, point.kind, executability=MAYBE)
            self._store(
                point,
                term,
                frozen,
                _ZeroDefault(positive.model),
                _ZeroDefault(negative.model),
            )
            self.stats.harvested += 1
        else:
            self._records.drop(pid)
        return verdict

    def decide_constant(self, point, term, query_engine):
        """Constant-kind verdict (assignments, args) with witness caching.

        Non-constant-ness is existentially witnessed just like MAYBE: two
        models under which the term evaluates *differently* prove
        ``is_constant=False``, and a fingerprint hit proves the current
        term still takes those two distinct values (the term's value at a
        witness is a function of the dependency state the fingerprint
        pins).  ``constant_value`` is syntactic, so the replayed verdict
        is exactly what the ungated path would compute: a semantically
        non-constant term can never be a literal constant.
        """
        from repro.engine.queries import PointVerdict

        pid = point.pid
        value = constant_value(term)
        verdict = PointVerdict(
            pid, point.kind, constant=value, is_constant=value is not None
        )
        if value is not None:
            # "Is a constant" is a global property; witnesses cannot
            # certify it, so constant points always recompute.
            self._records.drop(pid)
            return verdict
        record = self._records.get(pid)
        if record is not None:
            if T.evaluate(term, record.pos_model) != T.evaluate(
                term, record.neg_model
            ):
                self.stats.witness_evals += 1
                self._store(
                    point, term, verdict,
                    record.pos_model, record.neg_model,
                    pos_keys=record.pos_keys, neg_keys=record.neg_keys,
                )
                return verdict
            self._records.drop(pid)
        if self._hunt_failures.get(pid, 0) >= self.HUNT_RETRY_LIMIT:
            # Hunt-retired (typically a monster term past the size cap).
            # The 2b pool is the retirement plan: borrow harvested
            # witness models from this point's dependency tables and
            # look for two that evaluate the term differently.
            pair = self._pool_pair(pid, term, boolean=False, query_engine=query_engine)
            if pair is not None:
                self._store(point, term, verdict, pair[0], pair[1])
                self.stats.lazy_harvests += 1
            return verdict
        pair = self._distinguishing_pair(term, query_engine)
        if pair is None:
            pair = self._pool_pair(pid, term, boolean=False, query_engine=query_engine)
            if pair is not None:
                self._store(point, term, verdict, pair[0], pair[1])
                self.stats.lazy_harvests += 1
                return verdict
            self._hunt_failures[pid] = self._hunt_failures.get(pid, 0) + 1
            self._records.drop(pid)
        else:
            self._hunt_failures.pop(pid, None)
            self._store(point, term, verdict, pair[0], pair[1])
            self.stats.harvested += 1
        return verdict

    #: Consecutive failed hunts after which a point stops being probed.
    HUNT_RETRY_LIMIT = 3
    #: Witness models kept per dependency table in the 2b pool.
    POOL_LIMIT = 8
    #: Term evaluations allowed per lazy-harvest attempt.  Together with
    #: the once-per-pool-growth retry gate this bounds what a borrow can
    #: cost a verdict that would otherwise pay the full slow path anyway.
    LAZY_EVAL_LIMIT = 8
    #: Total failed lazy attempts after which a point stops borrowing.
    LAZY_RETRY_LIMIT = 8

    def _feed_pool(self, points_by_table: dict, model: _ZeroDefault) -> None:
        """Stash a harvested witness model in each dependency table's pool."""
        for name, key_point in points_by_table.items():
            bucket = self._pool.get(name)
            if bucket is None:
                bucket = self._pool[name] = {}
            if key_point not in bucket and len(bucket) < self.POOL_LIMIT:
                bucket[key_point] = model
                self._pool_version += 1

    def _pool_pair(self, pid: str, term, boolean: bool, query_engine):
        """Borrow two distinguishing witness models for a record-less point.

        Candidates are the harvested models in the point's dependency
        tables' 2b pool buckets, after topping up sparse buckets with
        *entry-directed* seeds (:meth:`_seed_pool`).  ``boolean`` asks
        for a (true-model, false-model) pair in that order
        (executability points); otherwise any two models with distinct
        evaluations do (constant-kind points).  On failure the attempt
        signature (pool version + dependency-table revisions) is
        remembered so the point retries only once per pool growth or
        table change, and a few total failures retire the point from
        lazy attempts outright.
        """
        dep_tables = self._deps[pid][0]
        if self._lazy_failures.get(pid, 0) >= self.LAZY_RETRY_LIMIT:
            return None
        signature = (
            self._pool_version,
            tuple(self.state.tables[name].revision() for name in dep_tables),
        )
        if self._lazy_attempts.get(pid) == signature:
            return None
        candidates: list = []
        candidate_ids: set = set()
        for name in dep_tables:
            self._seed_pool(name, query_engine)
            bucket = self._pool.get(name)
            if not bucket:
                continue
            for model in bucket.values():
                if id(model) not in candidate_ids:
                    candidate_ids.add(id(model))
                    candidates.append(model)
        seen: dict = {}
        for model in candidates[: self.LAZY_EVAL_LIMIT]:
            value = T.evaluate(term, model)
            for prior_value, prior_model in seen.items():
                if prior_value != value:
                    if not boolean:
                        return prior_model, model
                    if value == 0:
                        return prior_model, model
                    return model, prior_model
            seen.setdefault(value, model)
        self._lazy_attempts[pid] = (
            self._pool_version,
            tuple(self.state.tables[name].revision() for name in dep_tables),
        )
        self._lazy_failures[pid] = self._lazy_failures.get(pid, 0) + 1
        return None

    #: Entry-directed seed queries per table per content change.
    SEED_ENTRY_LIMIT = 3

    def _seed_pool(self, name: str, query_engine) -> None:
        """Top up a sparse pool bucket with entry-directed witness models.

        Harvested solver models rarely exercise a table whose key is a
        computed expression (unconstrained variables zero-default, so
        every model reads the same key value).  When a bucket has fewer
        than two distinct key points, ask the solver for models steering
        the key *into an active entry's region* (``key == masked value``
        — a query over the key terms only, far smaller than any point
        term).  Any model is a sound witness candidate, so failed or
        budget-capped queries just leave the bucket sparse.
        """
        state = self.state.tables[name]
        revision = state.revision()
        if self._seed_attempts.get(name) == revision:
            return
        self._seed_attempts[name] = revision
        bucket = self._pool.get(name)
        if bucket is None:
            bucket = self._pool[name] = {}
        if len(bucket) >= 2 or not query_engine.use_solver:
            return
        info = self.model.tables[name]
        key_terms = [k.term for k in info.keys]
        widths = info.key_widths()
        if (
            sum(T.tree_size(t) for t in key_terms)
            > self.HUNT_SIZE_FACTOR * query_engine.solver_node_budget
        ):
            return
        for _entry, value, _mask in state.active_rows()[: self.SEED_ENTRY_LIMIT]:
            if len(bucket) >= self.POOL_LIMIT:
                break
            # The row's packed value is the entry's masked match value:
            # a key point inside its region.
            if value in bucket:
                continue
            target = T.bool_and(
                *[
                    T.eq(k_term, T.bv_const(key_value, width))
                    for k_term, key_value, width in zip(
                        key_terms, state.unpack_point(value), widths
                    )
                ]
            )
            try:
                result = query_engine.solver.check_sat(target)
            except SolverBudgetExceeded:
                continue
            if not result.satisfiable or result.model is None:
                continue
            model = _ZeroDefault(result.model)
            key_point = self._key_point(name, model)
            if key_point not in bucket:
                bucket[key_point] = model
                self._pool_version += 1

    #: Hunt-eligibility cap, as a multiple of the solver node budget.
    #: Well above the solver's own budget (the probe patterns are one
    #: evaluation each, not a search) but low enough that the hunt never
    #: dominates a warm pass.
    HUNT_SIZE_FACTOR = 64

    #: Deterministic probe patterns for distinguishing-witness harvest:
    #: all-zeros, all-ones, and the two alternating-bit masks.
    _PROBE_PATTERNS = (0, -1, 0xAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA,
                       0x55555555555555555555555555555555)

    def _distinguishing_pair(self, term, query_engine):
        """Two models with different evaluations, or None.

        Fixed probe assignments first (free); if they all agree — random
        match keys rarely cover the probe points — one solver query finds
        a model disagreeing with the all-zeros evaluation.  The solver is
        only hunting witnesses here, never deciding the verdict, so a
        budget blow-up or UNSAT simply means "no record" — the replayed
        output is unaffected.
        """
        if (
            T.tree_size(term)
            > self.HUNT_SIZE_FACTOR * query_engine.solver_node_budget
        ):
            # Probe evaluation walks the whole term; on monster terms the
            # hunt costs more than the replays it could ever save.
            return None
        term_vars = T.variables(term)
        if not term_vars:
            return None
        seen: dict = {}
        for pattern in self._PROBE_PATTERNS:
            model = _ZeroDefault(
                {
                    v.name: pattern & ((1 << (v.width if v.is_bv else 1)) - 1)
                    for v in term_vars
                }
            )
            value = T.evaluate(term, model)
            for prior_value, prior_model in seen.items():
                if prior_value != value:
                    return prior_model, model
            seen.setdefault(value, model)
        if (
            not query_engine.use_solver
            or T.tree_size(term) > query_engine.solver_node_budget
        ):
            return None
        (base_value, base_model), = list(seen.items())[:1]
        if term.is_bool:
            target = term if base_value == 0 else T.bool_not(term)
        else:
            target = T.bool_not(T.eq(term, T.bv_const(base_value, term.width)))
        try:
            result = query_engine.solver.check_sat(target)
        except SolverBudgetExceeded:
            return None
        if not result.satisfiable or result.model is None:
            return None
        return base_model, _ZeroDefault(result.model)

    # -- record maintenance ---------------------------------------------------

    def _revalidate(self, point, term, verdict: str, query_engine=None) -> None:
        """Refresh (or discard) the record after a non-witness decision."""
        pid = point.pid
        if verdict != MAYBE:
            self._records.drop(pid)
            return
        record = self._records.get(pid)
        if record is None:
            # Record-less MAYBE (over-budget term or a cached MAYBE that
            # never had witnesses): try to build one from the 2b pool so
            # the next re-verdict screens instead of re-substituting.
            if query_engine is not None:
                self._lazy_harvest(point, term, verdict, query_engine)
            return
        if record.term is not term and not (
            T.evaluate(term, record.pos_model) == 1
            and T.evaluate(term, record.neg_model) == 0
        ):
            self._records.drop(pid)
            return
        self._store(
            point, term, record.verdict,
            record.pos_model, record.neg_model,
            pos_keys=record.pos_keys, neg_keys=record.neg_keys,
        )

    def _lazy_harvest(self, point, term, verdict: str, query_engine) -> None:
        """Tier-2b pool harvest for a record-less MAYBE executability
        point.  A (true-model, false-model) pair from the pool is a full
        MAYBE certificate, so the stored verdict replays exactly what
        the ungated path would recompute."""
        if verdict != MAYBE or not term.is_bool:
            return
        pair = self._pool_pair(point.pid, term, boolean=True, query_engine=query_engine)
        if pair is None:
            return
        from repro.engine.queries import PointVerdict

        frozen = PointVerdict(point.pid, point.kind, executability=MAYBE)
        self._store(point, term, frozen, pair[0], pair[1])
        self.stats.lazy_harvests += 1

    def _store(
        self, point, term, verdict, pos_model, neg_model,
        pos_keys=None, neg_keys=None,
    ) -> None:
        pid = point.pid
        if pos_keys is None:
            pos_keys = self._key_points(pid, pos_model)
        if neg_keys is None:
            neg_keys = self._key_points(pid, neg_model)
        self._records.set(
            pid,
            WitnessRecord(
                verdict=verdict,
                term=term,
                pos_model=pos_model,
                neg_model=neg_model,
                pos_keys=pos_keys,
                neg_keys=neg_keys,
                fp_pos=self._fingerprint(pid, pos_keys),
                fp_neg=self._fingerprint(pid, neg_keys),
            ),
        )
        self._feed_pool(pos_keys, pos_model)
        self._feed_pool(neg_keys, neg_model)

    # -- stats ----------------------------------------------------------------

    def snapshot(self) -> GateStats:
        """Gate counters plus the lookup indexes' re-pack counts."""
        stats = self.stats.snapshot()
        for table_state in self.state.tables.values():
            stats.fdd_rebuilds += table_state.fdd.rebuilds
        return stats

    # -- batch-worker forking -------------------------------------------------

    def fork_slice(self) -> "VerdictGate":
        """A worker's view: shared lookup rows, overlaid witness records.

        Safe because the scheduler mutates all table state on the main
        thread before workers start (a worker's lazy re-pack derives the
        same rows any other would), and conflict groups partition program
        points, so no two slices touch the same record.
        """
        fork = VerdictGate.__new__(VerdictGate)
        fork.model = self.model
        fork.state = self.state
        fork.threshold = self.threshold
        fork.stats = GateStats()
        fork._records = _RecordOverlay(self._records)
        # Shared outright (no overlay): each pid is only ever touched by
        # the one worker owning its conflict group, and the counter only
        # steers hunt effort, never a verdict.
        fork._hunt_failures = self._hunt_failures
        fork._lazy_attempts = self._lazy_attempts
        fork._lazy_failures = self._lazy_failures
        # The 2b pool is copied, not shared: workers feed it while other
        # workers iterate buckets, and a shared dict would race.  Worker
        # contributions are deliberately not merged back — the pool only
        # steers lazy-harvest effort, never a verdict.  Seed attempts are
        # copied for the same reason: a worker marking a table as seeded
        # must not stop the main gate from seeding its own bucket.
        fork._pool = {name: dict(bucket) for name, bucket in self._pool.items()}
        fork._pool_version = self._pool_version
        fork._seed_attempts = dict(self._seed_attempts)
        fork._deps = self._deps
        return fork

    def absorb_fork(self, fork: "VerdictGate") -> int:
        """Fold a slice's record delta and counters back (anchor order)."""
        self.stats.absorb(fork.stats)
        grafted = 0
        for pid, record in fork._records.delta.items():
            if record is None:
                self._records.drop(pid)
            else:
                self._records.set(pid, record)
                grafted += 1
        return grafted

    # -- warm-state snapshot --------------------------------------------------

    def export_records(self, arena) -> list:
        """Every witness record as a picklable ``(pid, blob)`` pair — the
        gate's contribution to an engine warm-state snapshot.

        Witness terms ride in ``arena``
        (a :class:`~repro.smt.arena.TermArena`); fingerprints and packed
        key points are plain tuples and integers, compared by value, so
        they ride as they are.
        """
        exported: list = []
        for pid, record in self._records.map.items():
            exported.append(
                (
                    pid,
                    {
                        "verdict": record.verdict,
                        "term": arena.encode(record.term),
                        "pos_model": dict(record.pos_model),
                        "neg_model": dict(record.neg_model),
                        "pos_keys": record.pos_keys,
                        "neg_keys": record.neg_keys,
                        "fp_pos": record.fp_pos,
                        "fp_neg": record.fp_neg,
                    },
                )
            )
        return exported

    def restore_records(
        self, arena, records: list, hunt_failures: Optional[dict] = None
    ) -> int:
        """Rebuild the record map from a snapshot blob.

        Precondition: ``self.state`` already replays the snapshotted
        control plane, so the first screen after restore looks the stored
        key points up in the same entries and the fingerprints hold.
        """
        self._records.map.clear()
        restored = 0
        for pid, blob in records:
            if blob is None:
                continue
            record = WitnessRecord(
                verdict=blob["verdict"],
                term=arena.decode(blob["term"]),
                pos_model=_ZeroDefault(blob["pos_model"]),
                neg_model=_ZeroDefault(blob["neg_model"]),
                pos_keys=blob["pos_keys"],
                neg_keys=blob["neg_keys"],
                fp_pos=blob["fp_pos"],
                fp_neg=blob["fp_neg"],
            )
            self._records.set(pid, record)
            # Re-seed the 2b pool so record-less points keep their lazy
            # harvest chances across a snapshot round-trip.
            self._feed_pool(record.pos_keys, record.pos_model)
            self._feed_pool(record.neg_keys, record.neg_model)
            restored += 1
        if hunt_failures is not None:
            self._hunt_failures = dict(hunt_failures)
        return restored


__all__ = [
    "GateStats",
    "VerdictGate",
    "WitnessRecord",
]
