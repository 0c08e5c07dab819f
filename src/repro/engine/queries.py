"""Specialization queries and their verdicts.

Flay asks two kinds of queries over the substituted data-plane expressions
(§4.1): *executability* ("is this piece of code executable?") for boolean
points (if-conditions, parser select guards) and *constancy* ("can this
variable be replaced by a constant?") for value points (assignments,
post-table snapshots).  Tables additionally get a structural
:class:`TableVerdict` (feasible actions, hit behaviour, constant action
data, effective match kinds).

Verdicts — not raw terms — are the unit of comparison in the incremental
pipeline: a control-plane update requires recompilation iff some verdict
changes, because the specialized implementation is a pure function of the
verdicts.  A point verdict is a function of the point's pulled term, so
the warm path re-verdicts only the points whose term moved
(:meth:`QueryEngine.reverdict_points`); a precise table verdict is one
pass over the table's active rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.analysis.model import (
    DataPlaneModel,
    KIND_IF,
    KIND_SELECT,
    ProgramPoint,
    TableInfo,
)
from repro.engine.context import generation_attributes
from repro.ir.metrics import CacheCounter
from repro.runtime.semantics import TableAssignment, TableState
from repro.smt import Solver, Substitution, terms as T
from repro.smt.sat import SolverBudgetExceeded
from repro.smt.simplify import constant_value, simplify
from repro.smt.terms import Term

#: What :meth:`QueryEngine.forget` empties.
_GENERATION = generation_attributes("query_engine")

# Executability outcomes.
ALWAYS = "always"
NEVER = "never"
MAYBE = "maybe"


@dataclass(frozen=True)
class PointVerdict:
    """Result of the specialization query at one program point."""

    pid: str
    kind: str
    # Executability points: ALWAYS / NEVER / MAYBE.
    executability: Optional[str] = None
    # Value points: the constant, or None when data-dependent.
    constant: Optional[int] = None
    is_constant: bool = False

    def same_specialization(self, other: "PointVerdict") -> bool:
        """Would this verdict lead to the same specialized code as ``other``?"""
        return (
            self.executability == other.executability
            and self.is_constant == other.is_constant
            and self.constant == other.constant
        )


@dataclass(frozen=True)
class TableVerdict:
    """Structural summary of one table under the current entries."""

    table: str
    feasible_actions: frozenset
    hit: str  # ALWAYS / NEVER / MAYBE
    # ((action, param) → constant or None), sorted for comparability.
    const_params: tuple
    # Effective match kind per key after narrowing ("exact"/"ternary"/"lpm").
    match_plan: tuple
    entry_count: int
    overapproximated: bool

    def with_entry_count(self, entry_count: int) -> "TableVerdict":
        """This verdict at another ``entry_count``, the one field every
        insert and delete moves."""
        return TableVerdict(
            self.table,
            self.feasible_actions,
            self.hit,
            self.const_params,
            self.match_plan,
            entry_count,
            self.overapproximated,
        )

    def same_specialization(self, other: "TableVerdict") -> bool:
        return (
            self.feasible_actions == other.feasible_actions
            and self.hit == other.hit
            and self.const_params == other.const_params
            and self.match_plan == other.match_plan
        )


class Executability(NamedTuple):
    """What :meth:`QueryEngine._executability` found, and how it got there."""

    verdict: str  # ALWAYS / NEVER / MAYBE
    # "trivial" (a boolean constant), "cached" (exec-cache hit), "punted"
    # (solver off or term over the node budget), "probed" (the probe pair
    # answered) or "budget" (the probe pair ran out of conflicts).
    how: str
    # The probe pair's (positive, negative) models when it found both.
    models: Optional[tuple] = None


class PointReverdicts(NamedTuple):
    """What one :meth:`QueryEngine.reverdict_points` sweep did."""

    changed: list  # pids whose specialization changed, in pid order
    affected: int  # points tainted by a changed symbol
    redecided: int  # visited points decided afresh from a new term
    unchanged: int  # tainted points on the identical term (most never visited)


class QueryEngine:
    """Evaluates specialization queries against a substitution."""

    #: Default conflict budget for the CDCL search inside a query.  The
    #: update path must stay inside Flay's ~100 ms envelope, so queries
    #: that would need real search fall back to MAYBE instead.
    DEFAULT_MAX_CONFLICTS = 20_000

    def __init__(
        self,
        model: DataPlaneModel,
        solver: Optional[Solver] = None,
        solver_node_budget: int = 400,
        gate=None,
    ) -> None:
        self.model = model
        if solver is None:
            solver = Solver(max_conflicts=self.DEFAULT_MAX_CONFLICTS)
        self.solver = solver
        self.solver_node_budget = solver_node_budget
        # The engine's witness gate (engine/gate.py): executability
        # queries replay a stored MAYBE before substitution when both of
        # its witnesses' fingerprints still hold.  A bare
        # ``QueryEngine(model)`` has none and decides every point from its
        # term — the specification the differential tests compare the
        # engine with.  Constancy queries never reach the gate.
        self.gate = gate
        # Cross-update caches (each one a row of
        # :data:`~repro.engine.context.WARM_STATE`).  They are pure:
        # post-substitution terms are hash-consed and a verdict is a
        # function of the term alone (any residual control symbols —
        # single-pass substitution leaves upstream tables' symbols inside
        # replacement terms — are treated as free variables, consistently),
        # so a verdict, simplified form or tree size computed once is
        # correct for as long as the term lives.  The ``generation`` rows
        # among them are emptied by :meth:`forget` at every term
        # collection.
        self.exec_counter = CacheCounter("executability")
        self._exec_cache: dict[Term, str] = {}
        self._simplify_memo: dict[int, Term] = {}
        self._tree_sizes: dict[Term, int] = {}  # for the node-budget punt
        # pid → (the simplified term the point's current verdict was decided
        # from, that verdict).  A pull that returns the same interned term
        # returns the verdict with it, by the invariant above.  The term is
        # None after the one verdict that is not a function of the term, an
        # un-memoized budget-MAYBE, which is therefore always re-decided.
        self._decided: dict[str, tuple] = {}
        # The pids a sweep visits when a changed symbol taints them, whether
        # or not their term moved: each un-memoized budget-MAYBE, and each
        # point whose verdict was installed without its root ever being
        # pulled (:meth:`pend_unpulled`).  Every other point's installed
        # verdict is its current memo term's.
        self._pending: set[str] = set()
        # Point expression → the pids rooted at it (program-pure): how a
        # sweep finds the points above the substitution's moved nodes.  (A
        # solver-only engine is built without a model.)
        self._roots: dict[Term, list] = {}
        for pid, point in getattr(model, "points", {}).items():
            self._roots.setdefault(point.expr, []).append(pid)
        self.redecided = 0  # point verdicts decided from a (new) term
        self.unchanged = 0  # point verdicts kept on the identical term
        # Hits are overapproximated verdicts handed out again; every
        # precise verdict is computed (a miss).
        self.table_verdict_counter = CacheCounter("table-verdict")
        # Table name → its overapproximated verdict, a function of the
        # table's shape alone (``entry_count`` aside): built the first time
        # the table is overapproximated, then patched.
        self._overapproximated: dict[str, TableVerdict] = {}
        # ``_possible_values`` memo, id-keyed over interned selector terms
        # (sound until the next collection, which has it forgotten first).
        self._values_memo: dict[int, Optional[set]] = {}
        T.DEFAULT_FACTORY.register(self)

    def forget(self) -> None:
        """Empty this engine's ``generation`` rows of
        :data:`~repro.engine.context.WARM_STATE` (the solver forgets its
        own).  Called by :meth:`~repro.smt.terms.TermFactory.collect`;
        on a burst slice it drops the overlays only."""
        for name in _GENERATION:
            getattr(self, name).clear()

    @property
    def simplify_memo(self) -> dict[int, Term]:
        """Engine-persistent simplify memo (id-keyed over interned terms)."""
        return self._simplify_memo

    # -- per-point queries ----------------------------------------------------

    def point_verdict(
        self,
        point: ProgramPoint,
        substitution,
        memo: Optional[dict[int, Term]] = None,
    ) -> PointVerdict:
        """The verdict at ``point`` under ``substitution``.

        ``substitution`` is the engine's
        :class:`~repro.smt.substitute.DeltaSubstitution` (or a burst's
        slice of it), whose ``apply`` already simplifies, or a one-shot
        :class:`~repro.smt.substitute.Substitution`, whose result is
        simplified here through ``memo``.
        """
        executable = point.kind in (KIND_IF, KIND_SELECT)
        # Only an executability verdict can cost a solver call, so only
        # those points go through the gate; a value point's verdict is the
        # syntactic check below, gated or not.
        gate = self.gate if executable else None
        if gate is not None:
            # A fingerprint hit skips substitution, simplification, and the
            # solver outright — the stored verdict is replayed.
            verdict = gate.screen(point)
            if verdict is not None:
                return verdict
        term = substitution.apply(point.expr)
        if isinstance(substitution, Substitution):
            term = simplify(term, memo=self._simplify_memo if memo is None else memo)
        decided = self._decided.get(point.pid)
        if decided is not None and decided[0] is term:
            self.unchanged += 1
            return decided[1]
        self.redecided += 1
        if executable:
            if gate is not None:
                executability = gate.decide(point, term, self)
            else:
                executability = self._executability(term).verdict
            verdict = PointVerdict(point.pid, point.kind, executability=executability)
            if executability == MAYBE and term not in self._exec_cache:
                term = None  # budget-MAYBE: retry on the next change
        else:
            value = constant_value(term)
            verdict = PointVerdict(
                point.pid, point.kind, constant=value, is_constant=value is not None
            )
        self._decided[point.pid] = (term, verdict)
        if term is None:
            self._pending.add(point.pid)
        else:
            self._pending.discard(point.pid)
        return verdict

    def _executability(self, term: Term) -> Executability:
        """Decide a simplified guard: the one statement of the procedure.

        Trivial cases, the exec cache, the node-budget punt (a budget of
        0 punts every term) and the probe pair ``check_sat(t)`` /
        ``check_sat(¬t)`` (:meth:`~repro.smt.solver.Solver.probe_pair`:
        both halves share one throw-away encoding).  The gate's
        ``decide`` is this call plus witness-record upkeep.
        """
        if term is T.TRUE:
            return Executability(ALWAYS, "trivial")
        if term is T.FALSE:
            return Executability(NEVER, "trivial")
        cached = self._exec_cache.get(term)
        if cached is not None:
            self.exec_counter.hit()
            return Executability(cached, "cached")
        self.exec_counter.miss()
        if T.tree_size(term, self._tree_sizes) > self.solver_node_budget:
            self._exec_cache[term] = MAYBE
            return Executability(MAYBE, "punted")
        # MAYBE is always a sound answer; a blown decision budget simply
        # means "keep the general implementation".  Budget blow-ups are the
        # one outcome we do not memoize: a later engine configuration change
        # (or solver cache warm-up) may let the same query finish.
        try:
            positive, negative = self.solver.probe_pair(term)
        except SolverBudgetExceeded:
            return Executability(MAYBE, "budget")
        if not positive.satisfiable:
            found = Executability(NEVER, "probed")
        elif not negative.satisfiable:
            found = Executability(ALWAYS, "probed")
        else:
            models = (positive.model, negative.model)
            found = Executability(MAYBE, "probed", models)
        self._exec_cache[term] = found.verdict
        return found

    # -- re-verdicts (the warm path) ------------------------------------------------

    def reverdict_points(
        self, changed_vars, substitution, current: dict
    ) -> PointReverdicts:
        """Re-verdict the points whose pulled term moved, into ``current``.

        A point is visited when its expression is among the memoised nodes
        whose result moved (``substitution.moved``, which the caller
        empties once this returns), or when a symbol in ``changed_vars``
        (what ``set_many`` reported) taints it and it is pending: an
        un-memoized budget-``MAYBE``, the one verdict that is not a
        function of the term, or a verdict installed without a pull.
        Every other tainted point keeps its verdict without a screen, a
        pull or a lookup: hash-consing makes its identical term the one
        the verdict was decided from (see the invariant in ``__init__``).
        A visited point whose pulled term is still that object keeps its
        verdict too (:meth:`point_verdict`).  Points visited in a sweep
        that raises are put back on the pending set.

        Visits run in pid order; ``changed`` lists the pids whose
        specialization moved against ``current``.
        """
        tainted = self.model.points_for_control_vars(changed_vars)
        roots = self._roots
        visit: set = set()
        for node in roots.keys() & substitution.moved:
            visit.update(roots[node])
        pending = self._pending
        if pending:
            visit |= pending & tainted
        points = self.model.points
        redecided, unchanged = self.redecided, self.unchanged
        changed: list = []
        try:
            for pid in sorted(visit):
                verdict = self.point_verdict(points[pid], substitution)
                if not verdict.same_specialization(current[pid]):
                    changed.append(pid)
                current[pid] = verdict
        except BaseException:
            pending |= visit
            raise
        unvisited = len(tainted) - len(tainted & visit)
        return PointReverdicts(
            changed,
            len(tainted),
            self.redecided - redecided,
            self.unchanged - unchanged + unvisited,
        )

    def pend_unpulled(self, substitution) -> None:
        """Put on the pending set every point whose root ``substitution``
        has never evaluated: its verdict came from elsewhere (a store's
        donor) and no push can reach it.  A restore calls this too, so it
        also re-derives the budget-``MAYBE`` pids from ``_decided``."""
        decided = self._decided
        self._pending = {
            pid
            for pid, point in self.model.points.items()
            if point.expr not in substitution
            or (pid in decided and decided[pid][0] is None)
        }

    def reverdict_tables(self, assignments: dict, state, current: dict) -> list:
        """Recompute the structural verdict of every re-encoded table, into
        ``current``; returns the tables whose specialization changed.

        Always runs, changed symbols or not: ``entry_count`` moves with
        every insert and delete.
        """
        changed: list = []
        tables = self.model.tables
        for name, assignment in assignments.items():
            verdict = self.table_verdict(tables[name], assignment, state.tables[name])
            if not verdict.same_specialization(current[name]):
                changed.append(name)
            current[name] = verdict
        return changed

    # -- per-table queries ---------------------------------------------------------

    def table_verdict(
        self,
        info: TableInfo,
        assignment: TableAssignment,
        state: TableState,
    ) -> TableVerdict:
        """The table's structural verdict under ``assignment``.

        An overapproximated verdict is a constant of the table's shape
        (``entry_count`` aside), built once and patched.  A precise one is
        computed: the simplified selector and hit terms give the feasible
        actions and the hit behaviour, and one pass over the active rows
        gives the rest.
        """
        if assignment.overapproximated:
            cached = self._overapproximated.get(info.name)
            if cached is not None:
                self.table_verdict_counter.hit()
                if cached.entry_count != assignment.entry_count:
                    cached = cached.with_entry_count(assignment.entry_count)
                return cached
            self.table_verdict_counter.miss()
            # "*any*": every action and parameter value is presumed covered,
            # so every parameter is non-constant — phrased the same way the
            # precise path phrases it, so that crossing the threshold does
            # not spuriously change the verdict (the paper's observation
            # that big tables already cover their paths).
            verdict = self._overapproximated[info.name] = TableVerdict(
                table=info.name,
                feasible_actions=frozenset(info.action_codes),
                hit=MAYBE,
                const_params=tuple(
                    ((action, param.name), None)
                    for action, params in sorted(info.action_params.items())
                    for param in params
                ),
                match_plan=tuple(k.match_kind for k in info.keys),
                entry_count=assignment.entry_count,
                overapproximated=True,
            )
            return verdict
        self.table_verdict_counter.miss()
        selector = simplify(assignment.mapping[info.selector_var], memo=self._simplify_memo)
        codes = self._selector_values(selector)
        if codes is None:
            feasible = frozenset(info.action_codes)
        else:
            feasible = frozenset(
                name for name, code in info.action_codes.items() if code in codes
            )
        hit_value = constant_value(
            simplify(assignment.mapping[info.hit_var], memo=self._simplify_memo)
        )
        hit = ALWAYS if hit_value == 1 else NEVER if hit_value == 0 else MAYBE
        # One pass over the active rows: each action's distinct argument
        # tuples, and the AND and the OR of the packed match masks.
        args: dict = {}
        all_masks, any_mask = -1, 0
        for entry, _, mask in state.active_rows():
            all_masks &= mask
            any_mask |= mask
            found = args.get(entry.action)
            if found is None:
                args[entry.action] = {entry.args}
            else:
                found.add(entry.args)
        # Parameter constancy is *conditional on the action running*: the
        # values an action's parameter can take are the action data of the
        # entries that select it (plus the default binding when a miss can
        # reach the default action).  Fig. 3 step 2: the single wildcard
        # entry makes set's parameter the constant 0x800.
        default_reachable = hit != ALWAYS
        const_params: list = []
        for action_name, params in sorted(info.action_params.items()):
            if action_name not in feasible:
                continue
            selected = args.get(action_name, ())
            for index, param in enumerate(params):
                values = {row[index] for row in selected}
                if action_name == info.default_action and default_reachable:
                    if index < len(info.default_args):
                        values.add(info.default_args[index] or 0)
                    else:
                        values.add(0)
                value = values.pop() if len(values) == 1 else None
                const_params.append(((action_name, param.name), value))
        # The match plan: a ternary key whose active entries all carry the
        # full mask behaves as an exact key and can shed its TCAM (Fig. 3
        # impl. B); one every entry wildcards needs no match data structure
        # at all ("none"), and neither does one of a table with no entry.
        plan: list = []
        for key, shift in zip(info.keys, state._shifts):
            if key.match_kind != "ternary":
                plan.append(key.match_kind)
                continue
            full = (1 << key.width) - 1
            if not args or not (any_mask >> shift) & full:
                plan.append("none")
            elif (all_masks >> shift) & full == full:
                plan.append("exact")
            else:
                plan.append("ternary")
        return TableVerdict(
            table=info.name,
            feasible_actions=feasible,
            hit=hit,
            const_params=tuple(const_params),
            match_plan=tuple(plan),
            entry_count=assignment.entry_count,
            overapproximated=False,
        )

    def _selector_values(self, selector: Term) -> Optional[set]:
        """Memoized ``_possible_values`` over hash-consed selector terms.

        ``None`` (unbounded) is a valid, memoizable answer, hence the
        containment check rather than ``.get``.
        """
        key = id(selector)
        memo = self._values_memo
        if key in memo:
            return memo[key]
        codes = _possible_values(selector)
        memo[key] = codes
        return codes


def _possible_values(term: Term, limit: int = 512) -> Optional[set[int]]:
    """Overapproximate the set of values an ite-tree term can take: its
    leaves, where a lookup's leaves are its rows' results and its default.

    Returns ``None`` when the term is not a constant/ite/lookup tree
    (unbounded).
    """
    values: set[int] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node.op == T.OP_BVCONST:
            values.add(node.payload)
        elif node.op == T.OP_ITE:
            stack.append(node.args[1])
            stack.append(node.args[2])
        elif node.op == T.OP_LOOKUP:
            rows, default = node.payload
            values.update(result for _, _, result in rows)
            values.add(default)
        else:
            return None
        if len(values) > limit:
            return None
    return values
