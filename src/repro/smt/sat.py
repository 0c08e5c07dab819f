"""An incremental CDCL SAT solver with solve-under-assumptions.

This replaces the original one-shot chronological-backtracking DPLL.  The
queries Flay asks (branch executability / constancy of the bit-blasted
program formula under a control-plane assignment) arrive as a *stream* of
closely-related CNFs, so the solver is built around the incremental
interface Z3 gives the paper's prototype:

* clauses may be added at any time (:meth:`SatSolver.add_clause`) and the
  clause database — including everything *learned* — persists across
  :meth:`SatSolver.solve` calls;
* :meth:`SatSolver.solve` takes ``assumptions``: literals that hold for
  this call only.  A query is phrased as a fresh *activation literal*
  guarding its root assertion, so probing a query never poisons the
  database for the next one;
* conflict analysis is first-UIP with learned-clause recording and
  non-chronological backjumping, decisions use an EVSIDS activity heap
  with phase saving, restarts follow the Luby sequence, and the learned
  database is periodically reduced by clause activity.

Variables are positive integers; literals are non-zero integers where a
negative literal is the negation of its absolute value — the DIMACS
convention, unchanged from the DPLL this module used to hold.

The clause database lives in a :class:`~repro.smt.arena.ClauseArena`:
clauses are integer references (*crefs*) into one flat literal buffer,
watch lists are lists of crefs, and the propagation loop walks
contiguous ``array('i')`` storage instead of per-clause objects.  That
makes :meth:`SatSolver.fork` a handful of array copies, and
:meth:`SatSolver.snapshot` a picklable blob — the enabler for
warm-state persistence.

The search budget is counted in **conflicts**, not decisions: CDCL makes
decisions nearly free (a heap pop plus propagation) while each conflict
pays for analysis and a learned clause, so conflicts are the honest unit
of work.  Exceeding ``max_conflicts`` raises :class:`SolverBudgetExceeded`
and leaves the solver reusable (the partial trail is undone, learned
clauses are kept).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.smt.arena import ClauseArena

SAT = "sat"
UNSAT = "unsat"

_RESCALE_LIMIT = 1e100
_NO_REASON = -1


class SolverBudgetExceeded(RuntimeError):
    """The conflict budget ran out before the search concluded."""


@dataclass
class SatStats:
    """Cumulative search counters, across every :meth:`SatSolver.solve`."""

    solves: int = 0
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    learned: int = 0
    deleted: int = 0
    restarts: int = 0

    def snapshot(self) -> "SatStats":
        return SatStats(
            self.solves,
            self.decisions,
            self.conflicts,
            self.propagations,
            self.learned,
            self.deleted,
            self.restarts,
        )

    def since(self, baseline: "SatStats") -> "SatStats":
        return SatStats(
            self.solves - baseline.solves,
            self.decisions - baseline.decisions,
            self.conflicts - baseline.conflicts,
            self.propagations - baseline.propagations,
            self.learned - baseline.learned,
            self.deleted - baseline.deleted,
            self.restarts - baseline.restarts,
        )

    def add(self, other: "SatStats") -> None:
        self.solves += other.solves
        self.decisions += other.decisions
        self.conflicts += other.conflicts
        self.propagations += other.propagations
        self.learned += other.learned
        self.deleted += other.deleted
        self.restarts += other.restarts


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence (1,1,2,1,1,2,4,…)."""
    size, seq = 1, 0
    while size < i:
        seq += 1
        size = 2 * size + 1
    i -= 1  # 0-based offset into the subsequence of length ``size``
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i %= size
    return 1 << seq


class SatSolver:
    """Incremental CDCL over a persistent arena-backed clause database."""

    RESTART_BASE = 64  # conflicts before the first Luby restart

    def __init__(self) -> None:
        self.stats = SatStats()
        self._arena = ClauseArena()
        self._clauses: list[int] = []  # problem-clause crefs
        self._learned: list[int] = []  # learned-clause crefs
        self._num_vars = 0
        self._ok = True  # False once the database is unconditionally UNSAT
        self._model: Optional[dict[int, bool]] = None
        # Raw assignment snapshot from the last SAT answer; the model dict
        # is materialized lazily (probes rarely read more than a few vars).
        self._model_assign: Optional[list] = None
        # Per-variable state, index 0 unused.
        self._assign: list[Optional[bool]] = [None]
        self._level: list[int] = [0]
        self._reason: list[int] = [_NO_REASON]  # cref, or _NO_REASON
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]  # saved polarity; default False
        # Trail.
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # Two-watched-literal scheme: watches[lit] holds the crefs of the
        # clauses currently watching ``lit``; they are visited when
        # ``lit`` becomes false.
        self._watches: dict[int, list[int]] = {}
        # EVSIDS decision heap (max-heap via negated activity, with stale
        # entries skipped lazily on pop).
        self._heap: list[tuple[float, int]] = []
        # Resume point for the linear decision sweep: variables below the
        # hint are known assigned, so a conflict-free solve over a large
        # database assigns its variables in one O(n) pass instead of
        # restarting the scan at 1 for every decision.
        self._sweep_hint = 1
        # True while a decide_vars-scoped solve runs: scoped probes never
        # consult the decision heap, so backtracking skips the heap pushes.
        self._scoped = False
        # Dead-literal bookkeeping for arena compaction.  Forked solvers
        # never compact: a session fork marks inherited learned clauses by
        # cref, and compaction would renumber them.
        self._dead_lits = 0
        self._compactable = True
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._max_learnts = 4000.0
        self._learnt_growth = 1.3

    # -- variable / clause management -----------------------------------------

    def new_var(self) -> int:
        self._num_vars += 1
        self._assign.append(None)
        self._level.append(0)
        self._reason.append(_NO_REASON)
        self._activity.append(0.0)
        self._phase.append(False)
        return self._num_vars

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def num_learned(self) -> int:
        return len(self._learned)

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a problem clause.  Legal at any time between solves.

        Mutating the clause set invalidates the cached model from a prior
        ``SAT`` answer — :meth:`model` returns ``None`` until the next
        successful :meth:`solve`.
        """
        self._model = None
        self._model_assign = None
        if not self._ok:
            return  # already unconditionally UNSAT; nothing can fix that
        seen: set[int] = set()
        filtered: list[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 is reserved")
            if -lit in seen:
                return  # tautology: clause is always satisfied
            if lit in seen:
                continue
            seen.add(lit)
            filtered.append(lit)
            self._ensure_var(abs(lit))
        # Incremental adds land while the trail holds root-level facts:
        # drop literals already false at level 0, stop if one is true.
        self._backtrack(0)
        reduced: list[int] = []
        for lit in filtered:
            val = self._value(lit)
            if val is True:
                return  # satisfied at the root level already
            if val is None:
                reduced.append(lit)
        if not reduced:
            self._ok = False
            return
        if len(reduced) == 1:
            if not self._assert_root(reduced[0]):
                self._ok = False
            return
        self._attach(self._arena.add(reduced))

    def _attach(self, cref: int) -> None:
        arena = self._arena
        base = arena.start[cref]
        for lit in (arena.lits[base], arena.lits[base + 1]):
            self._watches.setdefault(lit, []).append(cref)
        if arena.learned[cref]:
            self._learned.append(cref)
        else:
            self._clauses.append(cref)

    def _assert_root(self, lit: int) -> bool:
        """Enqueue a root-level fact and propagate; False on conflict."""
        val = self._value(lit)
        if val is False:
            return False
        if val is None:
            self._enqueue(lit, _NO_REASON)
        return self._propagate() == _NO_REASON

    # -- assignment primitives -------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        val = self._assign[abs(lit)]
        if val is None:
            return None
        return val if lit > 0 else not val

    def _enqueue(self, lit: int, reason: int) -> None:
        var = abs(lit)
        self._assign[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _backtrack(self, level: int) -> None:
        """Undo the trail down to ``level``, saving phases."""
        if self._decision_level() <= level:
            return
        mark = self._trail_lim[level]
        assign, phase, reason = self._assign, self._phase, self._reason
        heap, activity = self._heap, self._activity
        scoped = self._scoped  # scoped probes never consult the heap
        for i in range(len(self._trail) - 1, mark - 1, -1):
            lit = self._trail[i]
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            assign[var] = None
            reason[var] = _NO_REASON
            if not scoped:
                heapq.heappush(heap, (-activity[var], var))
        del self._trail[mark:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)
        self._sweep_hint = 1

    # -- propagation -----------------------------------------------------------

    def _propagate(self) -> int:
        """Unit propagation; returns the conflicting cref, or _NO_REASON.

        The watch-repair loop is inlined with local bindings and walks the
        arena's flat literal buffer — this is the solver's innermost loop,
        and per-probe latency in the session's warm path is dominated by
        it.
        """
        trail = self._trail
        assign = self._assign
        watches = self._watches
        arena = self._arena
        alits = arena.lits
        astart = arena.start
        asize = arena.size
        trail_lim_len = len(self._trail_lim)
        propagated = 0
        conflict = _NO_REASON
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            propagated += 1
            falsified = -lit
            watching = watches.get(falsified)
            if not watching:
                continue
            kept: list[int] = []
            for index, cref in enumerate(watching):
                base = astart[cref]
                if alits[base] == falsified:
                    alits[base], alits[base + 1] = alits[base + 1], alits[base]
                other = alits[base]
                ovar = other if other > 0 else -other
                oval = assign[ovar]
                if oval is not None and oval == (other > 0):
                    kept.append(cref)  # satisfied: keep the watch
                    continue
                end = base + asize[cref]
                for i in range(base + 2, end):
                    wlit = alits[i]
                    wval = assign[wlit if wlit > 0 else -wlit]
                    if wval is None or wval == (wlit > 0):
                        alits[base + 1], alits[i] = alits[i], alits[base + 1]
                        watchers = watches.get(wlit)
                        if watchers is None:
                            watches[wlit] = [cref]
                        else:
                            watchers.append(cref)
                        break
                else:
                    # No replacement: unit on `other`, or conflicting.
                    kept.append(cref)
                    if oval is None:
                        assign[ovar] = other > 0
                        self._level[ovar] = trail_lim_len
                        self._reason[ovar] = cref
                        trail.append(other)
                    else:
                        kept.extend(watching[index + 1 :])
                        conflict = cref
                        break
            watches[falsified] = kept
            if conflict != _NO_REASON:
                self._qhead = len(trail)
                break
        self.stats.propagations += propagated
        return conflict

    # -- activities ------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        act = self._activity[var] + self._var_inc
        self._activity[var] = act
        if act > _RESCALE_LIMIT:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            act = self._activity[var]
        if self._assign[var] is None:
            heapq.heappush(self._heap, (-act, var))

    def _bump_clause(self, cref: int) -> None:
        activity = self._arena.activity
        activity[cref] += self._cla_inc
        if activity[cref] > _RESCALE_LIMIT:
            for c in self._learned:
                activity[c] *= 1e-100
            self._cla_inc *= 1e-100

    def _pick_branch(self) -> Optional[int]:
        heap = self._heap
        assign = self._assign
        while heap:
            neg_act, var = heapq.heappop(heap)
            if assign[var] is None and -neg_act >= self._activity[var]:
                return var if self._phase[var] else -var
        # Heap exhausted (fresh vars never pushed, or stale entries only):
        # linear sweep, resumed where the last one stopped.
        for var in range(self._sweep_hint, self._num_vars + 1):
            if assign[var] is None:
                self._sweep_hint = var + 1
                return var if self._phase[var] else -var
        self._sweep_hint = self._num_vars + 1
        return None

    # -- conflict analysis -----------------------------------------------------

    def _clause_lits(self, cref: int) -> list[int]:
        arena = self._arena
        base = arena.start[cref]
        return arena.lits[base:base + arena.size[cref]].tolist()

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP analysis: (learned clause, backjump level).

        The learned clause's first literal is the asserting literal (the
        UIP, negated); the second — when present — carries the highest
        remaining decision level, which is where the solver backjumps to.
        """
        learned: list[int] = [0]  # slot 0: the asserting literal
        seen: set[int] = set()
        counter = 0  # unresolved literals at the current decision level
        current = self._decision_level()
        reason_lits: Optional[list[int]] = self._clause_lits(conflict)
        skip: Optional[int] = None  # the literal already resolved on
        index = len(self._trail)
        while True:
            if reason_lits is None:  # decision variable: no antecedent
                raise AssertionError("reached a decision without finding the UIP")
            for lit in reason_lits:
                if lit == skip:
                    continue
                var = abs(lit)
                if var in seen or self._level[var] == 0:
                    continue
                seen.add(var)
                self._bump_var(var)
                if self._level[var] >= current:
                    counter += 1
                else:
                    learned.append(lit)
            # Walk the trail backwards to the next marked literal.
            while True:
                index -= 1
                if abs(self._trail[index]) in seen:
                    break
            uip = self._trail[index]
            var = abs(uip)
            seen.remove(var)
            counter -= 1
            if counter == 0:
                learned[0] = -uip
                break
            antecedent = self._reason[var]
            if antecedent != _NO_REASON and self._arena.learned[antecedent]:
                self._bump_clause(antecedent)
            reason_lits = (
                self._clause_lits(antecedent)
                if antecedent != _NO_REASON
                else None
            )
            skip = uip
        # Cheap self-subsumption: drop literals whose reason is fully marked.
        learned = self._minimize(learned, seen_roots=set(abs(l) for l in learned))
        if len(learned) == 1:
            return learned, 0
        # Move the highest-level remaining literal into slot 1.
        best = 1
        for i in range(2, len(learned)):
            if self._level[abs(learned[i])] > self._level[abs(learned[best])]:
                best = i
        learned[1], learned[best] = learned[best], learned[1]
        return learned, self._level[abs(learned[1])]

    def _minimize(self, learned: list[int], seen_roots: set[int]) -> list[int]:
        """Drop a literal when its whole reason is already in the clause."""
        kept = [learned[0]]
        arena = self._arena
        alits, astart, asize = arena.lits, arena.start, arena.size
        for lit in learned[1:]:
            reason = self._reason[abs(lit)]
            if reason == _NO_REASON:
                kept.append(lit)
                continue
            base = astart[reason]
            if all(
                other == -lit
                or abs(other) in seen_roots
                or self._level[abs(other)] == 0
                for other in alits[base:base + asize[reason]]
            ):
                continue  # implied by the rest of the clause
            kept.append(lit)
        return kept

    def _record_learned(self, lits: list[int]) -> None:
        self.stats.learned += 1
        if len(lits) == 1:
            self._enqueue(lits[0], _NO_REASON)
            return
        cref = self._arena.add(lits, learned=True)
        self._arena.activity[cref] = self._cla_inc
        self._attach(cref)
        self._enqueue(lits[0], cref)

    def _reduce_db(self) -> None:
        """Halve the learned set, keeping active and locked clauses."""
        arena = self._arena
        activity = arena.activity
        locked = {r for r in self._reason if r != _NO_REASON}
        self._learned.sort(key=activity.__getitem__)
        keep_from = len(self._learned) // 2
        threshold = self._cla_inc / max(1, len(self._learned))
        survivors: list[int] = []
        removed: set[int] = set()
        for i, cref in enumerate(self._learned):
            useful = i >= keep_from or activity[cref] > threshold
            if arena.size[cref] <= 2 or cref in locked or useful:
                survivors.append(cref)
            else:
                removed.add(cref)
        if not removed:
            return
        self.stats.deleted += len(removed)
        self._learned = survivors
        for cref in removed:
            arena.dead[cref] = 1
            self._dead_lits += arena.size[cref]
        for lit, watching in self._watches.items():
            self._watches[lit] = [c for c in watching if c not in removed]

    def _compact(self) -> None:
        """Rebuild the arena without dead rows, renumbering every cref.

        Only ever called between solves, at decision level 0, and never on
        a forked solver (a session fork pins inherited learned clauses by
        cref — see :meth:`fork`).
        """
        arena = self._arena
        fresh = ClauseArena()
        remap: dict[int, int] = {}
        for group in (self._clauses, self._learned):
            for cref in group:
                new = fresh.add(
                    self._clause_lits(cref), learned=bool(arena.learned[cref])
                )
                fresh.activity[new] = arena.activity[cref]
                remap[cref] = new
        self._arena = fresh
        self._clauses = [remap[c] for c in self._clauses]
        self._learned = [remap[c] for c in self._learned]
        self._watches = {
            lit: [remap[c] for c in watching]
            for lit, watching in self._watches.items()
        }
        self._reason = [
            remap[r] if r != _NO_REASON else _NO_REASON for r in self._reason
        ]
        self._dead_lits = 0

    # -- the solve loop --------------------------------------------------------

    def solve(
        self,
        assumptions: Optional[Sequence[int]] = None,
        max_conflicts: Optional[int] = None,
        decide_vars: Optional[Sequence[int]] = None,
    ) -> str:
        """CDCL search.  Returns ``SAT`` or ``UNSAT``.

        ``assumptions`` hold for this call only: ``UNSAT`` then means
        "unsatisfiable together with the assumptions".  ``max_conflicts``
        bounds the search; exceeding it raises :class:`SolverBudgetExceeded`
        with the solver left reusable, so callers can fall back to an
        overapproximation rather than stall the update path.

        ``decide_vars`` restricts the decision procedure to the given
        variables: once they (and the assumptions) are all assigned and
        propagation quiesces without conflict, the answer is ``SAT``
        *without* assigning the rest of the database.  This is only sound
        when the caller guarantees every clause not fully covered by
        ``decide_vars`` is extendable from any such partial assignment —
        the solver-session discipline, where all other clauses are acyclic
        Tseitin definitions (evaluate the unassigned gates bottom-up),
        activation guards (satisfiable by ``act = false``), or learned
        consequences of those.  The model then covers only the assigned
        variables.  ``None`` keeps the classic full-assignment behaviour.
        """
        assumptions = list(assumptions) if assumptions else []
        for lit in assumptions:
            if lit == 0:
                raise ValueError("assumption literal must be non-zero")
            self._ensure_var(abs(lit))
        self._model = None
        self._model_assign = None
        self.stats.solves += 1
        if not self._ok:
            return UNSAT
        self._backtrack(0)
        if (
            self._compactable
            and self._dead_lits * 2 > len(self._arena.lits)
            and self._dead_lits > 4096
        ):
            self._compact()
        if self._propagate() != _NO_REASON:
            self._ok = False
            return UNSAT
        try:
            self._scoped = decide_vars is not None
            result = self._search(assumptions, max_conflicts, decide_vars)
        finally:
            self._backtrack(0)
            self._scoped = False
        return result

    def _search(
        self,
        assumptions: list[int],
        budget: Optional[int],
        decide_vars: Optional[Sequence[int]] = None,
    ) -> str:
        conflicts_this_call = 0
        restart_number = 0
        restart_limit = self.RESTART_BASE * luby(1)
        conflicts_since_restart = 0
        decide_idx = 0  # scan position in decide_vars; reset on backtrack
        while True:
            conflict = self._propagate()
            if conflict != _NO_REASON:
                self.stats.conflicts += 1
                conflicts_this_call += 1
                conflicts_since_restart += 1
                if self._decision_level() <= len(assumptions):
                    # Conflict under the assumptions (or at the root):
                    # UNSAT for this call; root-level conflicts poison the
                    # database permanently.
                    if self._decision_level() == 0 or self._conflict_at_root(
                        conflict, assumptions
                    ):
                        self._ok = False
                    return UNSAT
                if budget is not None and conflicts_this_call > budget:
                    raise SolverBudgetExceeded(
                        f"exceeded {budget} conflicts"
                    )
                learned, back_level = self._analyze(conflict)
                self._backtrack(max(back_level, self._assumption_level(learned)))
                self._record_learned(learned)
                self._var_inc *= self._var_decay
                self._cla_inc *= self._cla_decay
                decide_idx = 0
                continue
            if conflicts_since_restart >= restart_limit:
                self.stats.restarts += 1
                restart_number += 1
                restart_limit = self.RESTART_BASE * luby(restart_number + 1)
                conflicts_since_restart = 0
                self._backtrack(len(assumptions) if self._decision_level() else 0)
                decide_idx = 0
                continue
            if len(self._learned) >= self._max_learnts:
                self._reduce_db()
                self._max_learnts *= self._learnt_growth
            if decide_vars is None:
                lit = self._next_decision(assumptions)
            else:
                lit, decide_idx = self._next_scoped_decision(
                    assumptions, decide_vars, decide_idx
                )
            if lit is None:
                # Snapshot the raw assignment (C-speed copy); the model
                # dict is materialized lazily in :meth:`model`.
                self._model_assign = self._assign.copy()
                return SAT
            if lit is UNSAT:  # an assumption is already falsified
                return UNSAT
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, _NO_REASON)

    def _next_decision(self, assumptions: list[int]):
        """Next decision literal: pending assumptions first, then VSIDS."""
        while self._decision_level() < len(assumptions):
            lit = assumptions[self._decision_level()]
            val = self._value(lit)
            if val is False:
                return UNSAT
            if val is True:
                # Already implied: open an empty level so level counting
                # still maps level i ↔ assumption i.
                self._trail_lim.append(len(self._trail))
                continue
            return lit
        return self._pick_branch()

    def _next_scoped_decision(
        self, assumptions: list[int], decide_vars: Sequence[int], idx: int
    ):
        """Decision restricted to ``decide_vars``: ``(lit, next_idx)``.

        Returns ``(None, idx)`` once every scoped variable is assigned —
        the partial-assignment SAT claim of ``solve(decide_vars=...)``."""
        while self._decision_level() < len(assumptions):
            lit = assumptions[self._decision_level()]
            val = self._value(lit)
            if val is False:
                return UNSAT, idx
            if val is True:
                self._trail_lim.append(len(self._trail))
                continue
            return lit, idx
        assign = self._assign
        phase = self._phase
        n = len(decide_vars)
        while idx < n:
            var = decide_vars[idx]
            idx += 1
            if assign[var] is None:
                return (var if phase[var] else -var), idx
        return None, idx

    def _assumption_level(self, learned: list[int]) -> int:
        """Assumption decisions may not be undone by a backjump to 0 while
        deeper assumption levels still hold facts the clause relies on."""
        return 0

    def _conflict_at_root(self, conflict: int, assumptions: list[int]) -> bool:
        """True when the conflict holds independently of the assumptions."""
        return all(
            self._level[abs(lit)] == 0 for lit in self._clause_lits(conflict)
        )

    def model(self) -> Optional[dict[int, bool]]:
        """Variable assignment from the last ``SAT`` answer.

        Invalidated by any :meth:`add_clause` since that answer.
        """
        if self._model is None and self._model_assign is not None:
            self._model = {
                var: value
                for var, value in enumerate(self._model_assign)
                if var and value is not None
            }
        return self._model

    def value_of(self, var: int) -> Optional[bool]:
        """One variable's value from the last ``SAT`` answer (no dict
        materialization — the cheap path for model decoding)."""
        snapshot = self._model_assign
        if snapshot is None or not 0 < var < len(snapshot):
            return None
        return snapshot[var]

    # -- forking (batch-scheduler worker sessions) ----------------------------

    def fork(self) -> "SatSolver":
        """An independent copy sharing no mutable state.

        The fork starts with the same problem and learned clauses, variable
        activities, and saved phases; budgets and statistics start fresh.
        Crefs are preserved (the arena is copied wholesale), so a session
        can mark the inherited learned clauses by cref — which is also why
        forks never compact their arena.  Used by the batch scheduler to
        hand each worker slice a warm private solver.
        """
        self._backtrack(0)
        twin = SatSolver()
        twin._arena = self._arena.copy()
        twin._clauses = list(self._clauses)
        twin._learned = list(self._learned)
        twin._num_vars = self._num_vars
        twin._ok = self._ok
        twin._assign = list(self._assign)
        twin._level = list(self._level)
        twin._reason = [_NO_REASON] * len(self._reason)
        twin._activity = list(self._activity)
        twin._phase = list(self._phase)
        twin._trail = list(self._trail)
        twin._qhead = len(twin._trail)
        twin._dead_lits = self._dead_lits
        twin._compactable = False
        twin._var_inc = self._var_inc
        twin._cla_inc = self._cla_inc
        twin._max_learnts = self._max_learnts
        twin._rebuild_watches()
        return twin

    def _rebuild_watches(self) -> None:
        """Watch the first two literals of every live clause, in database
        order — the deterministic layout a freshly-loaded solver has."""
        watches: dict[int, list[int]] = {}
        arena = self._arena
        alits, astart = arena.lits, arena.start
        for group in (self._clauses, self._learned):
            for cref in group:
                base = astart[cref]
                for lit in (alits[base], alits[base + 1]):
                    bucket = watches.get(lit)
                    if bucket is None:
                        watches[lit] = [cref]
                    else:
                        bucket.append(cref)
        self._watches = watches

    # -- snapshot / restore (warm persistence) ----------------------------------

    def snapshot(self) -> dict:
        """A picklable blob of the full solver state, at decision level 0.

        Everything semantic is captured: the clause arena, variable
        assignments/levels (the root trail), activities, phases, and the
        EVSIDS/learnt-size parameters.  Watches and the decision heap are
        derived state and are rebuilt on :meth:`restore`.
        """
        self._backtrack(0)
        return {
            "arena": self._arena.copy(),
            "clauses": list(self._clauses),
            "learned": list(self._learned),
            "num_vars": self._num_vars,
            "ok": self._ok,
            "assign": list(self._assign),
            "level": list(self._level),
            "activity": list(self._activity),
            "phase": list(self._phase),
            "trail": list(self._trail),
            "dead_lits": self._dead_lits,
            "var_inc": self._var_inc,
            "cla_inc": self._cla_inc,
            "max_learnts": self._max_learnts,
        }

    @classmethod
    def restore(cls, blob: dict) -> "SatSolver":
        """Rebuild a solver from a :meth:`snapshot` blob."""
        twin = cls()
        twin._arena = blob["arena"].copy()
        twin._clauses = list(blob["clauses"])
        twin._learned = list(blob["learned"])
        twin._num_vars = blob["num_vars"]
        twin._ok = blob["ok"]
        twin._assign = list(blob["assign"])
        twin._level = list(blob["level"])
        twin._reason = [_NO_REASON] * len(twin._assign)
        twin._activity = list(blob["activity"])
        twin._phase = list(blob["phase"])
        twin._trail = list(blob["trail"])
        twin._qhead = len(twin._trail)
        twin._dead_lits = blob["dead_lits"]
        twin._var_inc = blob["var_inc"]
        twin._cla_inc = blob["cla_inc"]
        twin._max_learnts = blob["max_learnts"]
        twin._rebuild_watches()
        return twin

    def learned_clauses(self) -> list[list[int]]:
        """Snapshots of the current learned clauses (for session export)."""
        return [self._clause_lits(cref) for cref in self._learned]

    def import_learned(self, clauses: Iterable[Sequence[int]]) -> int:
        """Install externally learned clauses (logical consequences only).

        Returns how many clauses were installed.  Used when folding a
        worker session's learned clauses back into the shared session —
        the clauses must be consequences of this solver's database, which
        holds for any clause a fork learned over pre-fork variables.
        """
        count = 0
        for lits in clauses:
            if not self._ok:
                break
            self._backtrack(0)
            reduced: list[int] = []
            satisfied = False
            for lit in lits:
                if abs(lit) > self._num_vars:
                    reduced = []
                    satisfied = True  # unknown variable: skip the clause
                    break
                val = self._value(lit)
                if val is True:
                    satisfied = True
                    break
                if val is None:
                    reduced.append(lit)
            if satisfied:
                continue
            if not reduced:
                self._ok = False
                break
            if len(reduced) == 1:
                if not self._assert_root(reduced[0]):
                    self._ok = False
                count += 1
                continue
            self._attach(self._arena.add(reduced, learned=True))
            self.stats.learned += 1
            count += 1
        return count
