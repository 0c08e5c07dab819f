"""Substitution of control-plane assignments into data-plane expressions.

This plays the role Z3's e-matching plays in Flay (§4.1): given a data-plane
expression whose control-plane symbols act as placeholders, replace each
placeholder with the term encoding the active control-plane assignment, then
simplify.  Substitution is memoized over the shared DAG, so substituting
into the hundreds of program points of one program touches each unique
subterm once.

This module is the only substitution walker; the
:class:`~repro.smt.arena.TermArena` codec moves a substitution's mapping
and memo through a snapshot (:meth:`DeltaSubstitution.export_state`) but
does no rewriting of its own.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.ir.metrics import CacheCounter
from repro.smt import terms as T
from repro.smt.simplify import simplify
from repro.smt.terms import Term

#: Process-wide memo: term → frozenset of variable names occurring in it.
#: Pure function of the (immutable) term, shared across all substitutions;
#: keyed on the Term itself so the cache owns strong references.
_VAR_DEPS: dict[Term, frozenset] = {}

_EMPTY_DEPS: frozenset = frozenset()


def variable_dependencies(term: Term) -> frozenset:
    """Names of all variable leaves reachable from ``term`` (memoized).

    The specification of delta substitution's invalidation: a memoized
    result for ``term`` goes stale exactly when the mapping of one of
    these names changes.  :class:`DeltaSubstitution` reaches the same
    entries by walking parent edges up from the changed variables; the
    tests check one against the other.
    """
    cached = _VAR_DEPS.get(term)
    if cached is not None:
        return cached
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in _VAR_DEPS:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.args:
                if child not in _VAR_DEPS:
                    stack.append((child, False))
            continue
        if node.is_var:
            deps: frozenset = frozenset((node.payload,))
        elif not node.args:
            deps = _EMPTY_DEPS
        else:
            child_deps = [_VAR_DEPS[arg] for arg in node.args]
            deps = child_deps[0]
            for extra in child_deps[1:]:
                if not (extra <= deps):
                    deps = deps | extra
        _VAR_DEPS[node] = deps
    return _VAR_DEPS[term]


class Substitution:
    """A reusable variable→term mapping with a shared memo table.

    Reusing one ``Substitution`` across all program points of a program is
    the incremental trick: expressions share structure, and the memo makes
    the shared parts free after the first substitution.
    """

    def __init__(self, mapping: Mapping[Term, Term]) -> None:
        for var, replacement in mapping.items():
            if not var.is_var:
                raise T.SortError(f"substitution key {var!r} is not a variable")
            if var.width != replacement.width:
                raise T.SortError(
                    f"substituting {replacement!r} (width {replacement.width}) "
                    f"for {var!r} (width {var.width})"
                )
        self._mapping = {id(var): replacement for var, replacement in mapping.items()}
        self._memo: dict[int, Term] = dict(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def apply(self, term: Term) -> Term:
        """Replace mapped variables throughout ``term`` (no simplification)."""
        memo = self._memo
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in memo:
                continue
            if not node.args:
                memo[id(node)] = node
                continue
            if not expanded:
                stack.append((node, True))
                for child in node.args:
                    if id(child) not in memo:
                        stack.append((child, False))
                continue
            new_args = tuple(memo[id(child)] for child in node.args)
            memo[id(node)] = _rebuild_with_args(node, new_args)
        return memo[id(term)]


class DeltaSubstitution:
    """A long-lived substitution whose memo survives mapping updates.

    This is the cross-update reuse layer of the incremental pipeline
    (the "Once" cost paid once): one instance lives for the lifetime of an
    :class:`~repro.engine.engine.Engine`, and a control-plane update only
    invalidates the memo entries whose subterm mentions a control symbol
    whose assignment actually changed.  All other entries — in practice
    the overwhelming majority of every program point's DAG — are reused by
    identity.

    Internally the memo (``term → substituted term``) is paired with
    *parent edges* (``child term → memoized terms it is an argument of``)
    recorded during :meth:`apply`; registering a node costs its arity.
    :meth:`set_many` diffs the new assignments against the old ones by
    term identity (hash-consing makes semantically-identical re-encodings
    the same object), walks up from the variables that changed, drops
    exactly their memoized ancestors, and *reports the changed symbols* —
    the warm path re-queries only points tainted by those.  An edge is a
    structural fact about two source terms, so edges are never removed and
    neither they nor the memo can outgrow the program's own DAG.

    The memo keys interned :class:`Term` objects directly (their hash is
    the precomputed structural hash and equality is identity, so lookups
    cost the same as the historical ``id()`` keying) — which is what
    makes the memo *exportable*: a snapshot can walk ``_memo.items()``
    and ship both sides through a
    :class:`~repro.smt.arena.TermArena`, something ``id``-keyed entries
    could never recover the key term for.
    """

    def __init__(
        self,
        mapping: Mapping[Term, Term],
        counter: Optional[CacheCounter] = None,
    ) -> None:
        self.counter = counter if counter is not None else CacheCounter("substitution")
        self._mapping: dict[Term, Term] = {}
        self._memo: dict[Term, Term] = {}
        self._parents: dict[Term, set[Term]] = {}
        self.set_many(mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    @staticmethod
    def _check(var: Term, replacement: Term) -> None:
        if not var.is_var:
            raise T.SortError(f"substitution key {var!r} is not a variable")
        if var.width != replacement.width:
            raise T.SortError(
                f"substituting {replacement!r} (width {replacement.width}) "
                f"for {var!r} (width {var.width})"
            )

    def set_many(self, mapping: Mapping[Term, Term]) -> set[str]:
        """Install new assignments; returns the names of the symbols whose
        assignment changed.

        Assignments identical (by term identity) to the current ones are
        no-ops — the common case when an overapproximated table is
        re-encoded, or a batch re-touches an unchanged table — so a
        forwarded update stream invalidates nothing and reports nothing.
        """
        memo = self._memo
        changed: list[Term] = []
        for var, replacement in mapping.items():
            self._check(var, replacement)
            if self._mapping.get(var) is not replacement:
                self._mapping[var] = memo[var] = replacement
                changed.append(var)
        parents = self._parents
        dropped = 0
        stack = list(changed)
        while stack:
            for parent in parents.get(stack.pop(), ()):
                if memo.pop(parent, None) is not None:
                    dropped += 1
                    stack.append(parent)
        self.counter.invalidate(dropped)
        return {var.payload for var in changed}

    def fork_slice(self) -> "SubstitutionSlice":
        """A copy-on-write worker view over this substitution's memo."""
        return SubstitutionSlice(self)

    def absorb(self, piece: "SubstitutionSlice") -> int:
        """Fold a worker slice's mapping + memo delta back in; see
        :class:`SubstitutionSlice`.  Returns the grafted entry count."""
        return _absorb_slice(self, piece)

    def apply(self, term: Term) -> Term:
        """Replace mapped variables throughout ``term`` (no simplification)."""
        memo = self._memo
        if term in memo:
            self.counter.hit()
            return memo[term]
        self.counter.miss()
        parents = self._parents
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node in memo:
                continue
            if not node.args:
                memo[node] = node
                continue
            if not expanded:
                stack.append((node, True))
                for child in node.args:
                    if child not in memo:
                        stack.append((child, False))
                continue
            new_args = tuple(memo[child] for child in node.args)
            memo[node] = _rebuild_with_args(node, new_args)
            _link(parents, node)
        return memo[term]

    # -- snapshot export / import ----------------------------------------------

    def export_state(self, arena) -> dict:
        """A picklable blob of the mapping and the memo.

        Every term (keys and values alike) rides in ``arena`` (a
        :class:`~repro.smt.arena.TermArena`); :meth:`import_state`
        re-interns them through the receiving process's default factory,
        so identity-based invalidation keeps working after a restore.
        The parent edges are not shipped: they are the memo keys' own
        argument lists.
        """
        return {
            "mapping": [
                (arena.encode(var), arena.encode(replacement))
                for var, replacement in self._mapping.items()
            ],
            "memo": [
                (arena.encode(key), arena.encode(value))
                for key, value in self._memo.items()
            ],
        }

    def import_state(self, arena, blob: dict) -> int:
        """Install an :meth:`export_state` blob; returns the memo size.

        The blob replaces this substitution's mapping/memo/edges
        wholesale — callers restore into a freshly constructed (empty)
        instance.  Edges are re-derived from the memo keys (an older
        blob's ``index`` entry is ignored).
        """
        self._mapping = {
            arena.decode(var): arena.decode(replacement)
            for var, replacement in blob["mapping"]
        }
        self._memo = {
            arena.decode(key): arena.decode(value) for key, value in blob["memo"]
        }
        self._parents = {}
        for key in self._memo:
            _link(self._parents, key)
        return len(self._memo)


def _link(parents: dict[Term, set[Term]], node: Term) -> None:
    """Record ``node`` as a parent of each argument that can ever change
    under substitution (constants cannot, so they carry no edges)."""
    for child in node.args:
        if child.args or child.is_var:
            found = parents.get(child)
            if found is None:
                parents[child] = {node}
            else:
                found.add(node)


class SubstitutionSlice:
    """A copy-on-write view of a :class:`DeltaSubstitution` for one worker.

    The batch scheduler runs independent conflict groups on a worker pool;
    every worker needs the warm substitution memo (the cross-update asset)
    but must not mutate it while siblings read it.  A slice layers a
    private memo, parent edges, and mapping over read-only views of the
    shared ones:

    * reads check the private memo first, then the shared memo — unless
      the shared entry was *shadowed* by this slice's own ``set_many``
      (it is an ancestor of a control symbol this group re-assigned);
    * writes (new mapping entries, freshly computed memo entries) go to
      the private layer only.

    After the pool joins, :meth:`DeltaSubstitution.absorb` folds the
    private layer back into the shared substitution on the main thread —
    groups touch disjoint control symbols, so grafted entries can never
    disagree with another group's.
    """

    def __init__(self, shared: "DeltaSubstitution") -> None:
        self._shared = shared
        self._memo: dict[Term, Term] = {}
        self._parents: dict[Term, set[Term]] = {}
        self._mapping: dict[Term, Term] = {}
        self._shadowed: set[Term] = set()
        self.counter = CacheCounter("substitution")

    @property
    def delta_size(self) -> int:
        return len(self._memo)

    def _lookup(self, term: Term) -> Optional[Term]:
        found = self._memo.get(term)
        if found is not None:
            return found
        if term in self._shadowed:
            return None
        return self._shared._memo.get(term)

    def set_many(self, mapping: Mapping[Term, Term]) -> set[str]:
        """Install this group's assignments without touching shared state;
        returns the names of the symbols whose assignment changed."""
        shared = self._shared
        memo = self._memo
        changed: list[Term] = []
        for var, replacement in mapping.items():
            DeltaSubstitution._check(var, replacement)
            current = self._mapping.get(var)
            if current is None:
                current = shared._mapping.get(var)
            if current is not replacement:
                self._mapping[var] = memo[var] = replacement
                changed.append(var)
        shadowed = self._shadowed
        shared_memo = shared._memo
        dropped = 0
        stack = list(changed)
        while stack:
            node = stack.pop()
            for edges in (self._parents, shared._parents):
                for parent in edges.get(node, ()):
                    stale = memo.pop(parent, None) is not None
                    if stale:
                        dropped += 1
                    if parent in shared_memo and parent not in shadowed:
                        shadowed.add(parent)
                        stale = True
                    if stale:
                        stack.append(parent)
        self.counter.invalidate(dropped)
        return {var.payload for var in changed}

    def apply(self, term: Term) -> Term:
        """Replace mapped variables throughout ``term`` (no simplification)."""
        cached = self._lookup(term)
        if cached is not None:
            self.counter.hit()
            return cached
        self.counter.miss()
        memo = self._memo
        parents = self._parents
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if self._lookup(node) is not None:
                continue
            if not node.args:
                memo[node] = node
                continue
            if not expanded:
                stack.append((node, True))
                for child in node.args:
                    if self._lookup(child) is None:
                        stack.append((child, False))
                continue
            new_args = tuple(self._lookup(child) for child in node.args)
            memo[node] = _rebuild_with_args(node, new_args)
            _link(parents, node)
        return self._lookup(term)


def _absorb_slice(shared: "DeltaSubstitution", piece: SubstitutionSlice) -> int:
    """Fold one worker slice back into the shared substitution.

    Ordering matters: ``set_many`` first drops the shared entries the
    slice shadowed (ancestors of the symbols the group re-assigned), then
    the slice's private entries — computed *after* the new assignments —
    are grafted in their place.  Returns the number of grafted entries.
    """
    shared.set_many(piece._mapping)
    memo = shared._memo
    grafted = 0
    for key, term in piece._memo.items():
        if key not in memo:
            memo[key] = term
            grafted += 1
    for child, nodes in piece._parents.items():
        shared._parents.setdefault(child, set()).update(nodes)
    shared.counter.hit(piece.counter.hits)
    shared.counter.miss(piece.counter.misses)
    shared.counter.invalidate(piece.counter.invalidations)
    return grafted


#: Operator → default-factory constructor; ``extract`` also takes its
#: ``(hi, lo)`` payload.
_BUILDERS = {
    T.OP_ADD: T.add, T.OP_SUB: T.sub, T.OP_MUL: T.mul,
    T.OP_AND: T.bv_and, T.OP_OR: T.bv_or, T.OP_XOR: T.bv_xor,
    T.OP_NOT: T.bv_not, T.OP_NEG: T.neg,
    T.OP_SHL: T.shl, T.OP_LSHR: T.lshr, T.OP_CONCAT: T.concat,
    T.OP_ITE: T.ite, T.OP_EQ: T.eq, T.OP_ULT: T.ult, T.OP_ULE: T.ule,
    T.OP_BAND: T.bool_and, T.OP_BOR: T.bool_or, T.OP_BNOT: T.bool_not,
    T.OP_EXTRACT: T.extract,
}


def _rebuild_with_args(node: Term, args: tuple) -> Term:
    if args == node.args:
        return node
    builder = _BUILDERS.get(node.op)
    if builder is None:
        raise T.SortError(f"cannot substitute under {node.op!r}")
    if node.op == T.OP_EXTRACT:
        return builder(args[0], *node.payload)
    return builder(*args)


def substitute(
    term: Term,
    mapping: Mapping[Term, Term],
    simplify_result: bool = True,
    memo: Optional[dict[int, Term]] = None,
) -> Term:
    """One-shot substitution helper.

    ``substitute(expr, {ctrl_var: assignment_term})`` is the core move of a
    specialization query: the result collapsing to a constant means the
    program point's behaviour is fully determined by the control plane.
    """
    result = Substitution(mapping).apply(term)
    if simplify_result:
        result = simplify(result, memo=memo)
    return result


def substitute_names(
    term: Term,
    named: Mapping[str, Term],
    simplify_result: bool = True,
) -> Term:
    """Substitute by variable *name*, resolving widths from the term itself."""
    mapping: dict[Term, Term] = {}
    for var in T.variables(term):
        replacement = named.get(var.name)
        if replacement is not None:
            mapping[var] = replacement
    return substitute(term, mapping, simplify_result=simplify_result)
