"""Substitution of control-plane assignments into data-plane expressions.

This plays the role Z3's e-matching plays in Flay (§4.1): given a data-plane
expression whose control-plane symbols act as placeholders, replace each
placeholder with the term encoding the active control-plane assignment, then
simplify.  Substitution is memoized over the shared DAG, so substituting
into the hundreds of program points of one program touches each unique
subterm once.

Two walkers live here.  :class:`Substitution` is the one-shot
specification: replace, rebuild, and leave simplification to the caller.
:class:`DeltaSubstitution` (with its :class:`SubstitutionSlice` overlay)
is what the engine runs: one fused substitute-and-simplify pass over the
*source* DAG that survives updates and re-evaluates only what a changed
assignment actually moved; the tests check it against the specification.
The :class:`~repro.smt.arena.TermArena` codec moves its mapping and memo
through a snapshot (:meth:`DeltaSubstitution.export_state`) but does no
rewriting of its own.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.ir.metrics import CacheCounter
from repro.smt import terms as T
from repro.smt.simplify import _rewrite, simplify
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
    """A long-lived substitute-and-simplify pass that propagates changes.

    This is the cross-update reuse layer of the incremental pipeline
    (the "Once" cost paid once): one instance lives for the lifetime of an
    :class:`~repro.engine.engine.Engine`.  :meth:`apply` returns what
    ``simplify(Substitution(mapping).apply(term))`` returns — the same
    interned object — without building the substituted term: every
    memoised *source* node stores ``_rewrite(node, results of its
    children)`` together with the child results it was computed from.

    A control-plane update does not drop anything.  :meth:`set_many` diffs
    the new assignments against the old ones by term identity
    (hash-consing makes semantically-identical re-encodings the same
    object), *reports the changed symbols* — the warm path re-queries only
    points tainted by those — and marks **dirty** the memoised ancestors
    of every symbol whose *simplified* assignment is a different object,
    walking the *parent edges* (``child → memoised nodes it is an argument
    of``) recorded when a node is first evaluated.  :meth:`apply`
    re-evaluates dirty nodes on demand, children first, and keeps a node's
    stored result without rewriting whenever every child result is the
    object it was computed from (the **cutoff**): a new ACL entry that
    leaves ``std.drop`` the constant 1 rewrites the nodes directly above
    the table's symbols and nothing above those.  Invariant: a dirty
    node's memoised ancestors are all dirty, so marking stops at a node
    that already is.

    An edge is a structural fact about two source terms, so edges are
    never removed and neither they, the memo, the stored child results nor
    the dirty set can outgrow the program's own DAG.

    The memo keys interned :class:`Term` objects directly (their hash is
    the precomputed structural hash and equality is identity) — which is
    what makes it *exportable*: a snapshot walks the clean entries and
    ships both sides through a :class:`~repro.smt.arena.TermArena`.

    ``simplify_memo`` is the ``id``-keyed memo handed to every
    :func:`~repro.smt.simplify.simplify` call and rewrite rule; the engine
    passes the query engine's, so a table's selector is simplified once
    for the substitution and its table verdict alike.
    """

    def __init__(
        self,
        mapping: Mapping[Term, Term],
        counter: Optional[CacheCounter] = None,
        simplify_memo: Optional[dict] = None,
    ) -> None:
        self.counter = counter if counter is not None else CacheCounter("substitution")
        #: Nodes (re)written by :meth:`apply` — the work the cutoff did not save.
        self.rewrites = 0
        self._simplify_memo = simplify_memo if simplify_memo is not None else {}
        self._mapping: dict[Term, Term] = {}
        self._memo: dict[Term, Term] = {}
        self._inputs: dict[Term, tuple] = {}
        self._parents: dict[Term, set[Term]] = {}
        self._dirty: set[Term] = set()
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
        forwarded update stream marks nothing and reports nothing.  A
        changed assignment that *simplifies* to the object the old one
        did is reported (the symbol was re-assigned) but marks nothing.
        """
        memo = self._memo
        changed: list[Term] = []
        moved: list[Term] = []
        for var, replacement in mapping.items():
            self._check(var, replacement)
            if self._mapping.get(var) is not replacement:
                self._mapping[var] = replacement
                changed.append(var)
                result = simplify(replacement, self._simplify_memo)
                if memo.get(var) is not result:
                    memo[var] = result
                    moved.append(var)
        self.counter.invalidate(_mark_dirty(moved, self._dirty, self._parents))
        return {var.payload for var in changed}

    def fork_slice(self, simplify_memo: Optional[dict] = None) -> "SubstitutionSlice":
        """A copy-on-write worker view over this substitution's memo."""
        return SubstitutionSlice(self, simplify_memo)

    def absorb(self, piece: "SubstitutionSlice") -> int:
        """Fold a worker slice's mapping + memo delta back in; see
        :class:`SubstitutionSlice`.  Returns the grafted entry count."""
        return _absorb_slice(self, piece)

    def apply(self, term: Term) -> Term:
        """``term`` under the current assignments, substituted and simplified."""
        memo = self._memo
        dirty = self._dirty
        if term in memo and term not in dirty:
            self.counter.hit()
            return memo[term]
        self.counter.miss()
        inputs = self._inputs
        parents = self._parents
        simplify_memo = self._simplify_memo
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            known = node in memo
            if known and node not in dirty:
                continue
            if not node.args:
                memo[node] = node  # a constant or an unassigned symbol
                continue
            if not expanded:
                stack.append((node, True))
                for child in node.args:
                    if child not in memo or child in dirty:
                        stack.append((child, False))
                continue
            results = tuple([memo[child] for child in node.args])
            if known:
                dirty.discard(node)
                # Interned terms are equal only when identical, so this is
                # the identity test the cutoff needs at tuple-compare speed.
                if results == inputs[node]:
                    continue
            else:
                _link(parents, node)
            inputs[node] = results
            memo[node] = _rewrite(node, results, simplify_memo)
            self.rewrites += 1
        return memo[term]

    # -- snapshot export / import ----------------------------------------------

    def export_state(self, arena) -> dict:
        """A picklable blob of the mapping and the clean part of the memo.

        Every term (keys and values alike) rides in ``arena`` (a
        :class:`~repro.smt.arena.TermArena`); :meth:`import_state`
        re-interns them through the receiving process's default factory,
        so identity-based change detection keeps working after a restore.
        Dirty entries are left out — the restored engine recomputes them,
        to the same interned terms, when they are next pulled — which
        makes everything else re-derivable: a clean node's children are
        clean, so its stored child results are its children's entries, and
        the parent edges are the memo keys' own argument lists.
        """
        dirty = self._dirty
        return {
            "mapping": [
                (arena.encode(var), arena.encode(replacement))
                for var, replacement in self._mapping.items()
            ],
            "memo": [
                (arena.encode(key), arena.encode(value))
                for key, value in self._memo.items()
                if key not in dirty
            ],
        }

    def import_state(self, arena, blob: dict) -> int:
        """Install an :meth:`export_state` blob; returns the memo size.

        The blob replaces this substitution's state wholesale — callers
        restore into a freshly constructed (empty) instance.
        """
        self._mapping = {
            arena.decode(var): arena.decode(replacement)
            for var, replacement in blob["mapping"]
        }
        memo = self._memo = {
            arena.decode(key): arena.decode(value) for key, value in blob["memo"]
        }
        self._inputs = {
            key: tuple([memo[child] for child in key.args]) for key in memo if key.args
        }
        self._parents = {}
        self._dirty = set()
        for key in memo:
            _link(self._parents, key)
        return len(memo)


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


def _mark_dirty(moved: list, dirty: set, *edge_maps: dict) -> int:
    """Add every ancestor of ``moved`` (through ``edge_maps``) to ``dirty``,
    stopping at nodes already in it; returns the number added."""
    marked = 0
    stack = list(moved)
    while stack:
        node = stack.pop()
        for parents in edge_maps:
            for parent in parents.get(node, ()):
                if parent not in dirty:
                    dirty.add(parent)
                    marked += 1
                    stack.append(parent)
    return marked


class SubstitutionSlice:
    """A copy-on-write view of a :class:`DeltaSubstitution` for one worker.

    The batch scheduler runs independent conflict groups on a worker pool;
    every worker needs the warm memo (the cross-update asset) but must not
    mutate it while siblings read it.  A slice layers a private memo,
    stored child results, parent edges, mapping and dirty set over
    read-only views of the shared ones:

    * a node is *clean in this view* when the slice has not marked it
      dirty and it has a private entry, or a shared entry the shared
      substitution had not marked dirty either;
    * writes (new mapping entries, re-evaluated nodes — also those the
      cutoff kept, so that they read as clean here) go to the private
      layer only.

    After the pool joins, :meth:`DeltaSubstitution.absorb` folds the
    private layer back into the shared substitution on the main thread —
    groups touch disjoint control symbols, so grafted entries can never
    disagree with another group's.
    """

    def __init__(
        self, shared: "DeltaSubstitution", simplify_memo: Optional[dict] = None
    ) -> None:
        self._shared = shared
        self._simplify_memo = simplify_memo if simplify_memo is not None else {}
        self._memo: dict[Term, Term] = {}
        self._inputs: dict[Term, tuple] = {}
        self._parents: dict[Term, set[Term]] = {}
        self._mapping: dict[Term, Term] = {}
        self._dirty: set[Term] = set()
        self.counter = CacheCounter("substitution")
        self.rewrites = 0

    @property
    def delta_size(self) -> int:
        return len(self._memo)

    def _clean(self, term: Term) -> Optional[Term]:
        """``term``'s result if it is clean in this view, else None."""
        if term in self._dirty:
            return None
        found = self._memo.get(term)
        if found is not None:
            return found
        shared = self._shared
        if term in shared._dirty:
            return None
        return shared._memo.get(term)

    def set_many(self, mapping: Mapping[Term, Term]) -> set[str]:
        """Install this group's assignments without touching shared state;
        returns the names of the symbols whose assignment changed."""
        shared = self._shared
        memo = self._memo
        changed: list[Term] = []
        moved: list[Term] = []
        for var, replacement in mapping.items():
            DeltaSubstitution._check(var, replacement)
            current = self._mapping.get(var)
            if current is None:
                current = shared._mapping.get(var)
            if current is not replacement:
                self._mapping[var] = replacement
                changed.append(var)
                result = simplify(replacement, self._simplify_memo)
                if self._clean(var) is not result:
                    memo[var] = result
                    moved.append(var)
        self.counter.invalidate(
            _mark_dirty(moved, self._dirty, self._parents, shared._parents)
        )
        return {var.payload for var in changed}

    def apply(self, term: Term) -> Term:
        """``term`` under this view's assignments, substituted and simplified."""
        cached = self._clean(term)
        if cached is not None:
            self.counter.hit()
            return cached
        self.counter.miss()
        clean = self._clean
        memo = self._memo
        inputs = self._inputs
        dirty = self._dirty
        shared = self._shared
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if clean(node) is not None:
                continue
            if not node.args:
                memo[node] = node
                continue
            if not expanded:
                stack.append((node, True))
                for child in node.args:
                    if clean(child) is None:
                        stack.append((child, False))
                continue
            results = tuple([clean(child) for child in node.args])
            before = inputs.get(node)
            if before is None:
                before = shared._inputs.get(node)
            dirty.discard(node)
            inputs[node] = results
            if before is None:
                _link(self._parents, node)
            elif results == before:  # the cutoff; see DeltaSubstitution.apply
                kept = memo.get(node)
                memo[node] = kept if kept is not None else shared._memo[node]
                continue
            memo[node] = _rewrite(node, results, self._simplify_memo)
            self.rewrites += 1
        return memo[term]


def _absorb_slice(shared: "DeltaSubstitution", piece: SubstitutionSlice) -> int:
    """Fold one worker slice back into the shared substitution.

    The group's assignments are installed and the shared ancestors of the
    symbols whose simplified assignment moved are marked dirty, as
    ``set_many`` would; then every node the slice evaluated takes the
    slice's entry and dirty flag, and every other node the slice marked
    stays marked.  Returns the number of grafted entries.
    """
    memo = shared._memo
    shared._mapping.update(piece._mapping)
    moved = [
        var
        for var in piece._mapping
        if var in piece._memo and memo.get(var) is not piece._memo[var]
    ]
    _mark_dirty(moved, shared._dirty, shared._parents)
    for key, result in piece._memo.items():
        if key not in memo:
            _link(shared._parents, key)
        memo[key] = result
    shared._inputs.update(piece._inputs)
    shared._dirty -= piece._memo.keys()
    shared._dirty |= piece._dirty
    shared.rewrites += piece.rewrites
    shared.counter.hit(piece.counter.hits)
    shared.counter.miss(piece.counter.misses)
    shared.counter.invalidate(piece.counter.invalidations)
    return len(piece._memo)


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
