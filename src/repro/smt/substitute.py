"""Substitution of control-plane assignments into data-plane expressions.

This plays the role Z3's e-matching plays in Flay (§4.1): given a data-plane
expression whose control-plane symbols act as placeholders, replace each
placeholder with the term encoding the active control-plane assignment, then
simplify.  Substitution is memoized over the shared DAG, so substituting
into the hundreds of program points of one program touches each unique
subterm once.

Two walkers live here.  :class:`Substitution` is the one-shot
specification: replace, rebuild, and leave simplification to the caller.
:class:`DeltaSubstitution` is what the engine runs, for single updates
and bursts alike: one fused substitute-and-simplify pass over the
*source* DAG that survives updates.  Each update pushes the symbols whose
assignment moved up the memoised DAG once, lowest node first, and stops
wherever a result comes back unchanged; what is left for the warm path's
pulls is dict hits.  The tests check it against the specification.
A snapshot carries its mapping and memo through the
:class:`~repro.smt.arena.TermArena` pickler, which does no rewriting of
its own; :meth:`DeltaSubstitution.rederive_edges` rebuilds the rest.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Mapping, Optional

from repro.ir.metrics import CacheCounter
from repro.smt import terms as T
from repro.smt.simplify import _rewrite, simplify
from repro.smt.terms import Term

def _check(var: Term, replacement: Term) -> None:
    if not var.is_var:
        raise T.SortError(f"substitution key {var!r} is not a variable")
    if var.width != replacement.width:
        raise T.SortError(
            f"substituting {replacement!r} (width {replacement.width}) "
            f"for {var!r} (width {var.width})"
        )


class Substitution:
    """A reusable variable→term mapping with a shared memo table.

    Reusing one ``Substitution`` across all program points of a program is
    the incremental trick: expressions share structure, and the memo makes
    the shared parts free after the first substitution.
    """

    def __init__(self, mapping: Mapping[Term, Term]) -> None:
        for var, replacement in mapping.items():
            _check(var, replacement)
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
    children)``.

    A control-plane update does not drop anything.  :meth:`set_many` diffs
    the new assignments against the old ones by term identity
    (hash-consing makes semantically-identical re-encodings the same
    object), *reports the changed symbols* — the warm path re-queries only
    points tainted by those — and **pushes** every symbol whose
    *simplified* assignment is a different object up the *parent edges*
    (``child → memoised nodes it is an argument of``, recorded when a node
    is first evaluated).  Nodes are re-evaluated lowest *height* first (a
    leaf is 0, a node one more than its tallest child), so each is
    rewritten at most once per call and after all of its children.  A node
    is queued only when a child's result changed, and one whose rewrite
    returns its stored result queues nothing (the **cutoff**): a new ACL
    entry that leaves ``std.drop`` the constant 1 rewrites the nodes
    directly above the table's symbols and nothing above those.  Once
    :meth:`set_many` returns every memo entry is current, so :meth:`apply`
    is a dict hit for any memoised term and evaluates only nodes it has
    never seen.

    An edge is a structural fact about two source terms, so edges are
    never removed and neither they, the memo nor the heights can outgrow
    the program's own DAG.

    The memo keys interned :class:`Term` objects directly (their hash is
    the precomputed structural hash and equality is identity) — which is
    what lets a snapshot carry it: both sides of every entry ride through
    a :class:`~repro.smt.arena.TermArena`.

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
        #: ``invalidations`` counts the nodes propagation re-evaluated.
        self.counter = counter if counter is not None else CacheCounter("substitution")
        #: Nodes rewritten, by propagation or by a first evaluation.
        self.rewrites = 0
        self._simplify_memo = simplify_memo if simplify_memo is not None else {}
        self._mapping: dict[Term, Term] = {}
        self._memo: dict[Term, Term] = {}
        self._parents: dict[Term, set[Term]] = {}
        self._heights: dict[Term, int] = {}
        self.set_many(mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def set_many(self, mapping: Mapping[Term, Term]) -> set[str]:
        """Install new assignments; returns the names of the symbols whose
        assignment changed.

        Assignments identical (by term identity) to the current ones are
        no-ops — the common case when a precise re-encoding keeps most of
        a table's symbols, or a batch re-touches an unchanged table — and
        are not checked again.  A changed assignment that *simplifies* to
        the object the old one did is reported (the symbol was
        re-assigned) but pushes nothing.  An assignment that is already
        installed was checked when it was, so only the ones that change
        are checked.
        """
        assigned, memo, simplify_memo = self._mapping, self._memo, self._simplify_memo
        changed: list[Term] = []
        moved: list[Term] = []
        for var, replacement in mapping.items():
            if assigned.get(var) is not replacement:
                _check(var, replacement)
                assigned[var] = replacement
                changed.append(var)
                result = simplify(replacement, simplify_memo)
                if memo.get(var) is not result:
                    memo[var] = result
                    moved.append(var)
        if moved:
            self.counter.invalidate(self._propagate(moved))
        return {var.payload for var in changed}

    def apply(self, term: Term) -> Term:
        """``term`` under the current assignments, substituted and simplified."""
        found = self._memo.get(term)
        if found is not None:
            self.counter.hit()
            return found
        self.counter.miss()
        return self._evaluate(term)

    def _propagate(self, moved: list) -> int:
        """Re-evaluate the memoised ancestors of ``moved`` whose result can
        have changed, lowest first; returns how many were re-evaluated.

        Heights order the worklist: a parent is taller than each of its
        children, so a popped node's children are all final and nothing
        is queued twice.  Only a node whose result moved queues its
        parents.
        """
        memo, heights, parents = self._memo, self._heights, self._parents
        simplify_memo = self._simplify_memo
        queued: set[Term] = set()
        heap: list = []

        def enqueue(node: Term) -> None:
            for parent in parents.get(node, ()):
                if parent not in queued:
                    queued.add(parent)
                    heappush(heap, (heights.get(parent, 0), len(queued), parent))

        for var in moved:
            enqueue(var)
        while heap:
            node = heappop(heap)[2]
            results = tuple([memo.get(child) for child in node.args])
            result = _rewrite(node, results, simplify_memo)
            if result is not memo.get(node):
                memo[node] = result
                enqueue(node)
        self.rewrites += len(queued)
        return len(queued)

    def _evaluate(self, term: Term) -> Term:
        """``term``'s result, evaluating children first every node the memo
        has none for and recording its parent edges and height."""
        memo, heights, parents = self._memo, self._heights, self._parents
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node in memo:
                continue
            if not node.args:
                memo[node] = node  # a constant or an unassigned symbol
                continue
            if not expanded:
                stack.append((node, True))
                stack.extend([(child, False) for child in node.args if child not in memo])
                continue
            results = tuple([memo[child] for child in node.args])
            memo[node] = _rewrite(node, results, self._simplify_memo)
            heights[node] = 1 + max([heights.get(child, 0) for child in node.args])
            _link(parents, node)
            self.rewrites += 1
        return memo[term]

    def rederive_edges(self) -> None:
        """Rebuild the parent edges and heights from the memo keys' own
        argument lists — all a restore needs after installing a
        snapshot's mapping and memo, since every memo entry is current."""
        self._heights = _derive_heights(self._memo)
        self._parents = {}
        for key in self._heights:
            _link(self._parents, key)


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


def _derive_heights(memo: Mapping[Term, Term]) -> dict[Term, int]:
    """The height of every memoised node that has arguments."""
    heights: dict[Term, int] = {}
    for key in memo:
        stack = [key]
        while stack:
            node = stack[-1]
            if node in heights or not node.args:
                stack.pop()
                continue
            pending = [child for child in node.args if child.args and child not in heights]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            heights[node] = 1 + max([heights.get(child, 0) for child in node.args])
    return heights


class SubstitutionSlice:
    """No code constructs this class; bursts push their assignments
    through the engine's one :class:`DeltaSubstitution`.

    It stays only because ``benchmarks/e2e/harness/tracing.py``
    ``WRAP_POINTS`` names ``SubstitutionSlice.set_many`` and
    ``SubstitutionSlice.apply``; ROADMAP item 20(b) deletes it with the
    other names that list keeps alive.
    """

    def set_many(self, mapping: Mapping[Term, Term]) -> set[str]:
        """Inert (see the class docstring)."""
        return set()

    def apply(self, term: Term) -> Term:
        """Inert (see the class docstring)."""
        return term


#: Operator → default-factory constructor; ``extract`` also takes its
#: ``(hi, lo)`` payload, and ``lookup`` its rows, default and width.
_BUILDERS = {
    T.OP_ADD: T.add, T.OP_SUB: T.sub, T.OP_MUL: T.mul,
    T.OP_AND: T.bv_and, T.OP_OR: T.bv_or, T.OP_XOR: T.bv_xor,
    T.OP_NOT: T.bv_not, T.OP_NEG: T.neg,
    T.OP_SHL: T.shl, T.OP_LSHR: T.lshr, T.OP_CONCAT: T.concat,
    T.OP_ITE: T.ite, T.OP_EQ: T.eq, T.OP_ULT: T.ult, T.OP_ULE: T.ule,
    T.OP_BAND: T.bool_and, T.OP_BOR: T.bool_or, T.OP_BNOT: T.bool_not,
    T.OP_EXTRACT: T.extract, T.OP_LOOKUP: T.lookup,
}


def _rebuild_with_args(node: Term, args: tuple) -> Term:
    if args == node.args:
        return node
    builder = _BUILDERS.get(node.op)
    if builder is None:
        raise T.SortError(f"cannot substitute under {node.op!r}")
    if node.op == T.OP_EXTRACT:
        return builder(args[0], *node.payload)
    if node.op == T.OP_LOOKUP:
        return builder(args, *node.payload, node.width)
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
