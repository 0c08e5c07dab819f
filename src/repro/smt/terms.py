"""Hash-consed bitvector/boolean term language.

This module is the reproduction's stand-in for Z3's AST layer.  Flay builds
*data-plane expressions* over two kinds of symbols:

* **data-plane symbols** (``@x@`` in the paper) — packet-derived values that
  may take any value, and
* **control-plane symbols** (``|x|`` in the paper) — placeholders that are
  later substituted with concrete control-plane assignments.

Terms are immutable and *hash-consed*: building the same term twice yields
the same object, so structural equality is identity (``is``) and memoized
passes key on ``id()``.  All bitvector arithmetic is unsigned modulo 2**width.

**Interning invariant (load-bearing for every ``id()``-keyed memo).**  A
:class:`TermFactory` holds a *strong* reference to every term it ever
built, for the lifetime of the factory; the shared :data:`DEFAULT_FACTORY`
is module-level and therefore immortal.  Consequently a term built through
the module-level constructors is never garbage-collected, its ``id()`` is
stable for the life of the process, and a memo keyed on ``id(term)`` can
never alias a recycled address.  The cross-update caches (delta
substitution, simplify memos, solver verdict cache, CNF fragments) rely on
this; ``tests/smt/test_interning.py`` is the regression test.  Caches keyed
directly on :class:`Term` objects (hash is precomputed, equality short-cuts
on identity) additionally hold their own strong references and are safe
even for terms from short-lived private factories.

Because identity *is* the cache key, terms deliberately refuse to pickle
(see :meth:`Term.__reduce__`): a pickled copy in another process would be
a distinct object and silently miss every memo.  The supported way to
move terms across a pickle boundary (a warm-state snapshot) is the
:class:`repro.smt.arena.TermArena` codec — encode to integer indices,
pickle the arena, and decode *through the default factory* on the other
side, which re-interns every node and restores the identity invariant.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import FlayError, STAGE_QUERY


class SortError(FlayError, TypeError):
    """Raised when an operator is applied to terms of the wrong sort."""

    default_stage = STAGE_QUERY


class Term:
    """A node in the hash-consed term DAG.

    Attributes:
        op: operator tag, one of the ``OP_*`` constants below.
        args: child terms (a tuple; empty for leaves).
        width: bit width for bitvector terms, ``0`` for boolean terms.
        payload: leaf data — the integer value of a constant or the name of
            a variable; ``None`` for interior nodes (except ``extract``,
            which stores its ``(hi, lo)`` bounds here).
    """

    __slots__ = ("op", "args", "width", "payload", "_hash", "__weakref__")

    def __init__(self, op: str, args: tuple, width: int, payload) -> None:
        self.op = op
        self.args = args
        self.width = width
        self.payload = payload
        self._hash = hash((op, args, width, payload))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # Hash-consing guarantees structurally-equal terms from the same
        # factory are the same object, so equality is identity plus a
        # shallow check (children compared by identity).  Deep structural
        # recursion would blow the stack on the 1000-entry ite chains the
        # Table 3 workload produces.
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if (
            self.op != other.op
            or self.width != other.width
            or self.payload != other.payload
            or len(self.args) != len(other.args)
        ):
            return False
        return all(a is b for a, b in zip(self.args, other.args))

    # -- convenience predicates -------------------------------------------

    @property
    def is_bool(self) -> bool:
        return self.width == 0

    @property
    def is_bv(self) -> bool:
        return self.width > 0

    @property
    def is_const(self) -> bool:
        return self.op in (OP_BVCONST, OP_BOOLCONST)

    @property
    def is_var(self) -> bool:
        return self.op in (OP_DATA_VAR, OP_CONTROL_VAR, OP_BOOLVAR)

    @property
    def is_control_var(self) -> bool:
        return self.op == OP_CONTROL_VAR

    @property
    def is_data_var(self) -> bool:
        return self.op == OP_DATA_VAR

    @property
    def value(self) -> int:
        """The concrete value of a constant term."""
        if not self.is_const:
            raise SortError(f"term {self!r} is not a constant")
        return self.payload

    @property
    def name(self) -> str:
        """The name of a variable term."""
        if not self.is_var:
            raise SortError(f"term {self!r} is not a variable")
        return self.payload

    def __repr__(self) -> str:
        return f"Term({to_string(self)})"

    # Identity is the cache key: a pickled copy would alias nothing and
    # silently miss every id()-keyed memo.  Ship a TermArena instead and
    # decode through the default factory (repro.smt.arena).
    def __reduce__(self):
        raise TypeError(
            "terms are not picklable; encode through repro.smt.arena."
            "TermArena and decode on the other side"
        )


# Operator tags.  Leaves:
OP_BVCONST = "bvconst"
OP_BOOLCONST = "boolconst"
OP_DATA_VAR = "datavar"
OP_CONTROL_VAR = "ctrlvar"
OP_BOOLVAR = "boolvar"
# Bitvector operators (result is a bitvector):
OP_ADD = "bvadd"
OP_SUB = "bvsub"
OP_MUL = "bvmul"
OP_AND = "bvand"
OP_OR = "bvor"
OP_XOR = "bvxor"
OP_NOT = "bvnot"
OP_NEG = "bvneg"
OP_SHL = "bvshl"
OP_LSHR = "bvlshr"
OP_CONCAT = "concat"
OP_EXTRACT = "extract"
OP_ITE = "ite"
# Predicates (result is boolean):
OP_EQ = "eq"
OP_ULT = "ult"
OP_ULE = "ule"
# Boolean connectives:
OP_BAND = "and"
OP_BOR = "or"
OP_BNOT = "not"

_COMMUTATIVE = frozenset({OP_ADD, OP_MUL, OP_AND, OP_OR, OP_XOR, OP_EQ, OP_BAND, OP_BOR})


class TermFactory:
    """Builds and interns terms.

    A factory owns its intern table; terms from different factories may be
    mixed (equality falls back to structural comparison) but doing so
    forfeits the ``is``-equality fast path.  The module-level helpers below
    use a shared default factory, which is what the rest of the codebase
    uses.
    """

    def __init__(self) -> None:
        self._table: dict[tuple, Term] = {}
        self._fresh_counter = itertools.count()

    def _mk(self, op: str, args: tuple, width: int, payload=None) -> Term:
        key = (op, args, width, payload)
        term = self._table.get(key)
        if term is None:
            # setdefault is a single atomic dict operation under the GIL, so
            # two threads racing to intern the same structure both get the
            # one winning object — a plain check-then-store could let a
            # thread switch publish two structurally-equal terms and break
            # every id()-keyed memo.  The batch scheduler's worker pool
            # builds terms concurrently through this shared factory.
            term = self._table.setdefault(key, Term(op, args, width, payload))
        return term

    # -- leaves ------------------------------------------------------------

    def bv_const(self, value: int, width: int) -> Term:
        if width <= 0:
            raise SortError(f"bitvector width must be positive, got {width}")
        return self._mk(OP_BVCONST, (), width, value & ((1 << width) - 1))

    def bool_const(self, value: bool) -> Term:
        return self._mk(OP_BOOLCONST, (), 0, bool(value))

    def data_var(self, name: str, width: int) -> Term:
        if width <= 0:
            raise SortError(f"bitvector width must be positive, got {width}")
        return self._mk(OP_DATA_VAR, (), width, name)

    def control_var(self, name: str, width: int) -> Term:
        if width <= 0:
            raise SortError(f"bitvector width must be positive, got {width}")
        return self._mk(OP_CONTROL_VAR, (), width, name)

    def bool_var(self, name: str) -> Term:
        return self._mk(OP_BOOLVAR, (), 0, name)

    def fresh_data_var(self, prefix: str, width: int) -> Term:
        """A data-plane variable with a never-before-used name.

        Used by the overapproximation path: replacing a control symbol with
        a fresh unconstrained data symbol is exactly "assume this entry set
        covers every action and parameter".
        """
        return self.data_var(f"{prefix}!{next(self._fresh_counter)}", width)

    # -- interior nodes -----------------------------------------------------

    def _require_bv(self, *terms: Term) -> int:
        width = terms[0].width
        for term in terms:
            if not term.is_bv:
                raise SortError(f"expected bitvector, got boolean {term!r}")
            if term.width != width:
                raise SortError(
                    f"width mismatch: {term.width} vs {width} in {terms!r}"
                )
        return width

    def _require_bool(self, *terms: Term) -> None:
        for term in terms:
            if not term.is_bool:
                raise SortError(f"expected boolean, got {term!r}")

    def _binop(self, op: str, a: Term, b: Term) -> Term:
        width = self._require_bv(a, b)
        if op in _COMMUTATIVE and id(b) < id(a):
            a, b = b, a  # canonical argument order for commutative ops
        return self._mk(op, (a, b), width)

    def add(self, a: Term, b: Term) -> Term:
        return self._binop(OP_ADD, a, b)

    def sub(self, a: Term, b: Term) -> Term:
        width = self._require_bv(a, b)
        return self._mk(OP_SUB, (a, b), width)

    def mul(self, a: Term, b: Term) -> Term:
        return self._binop(OP_MUL, a, b)

    def bv_and(self, a: Term, b: Term) -> Term:
        return self._binop(OP_AND, a, b)

    def bv_or(self, a: Term, b: Term) -> Term:
        return self._binop(OP_OR, a, b)

    def bv_xor(self, a: Term, b: Term) -> Term:
        return self._binop(OP_XOR, a, b)

    def bv_not(self, a: Term) -> Term:
        width = self._require_bv(a)
        return self._mk(OP_NOT, (a,), width)

    def neg(self, a: Term) -> Term:
        width = self._require_bv(a)
        return self._mk(OP_NEG, (a,), width)

    def shl(self, a: Term, b: Term) -> Term:
        width = self._require_bv(a, b)
        return self._mk(OP_SHL, (a, b), width)

    def lshr(self, a: Term, b: Term) -> Term:
        width = self._require_bv(a, b)
        return self._mk(OP_LSHR, (a, b), width)

    def concat(self, a: Term, b: Term) -> Term:
        self._require_bv(a)
        self._require_bv(b)
        return self._mk(OP_CONCAT, (a, b), a.width + b.width)

    def extract(self, a: Term, hi: int, lo: int) -> Term:
        self._require_bv(a)
        if not (0 <= lo <= hi < a.width):
            raise SortError(f"extract [{hi}:{lo}] out of range for width {a.width}")
        return self._mk(OP_EXTRACT, (a,), hi - lo + 1, (hi, lo))

    def ite(self, cond: Term, then: Term, orelse: Term) -> Term:
        self._require_bool(cond)
        if then.is_bool != orelse.is_bool:
            raise SortError("ite branches must share a sort")
        if then.is_bv:
            width = self._require_bv(then, orelse)
        else:
            width = 0
        return self._mk(OP_ITE, (cond, then, orelse), width)

    # -- predicates ---------------------------------------------------------

    def eq(self, a: Term, b: Term) -> Term:
        if a.is_bool and b.is_bool:
            if id(b) < id(a):
                a, b = b, a
            return self._mk(OP_EQ, (a, b), 0)
        self._require_bv(a, b)
        if id(b) < id(a):
            a, b = b, a
        return self._mk(OP_EQ, (a, b), 0)

    def ult(self, a: Term, b: Term) -> Term:
        self._require_bv(a, b)
        return self._mk(OP_ULT, (a, b), 0)

    def ule(self, a: Term, b: Term) -> Term:
        self._require_bv(a, b)
        return self._mk(OP_ULE, (a, b), 0)

    # -- boolean connectives --------------------------------------------------

    def bool_and(self, *terms: Term) -> Term:
        self._require_bool(*terms)
        if not terms:
            return self.bool_const(True)
        if len(terms) == 1:
            return terms[0]
        args = tuple(sorted(terms, key=id))
        return self._mk(OP_BAND, args, 0)

    def bool_or(self, *terms: Term) -> Term:
        self._require_bool(*terms)
        if not terms:
            return self.bool_const(False)
        if len(terms) == 1:
            return terms[0]
        args = tuple(sorted(terms, key=id))
        return self._mk(OP_BOR, args, 0)

    def bool_not(self, a: Term) -> Term:
        self._require_bool(a)
        return self._mk(OP_BNOT, (a,), 0)

    def implies(self, a: Term, b: Term) -> Term:
        return self.bool_or(self.bool_not(a), b)


#: The shared factory used by the module-level constructors.
DEFAULT_FACTORY = TermFactory()

# Module-level constructors bound to the default factory.  These are what
# the rest of the codebase imports; keeping one shared intern table is what
# makes cross-module term identity work.
bv_const = DEFAULT_FACTORY.bv_const
bool_const = DEFAULT_FACTORY.bool_const
data_var = DEFAULT_FACTORY.data_var
control_var = DEFAULT_FACTORY.control_var
bool_var = DEFAULT_FACTORY.bool_var
fresh_data_var = DEFAULT_FACTORY.fresh_data_var
add = DEFAULT_FACTORY.add
sub = DEFAULT_FACTORY.sub
mul = DEFAULT_FACTORY.mul
bv_and = DEFAULT_FACTORY.bv_and
bv_or = DEFAULT_FACTORY.bv_or
bv_xor = DEFAULT_FACTORY.bv_xor
bv_not = DEFAULT_FACTORY.bv_not
neg = DEFAULT_FACTORY.neg
shl = DEFAULT_FACTORY.shl
lshr = DEFAULT_FACTORY.lshr
concat = DEFAULT_FACTORY.concat
extract = DEFAULT_FACTORY.extract
ite = DEFAULT_FACTORY.ite
eq = DEFAULT_FACTORY.eq
ult = DEFAULT_FACTORY.ult
ule = DEFAULT_FACTORY.ule
bool_and = DEFAULT_FACTORY.bool_and
bool_or = DEFAULT_FACTORY.bool_or
bool_not = DEFAULT_FACTORY.bool_not
implies = DEFAULT_FACTORY.implies

TRUE = bool_const(True)
FALSE = bool_const(False)


def ne(a: Term, b: Term) -> Term:
    """Disequality, expressed as ``not (a == b)``."""
    return bool_not(eq(a, b))


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def iter_dag(term: Term) -> Iterator[Term]:
    """Yield every node of the term DAG exactly once (post-order)."""
    seen: set[int] = set()
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            yield node
        else:
            stack.append((node, True))
            for child in node.args:
                if id(child) not in seen:
                    stack.append((child, False))


def variables(term: Term) -> set[Term]:
    """All variable leaves reachable from ``term``."""
    return {node for node in iter_dag(term) if node.is_var}


def control_variables(term: Term) -> set[Term]:
    """The control-plane symbols in ``term`` — the taint sources."""
    return {node for node in iter_dag(term) if node.is_control_var}


def data_variables(term: Term) -> set[Term]:
    return {node for node in iter_dag(term) if node.is_data_var}


def dag_size(term: Term) -> int:
    """Number of unique nodes in the term DAG."""
    return sum(1 for _ in iter_dag(term))


#: Process-wide tree-size memo.  Keyed on the Term itself (not ``id``) so
#: the cache holds strong references to its keys; terms are immutable, so
#: entries are valid forever.  The executability budget check consults
#: ``tree_size`` on the same large residual DAGs on every update — this
#: memo makes the repeat checks O(1).
_TREE_SIZE_MEMO: dict["Term", int] = {}


def tree_size(term: Term, _memo: Optional[dict[int, int]] = None) -> int:
    """Number of nodes counting shared subterms once per occurrence.

    This is the "expression complexity" metric the paper blames for
    slowdowns with large tables: nesting makes the *tree* explode even when
    the DAG stays small.  Results are memoized process-wide; pass an
    explicit ``_memo`` (keyed on ``id``) to bypass the shared cache.
    """
    if _memo is not None:
        for node in iter_dag(term):  # post-order: children first
            if id(node) not in _memo:
                _memo[id(node)] = 1 + sum(_memo[id(arg)] for arg in node.args)
        return _memo[id(term)]
    memo = _TREE_SIZE_MEMO
    cached = memo.get(term)
    if cached is not None:
        return cached
    # Post-order walk that treats already-memoized subterms as leaves, so
    # an incremental update only pays for its delta layer.
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in memo:
            continue
        if expanded:
            memo[node] = 1 + sum(memo[arg] for arg in node.args)
        else:
            stack.append((node, True))
            for child in node.args:
                if child not in memo:
                    stack.append((child, False))
    return memo[term]


# ---------------------------------------------------------------------------
# Concrete evaluation (the testing oracle for the simplifier and solver)
# ---------------------------------------------------------------------------


def evaluate(term: Term, assignment: dict[str, int]) -> int:
    """Evaluate ``term`` under a concrete assignment.

    Boolean results are reported as 0/1.  An ``ite`` evaluates its
    condition and then only the branch taken, so an entry chain costs the
    conditions up to the first match, not every entry's subterm; all other
    operators evaluate every argument.  Raises ``KeyError`` for an
    unassigned variable the evaluation actually reads.  Iterative and
    memoised per node, so deep ite chains and shared subterms are fine.
    """
    values: dict[int, int] = {}
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in values:
            stack.pop()
            continue
        if node.op == OP_ITE:
            cond = values.get(id(node.args[0]))
            if cond is None:
                stack.append(node.args[0])
                continue
            taken = node.args[1] if cond else node.args[2]
            value = values.get(id(taken))
            if value is None:
                stack.append(taken)
                continue
        else:
            pending = [arg for arg in node.args if id(arg) not in values]
            if pending:
                stack.extend(pending)
                continue
            value = _eval_node(node, values, assignment)
        values[id(node)] = value
        stack.pop()
    return values[id(term)]


def _eval_node(node: Term, values: dict[int, int], assignment: dict[str, int]) -> int:
    """``node``'s value given its arguments' values (by ``id``); ``ite`` is
    :func:`evaluate`'s own case."""
    op = node.op
    mask = (1 << node.width) - 1 if node.width else 1
    if op == OP_BVCONST:
        return node.payload
    if op == OP_BOOLCONST:
        return int(node.payload)
    if op in (OP_DATA_VAR, OP_CONTROL_VAR, OP_BOOLVAR):
        return assignment[node.payload] & mask
    args = [values[id(arg)] for arg in node.args]
    if op == OP_ADD:
        return (args[0] + args[1]) & mask
    if op == OP_SUB:
        return (args[0] - args[1]) & mask
    if op == OP_MUL:
        return (args[0] * args[1]) & mask
    if op == OP_AND:
        return args[0] & args[1]
    if op == OP_OR:
        return args[0] | args[1]
    if op == OP_XOR:
        return args[0] ^ args[1]
    if op == OP_NOT:
        return ~args[0] & mask
    if op == OP_NEG:
        return (-args[0]) & mask
    if op == OP_SHL:
        return (args[0] << args[1]) & mask if args[1] < node.width else 0
    if op == OP_LSHR:
        return (args[0] >> args[1]) if args[1] < node.width else 0
    if op == OP_CONCAT:
        return (args[0] << node.args[1].width) | args[1]
    if op == OP_EXTRACT:
        hi, lo = node.payload
        return (args[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
    if op == OP_EQ:
        return int(args[0] == args[1])
    if op == OP_ULT:
        return int(args[0] < args[1])
    if op == OP_ULE:
        return int(args[0] <= args[1])
    if op == OP_BAND:
        return int(all(args))
    if op == OP_BOR:
        return int(any(args))
    if op == OP_BNOT:
        return int(not args[0])
    raise SortError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Printing (paper notation: |x| control symbols, @x@ data symbols)
# ---------------------------------------------------------------------------

_INFIX = {
    OP_ADD: "+", OP_SUB: "-", OP_MUL: "*",
    OP_AND: "&", OP_OR: "|", OP_XOR: "^",
    OP_SHL: "<<", OP_LSHR: ">>",
    OP_EQ: "==", OP_ULT: "<", OP_ULE: "<=",
    OP_CONCAT: "++",
}


def to_string(term: Term, max_depth: int = 40) -> str:
    """Render a term in the paper's notation.

    Control-plane symbols print as ``|name|``, data-plane symbols as
    ``@name@`` — matching Fig. 5 of the paper.  Deeply nested terms are
    elided with ``...`` past ``max_depth``.
    """

    def walk(node: Term, depth: int) -> str:
        if depth > max_depth:
            return "..."
        op = node.op
        if op == OP_BVCONST:
            return f"{node.payload:#x}"
        if op == OP_BOOLCONST:
            return "true" if node.payload else "false"
        if op == OP_DATA_VAR:
            return f"@{node.payload}@"
        if op == OP_CONTROL_VAR:
            return f"|{node.payload}|"
        if op == OP_BOOLVAR:
            return f"?{node.payload}?"
        if op in _INFIX:
            a, b = node.args
            return f"({walk(a, depth + 1)} {_INFIX[op]} {walk(b, depth + 1)})"
        if op == OP_NOT:
            return f"~{walk(node.args[0], depth + 1)}"
        if op == OP_NEG:
            return f"-{walk(node.args[0], depth + 1)}"
        if op == OP_BNOT:
            return f"!{walk(node.args[0], depth + 1)}"
        if op == OP_BAND:
            return "(" + " && ".join(walk(a, depth + 1) for a in node.args) + ")"
        if op == OP_BOR:
            return "(" + " || ".join(walk(a, depth + 1) for a in node.args) + ")"
        if op == OP_ITE:
            c, t, e = node.args
            return (
                f"({walk(c, depth + 1)} ? {walk(t, depth + 1)}"
                f" : {walk(e, depth + 1)})"
            )
        if op == OP_EXTRACT:
            hi, lo = node.payload
            return f"{walk(node.args[0], depth + 1)}[{hi}:{lo}]"
        raise SortError(f"unknown operator {op!r}")

    return walk(term, 0)
