"""Unsigned-interval abstract interpretation over terms.

A cheap pre-check used by the solver facade: most executability queries in
network programs compare fields against constants, and an interval sweep
decides them without bit-blasting.  The paper's "100 ms per update" budget
depends on most queries being answered by fast paths like this.

An encoded table is an ``ite`` chain whose leaves are its action values,
and the interval join forgets which values those are (leaves ``{0, 5}``
become ``[0, 5]``).  So an equality between a point and an ``ite`` tree is
also decided by reading the tree's reachable leaves (:func:`_leaves_equal`):
every leaf a constant other than the point refutes it, every leaf the
point proves it.  The rule lives here and not in ``simplify``: the
simplifier's output is what the substitution memo stores and what a value
point's verdict reads, so a rewrite there would move terms and verdicts;
this pre-check only answers ``Solver.check_sat``, in front of a complete
SAT core, so it changes which layer decides and nothing else.

Every variable starts at its full range, so a conjunction is also read
under the equalities it asserts (:func:`_refuted_by_pins`): a conjunct
``v == c`` pins ``v``, and a sibling that is FALSE with ``v`` at ``[c, c]``
refutes the whole conjunction.  A first-match guard on a protocol and a
port, where the port is an ``ite`` on the protocol, contradicts its own
key that way; once a path has fixed a field, a later test on it is decided
(A Fast Compiler for NetKAT).  It lives here for the reason above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.smt import terms as T
from repro.smt.terms import Term


@dataclass(frozen=True)
class Interval:
    """A closed unsigned interval [lo, hi] of values a term may take."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


# Tri-state results for boolean terms under the abstraction.
DEFINITELY_TRUE = "true"
DEFINITELY_FALSE = "false"
UNKNOWN = "unknown"


def _full(width: int) -> Interval:
    return Interval(0, (1 << width) - 1)


def eval_interval(term: Term, memo: Optional[dict[int, Interval]] = None) -> Interval:
    """Interval of possible values of a bitvector term (free vars = full range)."""
    if not term.is_bv:
        raise T.SortError("eval_interval expects a bitvector term")
    return _sweep(term, {} if memo is None else memo)


def _sweep(term: Term, memo: dict, pins: bool = True):
    """Evaluate every node of ``term``'s DAG missing from ``memo`` into it.

    Iterative post-order so deeply nested entry-match chains don't blow the
    Python stack; boolean and bitvector nodes share the one memo.  ``pins``
    is off only for the refined evaluation of :func:`_refuted_by_pins`.
    """
    if id(term) not in memo:
        for node in T.iter_dag(term):
            if id(node) in memo:
                continue
            if node.is_bv:
                memo[id(node)] = _interval_node(node, memo)
            else:
                memo[id(node)] = _bool_node(node, memo, pins)
    return memo[id(term)]


def _interval_node(node: Term, memo) -> Interval:
    op = node.op
    width = node.width
    mask = (1 << width) - 1
    if op == T.OP_BVCONST:
        return Interval(node.payload, node.payload)
    if op in (T.OP_DATA_VAR, T.OP_CONTROL_VAR):
        return _full(width)
    if op == T.OP_ADD:
        a = memo[id(node.args[0])]
        b = memo[id(node.args[1])]
        if a.hi + b.hi <= mask:
            return Interval(a.lo + b.lo, a.hi + b.hi)
        return _full(width)
    if op == T.OP_SUB:
        a = memo[id(node.args[0])]
        b = memo[id(node.args[1])]
        if a.lo - b.hi >= 0:
            return Interval(a.lo - b.hi, a.hi - b.lo)
        return _full(width)
    if op == T.OP_AND:
        a = memo[id(node.args[0])]
        b = memo[id(node.args[1])]
        return Interval(0, min(a.hi, b.hi))
    if op == T.OP_OR:
        a = memo[id(node.args[0])]
        b = memo[id(node.args[1])]
        return Interval(max(a.lo, b.lo), mask if a.hi | b.hi else 0)
    if op == T.OP_LSHR:
        a = memo[id(node.args[0])]
        b = memo[id(node.args[1])]
        if b.is_point and b.lo < width:
            return Interval(a.lo >> b.lo, a.hi >> b.lo)
        return Interval(0, a.hi)
    if op == T.OP_SHL:
        a = memo[id(node.args[0])]
        b = memo[id(node.args[1])]
        if b.is_point and b.lo < width and a.hi << b.lo <= mask:
            return Interval(a.lo << b.lo, a.hi << b.lo)
        return _full(width)
    if op == T.OP_EXTRACT:
        hi, lo = node.payload
        inner = memo[id(node.args[0])]
        if inner.hi < (1 << (hi + 1)) and lo == 0:
            return Interval(inner.lo & ((1 << (hi + 1)) - 1), inner.hi)
        return _full(width)
    if op == T.OP_CONCAT:
        a = memo[id(node.args[0])]
        b = memo[id(node.args[1])]
        lo_width = node.args[1].width
        return Interval((a.lo << lo_width) | b.lo, (a.hi << lo_width) | b.hi)
    if op == T.OP_ITE:
        cond = memo[id(node.args[0])]
        if cond == DEFINITELY_TRUE:
            return memo[id(node.args[1])]
        if cond == DEFINITELY_FALSE:
            return memo[id(node.args[2])]
        a = memo[id(node.args[1])]
        b = memo[id(node.args[2])]
        return Interval(min(a.lo, b.lo), max(a.hi, b.hi))
    # mul, xor, not, neg: give up precisely but stay sound.
    return _full(width)


def eval_bool(term: Term, memo: Optional[dict[int, Interval]] = None) -> str:
    """Tri-state evaluation of a boolean term under the interval abstraction."""
    if not term.is_bool:
        raise T.SortError("eval_bool expects a boolean term")
    return _sweep(term, {} if memo is None else memo)


def _bool_node(term: Term, memo, pins: bool) -> str:
    op = term.op
    if op == T.OP_BOOLCONST:
        return DEFINITELY_TRUE if term.payload else DEFINITELY_FALSE
    if op == T.OP_BOOLVAR:
        return UNKNOWN
    if op == T.OP_BNOT:
        inner = memo[id(term.args[0])]
        if inner == DEFINITELY_TRUE:
            return DEFINITELY_FALSE
        if inner == DEFINITELY_FALSE:
            return DEFINITELY_TRUE
        return UNKNOWN
    if op == T.OP_BAND:
        results = [memo[id(a)] for a in term.args]
        if DEFINITELY_FALSE in results:
            return DEFINITELY_FALSE
        if all(r == DEFINITELY_TRUE for r in results):
            return DEFINITELY_TRUE
        if pins and _refuted_by_pins(term.args, results):
            return DEFINITELY_FALSE
        return UNKNOWN
    if op == T.OP_BOR:
        results = [memo[id(a)] for a in term.args]
        if DEFINITELY_TRUE in results:
            return DEFINITELY_TRUE
        if all(r == DEFINITELY_FALSE for r in results):
            return DEFINITELY_FALSE
        return UNKNOWN
    if op == T.OP_EQ:
        a, b = term.args
        if a.is_bool:
            ra, rb = memo[id(a)], memo[id(b)]
            if UNKNOWN in (ra, rb):
                return UNKNOWN
            return DEFINITELY_TRUE if ra == rb else DEFINITELY_FALSE
        ia, ib = memo[id(a)], memo[id(b)]
        if not ia.intersects(ib):
            return DEFINITELY_FALSE
        if ia.is_point and ib.is_point and ia.lo == ib.lo:
            return DEFINITELY_TRUE
        if ib.is_point and a.op == T.OP_ITE:
            return _leaves_equal(a, ib.lo, memo)
        if ia.is_point and b.op == T.OP_ITE:
            return _leaves_equal(b, ia.lo, memo)
        return UNKNOWN
    if op == T.OP_ULT:
        ia = memo[id(term.args[0])]
        ib = memo[id(term.args[1])]
        if ia.hi < ib.lo:
            return DEFINITELY_TRUE
        if ia.lo >= ib.hi:
            return DEFINITELY_FALSE
        return UNKNOWN
    if op == T.OP_ULE:
        ia = memo[id(term.args[0])]
        ib = memo[id(term.args[1])]
        if ia.hi <= ib.lo:
            return DEFINITELY_TRUE
        if ia.lo > ib.hi:
            return DEFINITELY_FALSE
        return UNKNOWN
    if op == T.OP_ITE:
        cond = memo[id(term.args[0])]
        if cond == DEFINITELY_TRUE:
            return memo[id(term.args[1])]
        if cond == DEFINITELY_FALSE:
            return memo[id(term.args[2])]
        ra = memo[id(term.args[1])]
        rb = memo[id(term.args[2])]
        if ra == rb and ra != UNKNOWN:
            return ra
        return UNKNOWN
    raise T.SortError(f"unknown boolean operator {op!r}")


_VARIABLES = (T.OP_DATA_VAR, T.OP_CONTROL_VAR)


def _pin(term: Term) -> Optional[tuple[Term, int]]:
    """``(v, c)`` when ``term`` is ``v == c`` for a variable ``v`` and a constant ``c``."""
    if term.op != T.OP_EQ:
        return None
    a, b = term.args
    if a.op in _VARIABLES and b.op == T.OP_BVCONST:
        return a, b.payload
    if b.op in _VARIABLES and a.op == T.OP_BVCONST:
        return b, a.payload
    return None


def _refuted_by_pins(conjuncts: tuple, results: list) -> bool:
    """Is a conjunction FALSE once read under the equalities it asserts?

    A conjunct ``v == c`` pins ``v``: the conjunction holds only where ``v``
    is ``c``.  Two different pins on one variable refute it outright;
    otherwise every other open conjunct is evaluated again in one memo
    seeded with each pinned ``v`` as the point ``[c, c]``, and one that comes
    out FALSE refutes the conjunction.  That is a first-match guard
    ``proto == 0xae && l4_port == 0xc15f`` whose ``l4_port`` is an ``ite``
    on ``proto == 6``: under its own key the port is 0.

    The refined evaluation does not apply this rule again, so nesting costs
    no recursion, and it skips a conjunct that is itself a conjunction:
    ``simplify`` flattens those, so only an unsimplified term has one, and
    re-reading it would re-walk every nesting level below.
    """
    refined: dict[int, Interval] = {}
    rest = []
    for arg, verdict in zip(conjuncts, results):
        if verdict != UNKNOWN or arg.op == T.OP_BAND:
            continue
        pin = _pin(arg)
        if pin is None:
            rest.append(arg)
            continue
        var, value = pin
        if refined.setdefault(id(var), Interval(value, value)).lo != value:
            return True
    return bool(refined) and any(
        _sweep(arg, refined, pins=False) == DEFINITELY_FALSE for arg in rest
    )


def _leaves_equal(tree: Term, value: int, memo) -> str:
    """Decide ``tree == value`` for an ite tree by reading its leaves.

    The interval join loses a table's action values (leaves ``{0, 5}``
    become ``[0, 5]``); the leaves themselves do not.  Every leaf reachable
    past the conditions the domain leaves open is read once: all constant
    and all equal to ``value`` is TRUE, all constant and all different is
    FALSE, anything else (a non-constant leaf, or a mix) is UNKNOWN.
    """
    seen: set[int] = set()
    stack = [tree]
    hit = miss = False
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == T.OP_ITE:
            cond = memo[id(node.args[0])]
            if cond != DEFINITELY_FALSE:
                stack.append(node.args[1])
            if cond != DEFINITELY_TRUE:
                stack.append(node.args[2])
            continue
        if node.op != T.OP_BVCONST:
            return UNKNOWN
        if node.payload == value:
            hit = True
        else:
            miss = True
        if hit and miss:
            return UNKNOWN
    return DEFINITELY_TRUE if hit else DEFINITELY_FALSE
