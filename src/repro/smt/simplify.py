"""Algebraic simplification of terms.

This is the workhorse of Flay's partial evaluation: after control-plane
assignments are substituted into a data-plane expression, ``simplify``
decides whether the expression collapses to a constant (→ the program point
can be specialized) or still depends on data-plane input.

The pass is a bottom-up rewriter with memoization over the hash-consed DAG.
It implements the three preprocessing steps the paper names (§4.1
"Processing updates quickly"): constant folding, common-subexpression
elimination (free, via hash-consing), and strength reduction.

This module is the only statement of the rewrite rules: a term that
arrives in a :class:`~repro.smt.arena.TermArena` is decoded first and
simplified here.
"""

from __future__ import annotations

from typing import Optional

from repro.smt import terms as T
from repro.smt.terms import Term


def simplify(term: Term, memo: Optional[dict[int, Term]] = None) -> Term:
    """Return an equivalent, simpler term.

    A shared ``memo`` (keyed by ``id``) may be passed when simplifying many
    expressions that share structure — e.g. all program points of one
    program — which is exactly Flay's batched update-analysis path.  The
    rewrite rules hand the same memo to the ``simplify`` calls they make
    on the terms they build, so a subterm is walked once per memo however
    many rule applications reach it.
    """
    if memo is None:
        memo = {}
    # Iterative worklist to avoid Python recursion limits on the deeply
    # nested entry-match expressions produced by large tables.
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.args:
                if id(child) not in memo:
                    stack.append((child, False))
            continue
        new_args = tuple(memo[id(child)] for child in node.args)
        memo[id(node)] = _rewrite(node, new_args, memo)
    return memo[id(term)]


def is_constant(term: Term) -> bool:
    """True when ``term`` is (already) a literal constant."""
    return term.is_const


def constant_value(term: Term) -> Optional[int]:
    """The concrete value of ``term`` if it is a constant, else ``None``."""
    if term.op == T.OP_BVCONST:
        return term.payload
    if term.op == T.OP_BOOLCONST:
        return int(term.payload)
    return None


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------


def _rebuild(node: Term, args: tuple) -> Term:
    """Rebuild ``node`` with simplified ``args`` (no rule fired)."""
    if args == node.args:
        return node
    op = node.op
    f = T.DEFAULT_FACTORY
    if op == T.OP_ADD:
        return f.add(*args)
    if op == T.OP_SUB:
        return f.sub(*args)
    if op == T.OP_MUL:
        return f.mul(*args)
    if op == T.OP_AND:
        return f.bv_and(*args)
    if op == T.OP_OR:
        return f.bv_or(*args)
    if op == T.OP_XOR:
        return f.bv_xor(*args)
    if op == T.OP_NOT:
        return f.bv_not(*args)
    if op == T.OP_NEG:
        return f.neg(*args)
    if op == T.OP_SHL:
        return f.shl(*args)
    if op == T.OP_LSHR:
        return f.lshr(*args)
    if op == T.OP_CONCAT:
        return f.concat(*args)
    if op == T.OP_EXTRACT:
        hi, lo = node.payload
        return f.extract(args[0], hi, lo)
    if op == T.OP_ITE:
        return f.ite(*args)
    if op == T.OP_EQ:
        return f.eq(*args)
    if op == T.OP_ULT:
        return f.ult(*args)
    if op == T.OP_ULE:
        return f.ule(*args)
    if op == T.OP_BAND:
        return f.bool_and(*args)
    if op == T.OP_BOR:
        return f.bool_or(*args)
    if op == T.OP_BNOT:
        return f.bool_not(*args)
    raise T.SortError(f"cannot rebuild {op!r}")


def _all_const(args: tuple) -> bool:
    return all(a.is_const for a in args)


def _fold(node: Term, args: tuple) -> Term:
    """Constant-fold an all-constant node via the evaluation oracle."""
    rebuilt = _rebuild(node, args)
    value = T.evaluate(rebuilt, {})
    if rebuilt.is_bool:
        return T.bool_const(bool(value))
    return T.bv_const(value, rebuilt.width)


def _rewrite(node: Term, args: tuple, memo: dict) -> Term:
    """One bottom-up step: ``node`` over already-simplified ``args``.

    Only ``node``'s operator, width and payload are read, and every rule
    is symmetric in the arguments of a commutative operator, so the
    result is the same whether ``node`` is a substituted term or the
    source term it was substituted from — which is what lets
    :class:`~repro.smt.substitute.DeltaSubstitution` rewrite source nodes
    over their children's results without building the substituted term.
    """
    op = node.op
    if not node.args:
        return node
    if _all_const(args):
        return _fold(node, args)

    handler = _RULES.get(op)
    if handler is not None:
        result = handler(node, args, memo)
        if result is not None:
            return result
    return _rebuild(node, args)


def _is_zero(t: Term) -> bool:
    return t.op == T.OP_BVCONST and t.payload == 0


def _is_ones(t: Term) -> bool:
    return t.op == T.OP_BVCONST and t.payload == (1 << t.width) - 1


def _is_one(t: Term) -> bool:
    return t.op == T.OP_BVCONST and t.payload == 1


def _rw_add(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return None


def _rw_sub(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if _is_zero(b):
        return a
    if a is b:
        return T.bv_const(0, node.width)
    return None


def _rw_mul(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    for x, y in ((a, b), (b, a)):
        if _is_zero(x):
            return T.bv_const(0, node.width)
        if _is_one(x):
            return y
        # Strength reduction: multiply by a power of two becomes a shift.
        if x.op == T.OP_BVCONST and x.payload and (x.payload & (x.payload - 1)) == 0:
            shift = x.payload.bit_length() - 1
            return T.shl(y, T.bv_const(shift, node.width))
    return None


def _rw_bvand(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if a is b:
        return a
    for x, y in ((a, b), (b, a)):
        if _is_zero(x):
            return T.bv_const(0, node.width)
        if _is_ones(x):
            return y
    return None


def _rw_bvor(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if a is b:
        return a
    for x, y in ((a, b), (b, a)):
        if _is_zero(x):
            return y
        if _is_ones(x):
            return T.bv_const((1 << node.width) - 1, node.width)
    return None


def _rw_bvxor(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if a is b:
        return T.bv_const(0, node.width)
    for x, y in ((a, b), (b, a)):
        if _is_zero(x):
            return y
    return None


def _rw_bvnot(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    (a,) = args
    if a.op == T.OP_NOT:
        return a.args[0]
    return None


def _rw_shift(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if _is_zero(b):
        return a
    if _is_zero(a):
        return T.bv_const(0, node.width)
    if b.op == T.OP_BVCONST and b.payload >= node.width:
        return T.bv_const(0, node.width)
    return None


def _rw_extract(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    (a,) = args
    hi, lo = node.payload
    if lo == 0 and hi == a.width - 1:
        return a
    if a.op == T.OP_EXTRACT:
        inner_hi, inner_lo = a.payload
        return T.extract(a.args[0], inner_lo + hi, inner_lo + lo)
    if a.op == T.OP_CONCAT:
        left, right = a.args
        if hi < right.width:
            return simplify(T.extract(right, hi, lo), memo)
        if lo >= right.width:
            return simplify(T.extract(left, hi - right.width, lo - right.width), memo)
    return None


def _rw_ite(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    cond, then, orelse = args
    if cond.op == T.OP_BOOLCONST:
        return then if cond.payload else orelse
    if then is orelse:
        return then
    if cond.op == T.OP_BNOT:
        return T.ite(cond.args[0], orelse, then)
    if node.is_bool:
        # ite(c, true, e) == c or e;  ite(c, t, false) == c and t, etc.
        if then.op == T.OP_BOOLCONST:
            if then.payload:
                return simplify(T.bool_or(cond, orelse), memo)
            return simplify(T.bool_and(T.bool_not(cond), orelse), memo)
        if orelse.op == T.OP_BOOLCONST:
            if orelse.payload:
                return simplify(T.bool_or(T.bool_not(cond), then), memo)
            return simplify(T.bool_and(cond, then), memo)
    # Collapse ite chains with identical conditions:
    # ite(c, ite(c, a, _), e) -> ite(c, a, e)
    if then.op == T.OP_ITE and then.args[0] is cond:
        return simplify(T.ite(cond, then.args[1], orelse), memo)
    if orelse.op == T.OP_ITE and orelse.args[0] is cond:
        return simplify(T.ite(cond, then, orelse.args[2]), memo)
    return None


def _rw_eq(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if a is b:
        return T.TRUE
    if a.is_bv and a.is_const and b.is_const:
        return T.bool_const(a.payload == b.payload)
    # eq(ite(c, k1, k2), k) with constant branches folds to c / !c / false.
    for x, y in ((a, b), (b, a)):
        if x.op == T.OP_ITE and y.is_const:
            cond, then, orelse = x.args
            if then.is_const and orelse.is_const:
                then_hit = then.payload == y.payload
                else_hit = orelse.payload == y.payload
                if then_hit and else_hit:
                    return T.TRUE
                if then_hit:
                    return cond
                if else_hit:
                    return simplify(T.bool_not(cond), memo)
                return T.FALSE
    return None


def _rw_ult(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if a is b:
        return T.FALSE
    if _is_zero(b):
        return T.FALSE
    if _is_zero(a):
        return simplify(T.bool_not(T.eq(b, T.bv_const(0, b.width))), memo)
    return None


def _rw_ule(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    a, b = args
    if a is b:
        return T.TRUE
    if _is_zero(a):
        return T.TRUE
    if _is_ones(b):
        return T.TRUE
    return None


def _rw_band(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    flat: list[Term] = []
    seen: set[int] = set()
    for arg in args:
        parts = arg.args if arg.op == T.OP_BAND else (arg,)
        for part in parts:
            if part.op == T.OP_BOOLCONST:
                if not part.payload:
                    return T.FALSE
                continue
            if id(part) in seen:
                continue
            seen.add(id(part))
            flat.append(part)
    # x && !x  ->  false
    negated = {id(p.args[0]) for p in flat if p.op == T.OP_BNOT}
    if any(id(p) in negated for p in flat if p.op != T.OP_BNOT):
        return T.FALSE
    if not flat:
        return T.TRUE
    if len(flat) == 1:
        return flat[0]
    return T.bool_and(*flat)


def _rw_bor(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    flat: list[Term] = []
    seen: set[int] = set()
    for arg in args:
        parts = arg.args if arg.op == T.OP_BOR else (arg,)
        for part in parts:
            if part.op == T.OP_BOOLCONST:
                if part.payload:
                    return T.TRUE
                continue
            if id(part) in seen:
                continue
            seen.add(id(part))
            flat.append(part)
    negated = {id(p.args[0]) for p in flat if p.op == T.OP_BNOT}
    if any(id(p) in negated for p in flat if p.op != T.OP_BNOT):
        return T.TRUE
    if not flat:
        return T.FALSE
    if len(flat) == 1:
        return flat[0]
    return T.bool_or(*flat)


def _rw_bnot(node: Term, args: tuple, memo: dict) -> Optional[Term]:
    (a,) = args
    if a.op == T.OP_BNOT:
        return a.args[0]
    if a.op == T.OP_BOOLCONST:
        return T.bool_const(not a.payload)
    return None


_RULES = {
    T.OP_ADD: _rw_add,
    T.OP_SUB: _rw_sub,
    T.OP_MUL: _rw_mul,
    T.OP_AND: _rw_bvand,
    T.OP_OR: _rw_bvor,
    T.OP_XOR: _rw_bvxor,
    T.OP_NOT: _rw_bvnot,
    T.OP_SHL: _rw_shift,
    T.OP_LSHR: _rw_shift,
    T.OP_EXTRACT: _rw_extract,
    T.OP_ITE: _rw_ite,
    T.OP_EQ: _rw_eq,
    T.OP_ULT: _rw_ult,
    T.OP_ULE: _rw_ule,
    T.OP_BAND: _rw_band,
    T.OP_BOR: _rw_bor,
    T.OP_BNOT: _rw_bnot,
}
