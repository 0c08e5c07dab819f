"""Tests for the interval abstract domain."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import interval as I
from repro.smt import terms as T
from repro.smt.solver import Solver

X = T.data_var("iv_x", 8)


def c(v, w=8):
    return T.bv_const(v, w)


class TestInterval:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            I.Interval(5, 3)

    def test_point_and_contains(self):
        point = I.Interval(4, 4)
        assert point.is_point
        assert point.contains(4) and not point.contains(5)

    def test_intersects(self):
        assert I.Interval(0, 5).intersects(I.Interval(5, 9))
        assert not I.Interval(0, 4).intersects(I.Interval(5, 9))


class TestEvalInterval:
    def test_const_is_point(self):
        assert I.eval_interval(c(7)) == I.Interval(7, 7)

    def test_free_var_is_full_range(self):
        assert I.eval_interval(X) == I.Interval(0, 255)

    def test_add_without_overflow(self):
        expr = T.add(c(10), c(20))
        assert I.eval_interval(expr) == I.Interval(30, 30)

    def test_and_bounded_by_mask(self):
        expr = T.bv_and(X, c(0x0F))
        assert I.eval_interval(expr).hi <= 0x0F

    def test_lshr_shrinks(self):
        expr = T.lshr(X, c(4))
        assert I.eval_interval(expr) == I.Interval(0, 15)

    def test_concat(self):
        lo = T.data_var("iv_lo", 4)
        expr = T.concat(c(0xA, 4), lo)
        result = I.eval_interval(expr)
        assert result.lo == 0xA0 and result.hi == 0xAF


class TestEvalBool:
    def test_definitely_false_disjoint(self):
        expr = T.eq(T.bv_and(X, c(0x0F)), c(0xF0))
        assert I.eval_bool(expr) == I.DEFINITELY_FALSE

    def test_definitely_true_comparison(self):
        expr = T.ult(T.lshr(X, c(4)), c(16))
        assert I.eval_bool(expr) == I.DEFINITELY_TRUE

    def test_unknown_when_overlapping(self):
        assert I.eval_bool(T.eq(X, c(3))) == I.UNKNOWN

    def test_connectives(self):
        false_leaf = T.eq(T.bv_and(X, c(0x0F)), c(0xF0))
        assert I.eval_bool(T.bool_and(false_leaf, T.eq(X, c(1)))) == I.DEFINITELY_FALSE
        assert I.eval_bool(T.bool_or(T.bool_not(false_leaf), T.eq(X, c(1)))) == I.DEFINITELY_TRUE

    def test_deep_term_no_recursion_error(self):
        expr = X
        for i in range(3000):
            expr = T.ite(T.eq(X, c(i % 256)), c(i % 256), expr)
        assert I.eval_bool(T.eq(expr, c(0))) in (
            I.DEFINITELY_TRUE, I.DEFINITELY_FALSE, I.UNKNOWN
        )


# -- soundness property ------------------------------------------------------


@st.composite
def small_terms(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return draw(st.sampled_from([X, c(0), c(15), c(draw(st.integers(0, 255)))]))
    op = draw(st.sampled_from(["add", "sub", "and", "or", "lshr", "shl"]))
    a = draw(small_terms(depth=depth + 1))
    b = draw(small_terms(depth=depth + 1))
    return {
        "add": T.add, "sub": T.sub, "and": T.bv_and,
        "or": T.bv_or, "lshr": T.lshr, "shl": T.shl,
    }[op](a, b)


@given(term=small_terms(), x=st.integers(0, 255))
@settings(max_examples=300, deadline=None)
def test_interval_is_sound(term, x):
    """The concrete value always falls inside the computed interval."""
    value = T.evaluate(term, {"iv_x": x})
    box = I.eval_interval(term)
    assert box.contains(value)


@given(
    a=st.integers(0, 255), b=st.integers(0, 255), x=st.integers(0, 255),
)
@settings(max_examples=200, deadline=None)
def test_bool_verdicts_sound(a, b, x):
    term = T.eq(T.bv_and(X, c(a)), c(b))
    verdict = I.eval_bool(term)
    concrete = T.evaluate(term, {"iv_x": x})
    if verdict == I.DEFINITELY_TRUE:
        assert concrete == 1
    elif verdict == I.DEFINITELY_FALSE:
        assert concrete == 0


class TestGateScreenEdgeCases:
    """Boundary behaviour the tier-1 verdict-gate screen leans on."""

    def test_zero_width_style_point_intervals(self):
        # A zero-width (point) interval at each end of the domain.
        low = I.Interval(0, 0)
        high = I.Interval(255, 255)
        assert low.is_point and high.is_point
        assert low.contains(0) and not low.contains(1)
        assert high.contains(255) and not high.contains(254)
        assert not low.intersects(high)

    def test_intersects_boundary_values(self):
        # Touching at exactly one point counts as intersecting.
        assert I.Interval(0, 10).intersects(I.Interval(10, 10))
        assert I.Interval(10, 10).intersects(I.Interval(0, 10))
        # Off by one does not.
        assert not I.Interval(0, 9).intersects(I.Interval(10, 10))
        # Containment is intersection too.
        assert I.Interval(0, 255).intersects(I.Interval(17, 17))

    def test_contains_boundaries(self):
        box = I.Interval(5, 9)
        assert box.contains(5) and box.contains(9)
        assert not box.contains(4) and not box.contains(10)

    def test_full_domain_mask_conjunction(self):
        # x & 0xFF == x for 8-bit x: the mask is a no-op, the comparison
        # stays undecidable (x is free).
        term = T.eq(T.bv_and(X, c(0xFF)), c(3))
        assert I.eval_bool(term) == I.UNKNOWN

    def test_zero_mask_decides_definitely(self):
        # x & 0 is the point interval [0, 0]: equality against zero is
        # definite-true, against anything else definite-false.
        masked = T.bv_and(X, c(0))
        assert I.eval_interval(masked) == I.Interval(0, 0)
        assert I.eval_bool(T.eq(masked, c(0))) == I.DEFINITELY_TRUE
        assert I.eval_bool(T.eq(masked, c(7))) == I.DEFINITELY_FALSE

    def test_eval_bool_mixed_known_unknown_and(self):
        # AND short-circuits on a definite-false conjunct even when the
        # other side is unknown — the shape the gate's NEVER tier relies
        # on.
        unknown = T.eq(X, c(3))
        false_side = T.eq(c(1), c(2))
        assert I.eval_bool(unknown) == I.UNKNOWN
        assert I.eval_bool(T.bool_and(unknown, false_side)) == I.DEFINITELY_FALSE
        assert I.eval_bool(T.bool_and(false_side, unknown)) == I.DEFINITELY_FALSE

    def test_eval_bool_mixed_known_unknown_or(self):
        unknown = T.eq(X, c(3))
        true_side = T.eq(c(2), c(2))
        assert I.eval_bool(T.bool_or(unknown, true_side)) == I.DEFINITELY_TRUE
        assert I.eval_bool(T.bool_or(true_side, unknown)) == I.DEFINITELY_TRUE
        # unknown OR false stays unknown.
        false_side = T.eq(c(1), c(2))
        assert I.eval_bool(T.bool_or(unknown, false_side)) == I.UNKNOWN

    def test_eval_bool_disjoint_ranges_decide_comparison(self):
        # x | 0xF0 lives in [0xF0, 0xFF]; comparing against a constant
        # below that range is definitely false.
        high = T.bv_or(X, c(0xF0))
        assert I.eval_bool(T.eq(high, c(0x10))) == I.DEFINITELY_FALSE
        assert I.eval_bool(T.ult(high, c(0xF0))) == I.DEFINITELY_FALSE
        assert I.eval_bool(T.ult(c(0x10), high)) == I.DEFINITELY_TRUE


# -- equality against an ite tree, decided by its leaves ---------------------

KEY = T.data_var("iv_key", 8)
DIR = T.data_var("iv_dir", 8)


def _dash_guard():
    """dash's ``ite(chain1 == 0, chain2, 0) == 1``: a direction-lookup chain
    guarding a routing chain whose leaves are only 0x5 and 0x0."""
    chain1 = T.ite(T.eq(KEY, c(1)), c(0), T.ite(T.eq(KEY, c(2)), c(3), c(0)))
    chain2 = T.ite(T.eq(DIR, c(7)), c(5), T.ite(T.eq(DIR, c(9)), c(0), c(5)))
    return T.eq(T.ite(T.eq(chain1, c(0)), chain2, c(0)), c(1))


class TestIteLeaves:
    def test_dash_shape_is_false(self):
        guard = _dash_guard()
        # The interval join alone cannot refute it: [0, 5] contains 1.
        tree = next(arg for arg in guard.args if arg.op == T.OP_ITE)
        assert I.eval_interval(tree) == I.Interval(0, 5)
        assert I.eval_bool(guard) == I.DEFINITELY_FALSE

    def test_all_leaves_equal_is_true(self):
        tree = T.ite(T.eq(X, c(1)), c(4), T.ite(T.eq(KEY, c(2)), c(4), c(4)))
        assert I.eval_bool(T.eq(tree, c(4))) == I.DEFINITELY_TRUE

    def test_variable_leaf_is_unknown(self):
        tree = T.ite(T.eq(X, c(1)), c(5), KEY)
        assert I.eval_bool(T.eq(tree, c(1))) == I.UNKNOWN

    def test_mixed_hit_and_miss_is_unknown(self):
        tree = T.ite(T.eq(X, c(1)), c(5), T.ite(T.eq(KEY, c(2)), c(1), c(0)))
        assert I.eval_bool(T.eq(tree, c(1))) == I.UNKNOWN

    def test_leaf_behind_a_decided_condition_is_ignored(self):
        never = T.eq(T.bv_and(X, c(0x0F)), c(0xF0))  # interval: FALSE
        always = T.ult(T.lshr(X, c(4)), c(16))  # interval: TRUE
        assert I.eval_bool(never) == I.DEFINITELY_FALSE
        assert I.eval_bool(always) == I.DEFINITELY_TRUE
        # The inner ites are points, the outer one is [0, 5] again; only
        # the leaves can decide, and the variable leaves are unreachable.
        hidden_else = T.ite(always, c(5), KEY)
        hidden_then = T.ite(never, KEY, c(5))
        for inner in (hidden_else, hidden_then):
            tree = T.ite(T.eq(X, c(3)), inner, c(0))
            assert I.eval_bool(T.eq(tree, c(1))) == I.DEFINITELY_FALSE
            assert I.eval_bool(T.eq(tree, c(5))) == I.UNKNOWN

    def test_shared_sub_dag_is_walked_once(self):
        # Every level reaches the previous one through both branches: 2**12
        # root-to-leaf paths, 62 distinct nodes.
        tree = c(0)
        for level in range(12):
            other = T.ite(T.eq(KEY, c(level)), tree, c(level % 2 * 2))
            tree = T.ite(T.eq(X, c(level)), tree, other)

        class CountingMemo(dict):
            def __init__(self):
                super().__init__()
                self.reads = {}

            def __getitem__(self, key):
                self.reads[key] = self.reads.get(key, 0) + 1
                return super().__getitem__(key)

        conditions = [id(n.args[0]) for n in T.iter_dag(tree) if n.op == T.OP_ITE]
        # Verdicts go through locals: an assertion message that printed
        # the tree would expand every path.
        for value, expected in ((1, I.DEFINITELY_FALSE), (2, I.UNKNOWN)):
            memo = CountingMemo()
            verdict = I.eval_bool(T.eq(tree, c(value)), memo)
            assert verdict == expected
            # A condition is read once by its ite's interval and at most
            # once by the leaf walk, however many paths lead to it.
            reads = max(memo.reads[cond] for cond in conditions)
            assert reads <= 2

    def test_solver_refutes_the_dash_shape_without_the_sat_core(self):
        solver = Solver()
        assert not solver.check_sat(_dash_guard()).satisfiable
        assert solver.stats.by_interval == 1
        assert solver.stats.probes == 0
        assert solver.session.loaded_fragments == 0


# -- a conjunction read under the equalities it asserts ----------------------

PROTO = T.data_var("iv_proto", 8)
TCP_VALID = T.data_var("iv_tcp_valid", 1)
UDP_VALID = T.data_var("iv_udp_valid", 1)
TCP_DST = T.data_var("iv_tcp_dst", 16)
UDP_DST = T.data_var("iv_udp_dst", 16)
ONE = T.bv_const(1, 1)


def c16(v):
    return T.bv_const(v, 16)


#: beaucoup's ``meta.l4_dst_port``: the TCP port, else the UDP port, else 0,
#: where a header is valid only under its protocol number.
L4_PORT = T.ite(
    T.bool_and(T.eq(PROTO, c(6)), T.eq(TCP_VALID, ONE)),
    TCP_DST,
    T.ite(T.bool_and(T.eq(PROTO, c(0x11)), T.eq(UDP_VALID, ONE)), UDP_DST, c16(0)),
)


def _keydef_guard(proto, port):
    """A ``query_keydef`` entry's match: protocol exact, port ternary (full mask)."""
    return T.bool_and(T.eq(PROTO, c(proto)), T.eq(L4_PORT, c16(port)))


def _beaucoup_query():
    """``meta.query_id != 0`` over a first-match chain whose every entry
    names a protocol that carries no port: no entry can hit."""
    tree = T.ite(
        _keydef_guard(0xAE, 0xC15F),
        c16(0x1234),
        T.ite(_keydef_guard(0x3B, 0x0050), c16(0x0042), c16(0)),
    )
    return T.bool_not(T.eq(tree, c16(0)))


class TestConjunctPins:
    def test_beaucoup_shape_is_false(self):
        # Each conjunct alone is open: the port's interval is its full range.
        assert I.eval_interval(L4_PORT) == I.Interval(0, 0xFFFF)
        assert I.eval_bool(T.eq(L4_PORT, c16(0xC15F))) == I.UNKNOWN
        assert I.eval_bool(_keydef_guard(0xAE, 0xC15F)) == I.DEFINITELY_FALSE
        assert I.eval_bool(_beaucoup_query()) == I.DEFINITELY_FALSE

    def test_two_different_pins_on_one_variable_are_false(self):
        open_sibling = T.eq(TCP_DST, c16(80))
        conj = T.bool_and(T.eq(PROTO, c(6)), T.eq(PROTO, c(0x11)), open_sibling)
        assert I.eval_bool(conj) == I.DEFINITELY_FALSE
        same = T.bool_and(T.eq(PROTO, c(6)), T.eq(c(6), PROTO), open_sibling)
        assert I.eval_bool(same) == I.UNKNOWN

    def test_pin_the_sibling_agrees_with_stays_unknown(self):
        assert I.eval_bool(_keydef_guard(6, 0xC15F)) == I.UNKNOWN
        assert I.eval_bool(_keydef_guard(0x11, 0xC15F)) == I.UNKNOWN

    def test_masked_sibling_under_the_pin_is_false(self):
        masked = T.eq(T.bv_and(L4_PORT, c16(0xFFE0)), c16(0x9720))
        assert I.eval_bool(masked) == I.UNKNOWN
        assert I.eval_bool(T.bool_and(T.eq(PROTO, c(0xAE)), masked)) == I.DEFINITELY_FALSE
        assert I.eval_bool(T.bool_and(T.eq(PROTO, c(6)), masked)) == I.UNKNOWN

    def test_pin_on_a_variable_the_siblings_never_read_stays_unknown(self):
        other = T.data_var("iv_other", 8)
        conj = T.bool_and(T.eq(other, c(0xAE)), T.eq(L4_PORT, c16(0xC15F)))
        assert I.eval_bool(conj) == I.UNKNOWN

    def test_solver_refutes_the_beaucoup_shape_without_the_sat_core(self):
        solver = Solver()
        assert not solver.check_sat(_beaucoup_query()).satisfiable
        assert solver.stats.by_interval == 1
        assert solver.stats.probes == 0
        assert solver.session.loaded_fragments == 0

    def test_deep_nesting_no_recursion_error(self):
        # Every level pins its own key and reads it in an open sibling, so
        # each level's rule runs; none may recurse into the levels below.
        conj = T.eq(L4_PORT, c16(0xC15F))
        for level in range(2000):
            key = T.data_var(f"iv_nest{level}", 16)
            sibling = T.eq(T.ite(T.eq(key, c16(level)), L4_PORT, key), c16(0xC15F))
            conj = T.bool_and(T.eq(key, c16(level)), sibling, conj)
        assert I.eval_bool(conj) == I.UNKNOWN


A3 = T.data_var("iv_a", 3)
B3 = T.data_var("iv_b", 3)


def c3(v):
    return T.bv_const(v, 3)


_operands = st.one_of(st.sampled_from([A3, B3]), st.integers(0, 7).map(c3))
_conditions = st.builds(
    lambda op, a, b: op(a, b),
    st.sampled_from([T.eq, T.ult, T.ule]),
    _operands,
    _operands,
)
_ite_trees = st.recursive(
    _operands,
    lambda branches: st.builds(T.ite, _conditions, branches, branches),
    max_leaves=12,
)


def _ite_leaves(tree):
    """The non-ite nodes reachable through ite branches (not conditions)."""
    leaves, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node.op == T.OP_ITE:
            stack += node.args[1:]
        else:
            leaves.append(node)
    return leaves


@given(tree=_ite_trees, value=st.integers(0, 7))
@settings(max_examples=400, deadline=None)
def test_ite_leaf_verdicts_agree_with_brute_force(tree, value):
    query = T.eq(tree, c3(value))
    verdict = I.eval_bool(query)
    outcomes = {
        T.evaluate(query, {"iv_a": a, "iv_b": b}) for a in range(8) for b in range(8)
    }
    if verdict == I.DEFINITELY_TRUE:
        assert outcomes == {1}
    elif verdict == I.DEFINITELY_FALSE:
        assert outcomes == {0}
    leaves = _ite_leaves(tree)
    if all(leaf.op == T.OP_BVCONST for leaf in leaves):
        hits = {leaf.payload == value for leaf in leaves}
        if len(hits) == 1:  # every leaf hits, or every leaf misses
            assert verdict != I.UNKNOWN


_pins = st.builds(T.eq, st.sampled_from([A3, B3]), st.integers(0, 7).map(c3))
_conjuncts = st.one_of(
    _pins,
    _conditions,
    st.builds(T.eq, _ite_trees, st.integers(0, 7).map(c3)),
)


def _pin_of(term):
    """``(variable, value)`` for a conjunct ``v == k``, else None."""
    if term.op != T.OP_EQ:
        return None
    var = next((a for a in term.args if a.op == T.OP_DATA_VAR), None)
    const = next((a for a in term.args if a.op == T.OP_BVCONST), None)
    return None if var is None or const is None else (var, const.payload)


@given(conjuncts=st.lists(_conjuncts, min_size=2, max_size=4))
@settings(max_examples=400, deadline=None)
def test_pinned_conjunction_verdicts_agree_with_brute_force(conjuncts):
    query = T.bool_and(*conjuncts)
    verdict = I.eval_bool(query)
    outcomes = {
        T.evaluate(query, {"iv_a": a, "iv_b": b}) for a in range(8) for b in range(8)
    }
    if verdict == I.DEFINITELY_TRUE:
        assert outcomes == {1}
    elif verdict == I.DEFINITELY_FALSE:
        assert outcomes == {0}
    # The rule fires where it should: two values for one variable, or a
    # conjunct that is FALSE with every pinned variable a point.
    pinned = {}
    for conjunct in conjuncts:
        pin = _pin_of(conjunct)
        if pin is not None:
            pinned.setdefault(pin[0], set()).add(pin[1])
    if any(len(values) > 1 for values in pinned.values()):
        assert verdict == I.DEFINITELY_FALSE
    elif pinned:
        points = {id(var): I.Interval(v, v) for var, (v,) in pinned.items()}
        if any(
            I.eval_bool(conjunct, dict(points)) == I.DEFINITELY_FALSE
            for conjunct in conjuncts
            if _pin_of(conjunct) is None
        ):
            assert verdict == I.DEFINITELY_FALSE
