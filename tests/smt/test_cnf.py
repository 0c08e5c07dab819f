"""Tests for the bit-blaster: every operator's CNF encoding matches the
evaluation semantics."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.cnf import BitBlaster, assert_term, model_values
from repro.smt.sat import SAT, UNSAT

X = T.data_var("bb_x", 4)
Y = T.data_var("bb_y", 4)


def is_sat(term) -> bool:
    blaster = BitBlaster()
    assert_term(blaster, term)
    return blaster.solver.solve() == SAT


def solve_model(term):
    blaster = BitBlaster()
    assert_term(blaster, term)
    assert blaster.solver.solve() == SAT
    return model_values(blaster, term)


class TestEncodings:
    def test_eq_const_model(self):
        model = solve_model(T.eq(X, T.bv_const(9, 4)))
        assert model["bb_x"] == 9

    def test_unsat_contradiction(self):
        term = T.bool_and(
            T.eq(X, T.bv_const(3, 4)), T.eq(X, T.bv_const(4, 4))
        )
        assert not is_sat(term)

    def test_add_model(self):
        term = T.bool_and(
            T.eq(T.add(X, Y), T.bv_const(5, 4)),
            T.eq(X, T.bv_const(12, 4)),
        )
        model = solve_model(term)
        assert (model["bb_x"] + model["bb_y"]) % 16 == 5

    def test_sub_neg(self):
        term = T.eq(T.neg(X), T.bv_const(1, 4))
        model = solve_model(term)
        assert (-model["bb_x"]) % 16 == 1

    def test_mul(self):
        term = T.bool_and(
            T.eq(T.mul(X, Y), T.bv_const(12, 4)),
            T.eq(X, T.bv_const(3, 4)),
        )
        model = solve_model(term)
        assert (model["bb_x"] * model["bb_y"]) % 16 == 12

    def test_ult(self):
        term = T.bool_and(T.ult(X, T.bv_const(2, 4)), T.ne(X, T.bv_const(0, 4)))
        model = solve_model(term)
        assert model["bb_x"] == 1

    def test_ule_boundary(self):
        assert is_sat(T.ule(X, T.bv_const(0, 4)))
        assert not is_sat(T.ult(X, T.bv_const(0, 4)))

    def test_variable_shift_barrel(self):
        # x << y == 8 with x == 1 forces y == 3.
        term = T.bool_and(
            T.eq(T.shl(X, Y), T.bv_const(8, 4)),
            T.eq(X, T.bv_const(1, 4)),
        )
        model = solve_model(term)
        assert model["bb_y"] == 3

    def test_overshift_forces_zero(self):
        term = T.bool_and(
            T.eq(T.shl(X, Y), T.bv_const(0, 4)),
            T.eq(X, T.bv_const(0xF, 4)),
            T.eq(Y, T.bv_const(4, 4)),
        )
        assert is_sat(term)

    def test_concat_extract(self):
        wide = T.concat(X, Y)
        term = T.bool_and(
            T.eq(wide, T.bv_const(0xA5, 8)),
        )
        model = solve_model(term)
        assert model["bb_x"] == 0xA and model["bb_y"] == 0x5

    def test_ite_encoding(self):
        cond = T.eq(X, T.bv_const(1, 4))
        term = T.bool_and(
            T.eq(T.ite(cond, T.bv_const(7, 4), T.bv_const(2, 4)), T.bv_const(7, 4)),
        )
        model = solve_model(term)
        assert model["bb_x"] == 1

    def test_bool_var_encoding(self):
        p = T.bool_var("bb_p")
        assert is_sat(p)
        assert not is_sat(T.bool_and(p, T.bool_not(p)))

    def test_shared_encoding_consistent(self):
        # Encoding x twice must refer to the same SAT variables.
        blaster = BitBlaster()
        bits1 = blaster.encode_bv(X)
        bits2 = blaster.encode_bv(X)
        assert bits1 == bits2


# -- exhaustive property: encoding == evaluate for random closed ops --------

_BIN_OPS = {
    "add": T.add, "sub": T.sub, "mul": T.mul,
    "and": T.bv_and, "or": T.bv_or, "xor": T.bv_xor,
    "shl": T.shl, "lshr": T.lshr,
}


@given(
    op=st.sampled_from(sorted(_BIN_OPS)),
    a=st.integers(0, 15),
    b=st.integers(0, 15),
)
@settings(max_examples=200, deadline=None)
def test_binop_encoding_matches_semantics(op, a, b):
    """Assert op(a, b) != evaluate(op(a, b)) is UNSAT — encoding is exact."""
    expr = _BIN_OPS[op](T.bv_const(a, 4), T.bv_const(b, 4))
    expected = T.evaluate(expr, {})
    # Use free variables constrained to constants so folding can't bypass CNF.
    expr_v = _BIN_OPS[op](X, Y)
    constraint = T.bool_and(
        T.eq(X, T.bv_const(a, 4)),
        T.eq(Y, T.bv_const(b, 4)),
        T.ne(expr_v, T.bv_const(expected, 4)),
    )
    blaster = BitBlaster()
    assert_term(blaster, constraint)
    assert blaster.solver.solve() == UNSAT


@given(a=st.integers(0, 15), b=st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_comparison_encoding_matches_semantics(a, b):
    for op, pyop in ((T.ult, lambda p, q: p < q), (T.ule, lambda p, q: p <= q)):
        expr = T.bool_and(
            T.eq(X, T.bv_const(a, 4)),
            T.eq(Y, T.bv_const(b, 4)),
            op(X, Y),
        )
        assert is_sat(expr) == pyop(a, b)


# -- the folding, structurally hashed encoder ---------------------------------

A3 = T.data_var("bb_a3", 3)
B3 = T.data_var("bb_b3", 3)
C3 = T.data_var("bb_c3", 3)
P = T.bool_var("bb_p")
Q = T.bool_var("bb_q")


def _shaped(draw, make, sub):
    """``make(a, b)`` over distinct, repeated, complementary or constant operands."""
    a = draw(sub)
    shape = draw(st.sampled_from(["distinct", "repeat", "complement", "constant"]))
    if shape == "repeat":
        return make(a, a)
    if shape == "complement":
        return make(a, T.bv_not(a) if a.is_bv else T.bool_not(a))
    if shape == "constant":
        if a.is_bv:
            other = T.bv_const(draw(st.integers(0, (1 << a.width) - 1)), a.width)
        else:
            other = draw(st.sampled_from([T.TRUE, T.FALSE]))
        return make(a, other) if draw(st.booleans()) else make(other, a)
    return make(a, draw(sub))


@st.composite
def bv3_terms(draw, depth=0):
    """Random 3-bit terms that exercise every fold of the encoder."""
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([A3, B3, C3, T.bv_const(draw(st.integers(0, 7)), 3)]))
    op = draw(st.sampled_from(
        ["and", "or", "xor", "add", "sub", "not", "neg", "ite", "ite_const", "shl", "slice"]
    ))
    sub = bv3_terms(depth=depth + 1)
    if op == "not":
        return T.bv_not(draw(sub))
    if op == "neg":
        return T.neg(draw(sub))
    if op == "ite":
        return _shaped(draw, lambda a, b: T.ite(draw(bool3_terms(depth=depth + 1)), a, b), sub)
    if op == "ite_const":
        leaves = st.integers(0, 7).map(lambda v: T.bv_const(v, 3))
        return T.ite(draw(bool3_terms(depth=depth + 1)), draw(leaves), draw(leaves))
    if op == "shl":
        return T.shl(draw(sub), draw(sub))
    if op == "slice":  # a bit rebuilt into three: extract/concat over 1-bit ite
        bit = T.extract(draw(sub), 0, 0)
        one, zero = T.bv_const(1, 1), T.bv_const(0, 1)
        flag = T.ite(draw(bool3_terms(depth=depth + 1)), one, zero)
        return T.concat(T.concat(bit, flag), bit)
    make = {"and": T.bv_and, "or": T.bv_or, "xor": T.bv_xor, "add": T.add, "sub": T.sub}[op]
    return _shaped(draw, make, sub)


@st.composite
def bool3_terms(draw, depth=0):
    """Random guards over :func:`bv3_terms`, n-ary connectives included."""
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from([P, Q, T.TRUE, T.FALSE]))
    op = draw(st.sampled_from(["cmp", "not", "and", "or", "ite", "iff"]))
    sub = bool3_terms(depth=depth + 1)
    if op == "cmp":
        cmp = draw(st.sampled_from([T.eq, T.ult, T.ule]))
        return _shaped(draw, cmp, bv3_terms(depth=depth + 1))
    if op == "not":
        return T.bool_not(draw(sub))
    if op in ("and", "or"):
        members = draw(st.lists(sub, min_size=2, max_size=4))
        extra = draw(st.sampled_from(["none", "true", "false", "repeat", "complement"]))
        if extra in ("true", "false"):
            members.append(T.TRUE if extra == "true" else T.FALSE)
        elif extra == "repeat":
            members.append(members[0])
        elif extra == "complement":
            members.append(T.bool_not(members[0]))
        return (T.bool_and if op == "and" else T.bool_or)(*members)
    if op == "ite":
        return _shaped(draw, lambda a, b: T.ite(draw(sub), a, b), sub)
    return _shaped(draw, T.eq, sub)


def _assignments(term):
    names = sorted(var.name for var in T.variables(term))
    widths = {var.name: max(var.width, 1) for var in T.variables(term)}
    for values in itertools.product(*(range(1 << widths[n]) for n in names)):
        yield dict(zip(names, values))


def _holds(term, model) -> bool:
    assignment = {var.name: 0 for var in T.variables(term)}
    assignment.update(model)
    return T.evaluate(term, assignment) == 1


@given(term=bool3_terms())
@settings(max_examples=300, deadline=None)
def test_folded_encoding_agrees_with_brute_force(term):
    blaster = BitBlaster()
    root = blaster.encode_bool(term)
    satisfiable = blaster.solver.solve(assumptions=[root]) == SAT
    assert satisfiable == any(T.evaluate(term, a) == 1 for a in _assignments(term))
    if satisfiable:
        assert _holds(term, model_values(blaster, term))


class TestFoldingAndHashing:
    def _ready(self, *terms):
        """A blaster with ``terms`` and the constant already encoded."""
        blaster = BitBlaster()
        for term in terms:
            if term.is_bool:
                blaster.encode_bool(term)
            else:
                blaster.encode_bv(term)
        blaster.true_lit()
        return blaster

    def test_eq_const_is_one_gate_over_the_variable(self):
        x = T.data_var("bb_x8", 8)
        blaster = self._ready(x)
        before = blaster.solver.num_vars
        lit = blaster.encode_bool(T.eq(x, T.bv_const(0xA5, 8)))
        assert blaster.solver.num_vars == before + 1
        assert lit == before + 1

    def test_ite_over_one_and_zero_is_the_selector(self):
        blaster = self._ready(P)
        before = blaster.solver.num_vars
        bits = blaster.encode_bv(T.ite(P, T.bv_const(1, 1), T.bv_const(0, 1)))
        assert bits == [blaster.encode_bool(P)]
        assert blaster.solver.num_vars == before

    def test_same_gate_through_different_terms_is_shared(self):
        blaster = self._ready(X, Y)
        first = blaster.encode_bv(T.bv_and(X, Y))
        before = blaster.solver.num_vars
        second = blaster.encode_bv(T.bv_and(T.bv_not(T.bv_not(Y)), X))
        assert second == first
        assert blaster.solver.num_vars == before

    def test_contradiction_folds_to_false(self):
        blaster = self._ready(P)
        before = blaster.solver.num_vars
        lit = blaster.encode_bool(T.bool_and(P, T.bool_not(P)))
        assert lit == -blaster.true_lit()
        assert blaster.solver.num_vars == before

    def test_xor_with_true_is_negation(self):
        blaster = self._ready(P)
        before = blaster.solver.num_vars
        lit = blaster.encode_bool(T.bool_not(T.eq(P, T.TRUE)))
        assert lit == -blaster.encode_bool(P)
        assert blaster.solver.num_vars == before
