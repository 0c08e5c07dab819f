"""Property tests for the flat-array term codec.

The term arena exists to carry terms across a pickle boundary
(warm-state snapshots), so the property under test is the transport
contract the snapshot path relies on: **interning identity** —
``arena.decode(arena.encode(t)) is t``, and the identity survives
pickling the arena (the decoded-``Term`` cache is process-local and
rebuilt through the default factory).
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.arena import TermArena

X = T.data_var("ax", 8)
Y = T.data_var("ay", 8)
C = T.control_var("ac", 8)
P = T.bool_var("ap")
Q = T.bool_var("aq")


def c(v, w=8):
    return T.bv_const(v, w)


@st.composite
def bv_terms(draw, depth=0):
    """Random 8-bit terms over data, control, and boolean variables."""
    if depth > 3 or draw(st.booleans()):
        return draw(
            st.sampled_from(
                [X, Y, C, c(0), c(1), c(0xFF), c(draw(st.integers(0, 255)))]
            )
        )
    op = draw(
        st.sampled_from(
            ["add", "sub", "mul", "and", "or", "xor", "not", "neg",
             "shl", "lshr", "concat_extract", "ite"]
        )
    )
    a = draw(bv_terms(depth=depth + 1))
    if op == "not":
        return T.bv_not(a)
    if op == "neg":
        return T.neg(a)
    if op == "concat_extract":
        b = draw(bv_terms(depth=depth + 1))
        hi = draw(st.integers(8, 15))
        lo = hi - 7
        return T.extract(T.concat(a, b), hi, lo)
    b = draw(bv_terms(depth=depth + 1))
    if op == "add":
        return T.add(a, b)
    if op == "sub":
        return T.sub(a, b)
    if op == "mul":
        return T.mul(a, b)
    if op == "and":
        return T.bv_and(a, b)
    if op == "or":
        return T.bv_or(a, b)
    if op == "xor":
        return T.bv_xor(a, b)
    if op == "shl":
        return T.shl(a, b)
    if op == "lshr":
        return T.lshr(a, b)
    cond_kind = draw(st.sampled_from(["eq", "ult", "ule"]))
    cond = {"eq": T.eq, "ult": T.ult, "ule": T.ule}[cond_kind](a, b)
    if draw(st.booleans()):
        cond = T.bool_not(cond)
    other = draw(bv_terms(depth=depth + 1))
    return T.ite(cond, b, other)


@st.composite
def bool_terms(draw, depth=0):
    """Random boolean terms (the executability-query shape)."""
    if depth > 2 or draw(st.booleans()):
        base = draw(st.sampled_from(["var", "cmp", "const"]))
        if base == "var":
            return draw(st.sampled_from([P, Q]))
        if base == "const":
            return draw(st.sampled_from([T.TRUE, T.FALSE]))
        a = draw(bv_terms(depth=2))
        b = draw(bv_terms(depth=2))
        cmp_op = draw(st.sampled_from([T.eq, T.ult, T.ule]))
        return cmp_op(a, b)
    op = draw(st.sampled_from(["and", "or", "not"]))
    a = draw(bool_terms(depth=depth + 1))
    if op == "not":
        return T.bool_not(a)
    b = draw(bool_terms(depth=depth + 1))
    return T.bool_and(a, b) if op == "and" else T.bool_or(a, b)


# -- interning identity -----------------------------------------------------


@given(term=bv_terms())
@settings(max_examples=200, deadline=None)
def test_encode_decode_identity(term):
    arena = TermArena()
    assert arena.decode(arena.encode(term)) is term


@given(term=bool_terms())
@settings(max_examples=100, deadline=None)
def test_encode_decode_identity_bool(term):
    arena = TermArena()
    assert arena.decode(arena.encode(term)) is term


@given(terms=st.lists(bv_terms(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_identity_survives_pickle(terms):
    """The transport property: encode here, pickle the arena, decode
    'there' — the decoded terms are the very same interned objects the
    sender held, because decode re-interns through the default factory."""
    arena = TermArena()
    roots = [arena.encode(t) for t in terms]
    thawed = pickle.loads(pickle.dumps(arena))
    for root, term in zip(roots, terms):
        assert thawed.decode(root) is term


@given(term=bv_terms())
@settings(max_examples=100, deadline=None)
def test_double_pickle_is_stable(term):
    """Pickling is idempotent over the wire format (process-local caches
    are dropped, nothing else changes)."""
    arena = TermArena()
    root = arena.encode(term)
    once = pickle.dumps(arena)
    twice = pickle.dumps(pickle.loads(once))
    assert once == twice
    assert pickle.loads(twice).decode(root) is term


def test_shared_subterms_encode_once():
    arena = TermArena()
    shared = T.add(X, Y)
    a = arena.encode(T.mul(shared, shared))
    b = arena.encode(shared)
    assert arena._args[arena._first[a]] == b
    assert arena._args[arena._first[a] + 1] == b
