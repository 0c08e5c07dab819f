"""A lookup node is the first-match ``ite`` chain it replaces, to every layer.

Each case builds a table's rows over a mix of key shapes (plain
variables, masked and constant keys, an ``ite`` of a variable, an
``ite`` of two constants, a key used twice), the chain the encoder used
to build from them, and the lookup node that replaced it, and checks:
``simplify`` of the node expands to ``simplify`` of the chain, in every
parent a rule reads through (``eq`` with a constant, an ``ite`` on a
row's own condition, a disjunction); the tree size the node-budget punt
reads is the chain's; and evaluation, the interval pre-check and the SAT
core agree with the chain's.
"""

import random

import pytest

from repro.runtime.entries import TernaryMatch
from repro.runtime.semantics import match_term
from repro.smt import interval, terms as T
from repro.smt.arena import TermArena
from repro.smt.simplify import simplify
from repro.smt.solver import Solver
from tests.engine.spec import expand_lookups

A = T.data_var("lk.a", 8)
B = T.data_var("lk.b", 4)
C = T.data_var("lk.c", 8)
SEL = T.eq(T.data_var("lk.s", 2), T.bv_const(1, 2))
KEY_SHAPES = {
    "a": A,
    "b": B,
    "c": C,
    "a&f0": T.bv_and(A, T.bv_const(0xF0, 8)),
    "const": T.bv_const(0x5A, 8),
    "ite-var": T.ite(SEL, A, T.bv_const(3, 8)),
    "ite-const": T.ite(SEL, T.bv_const(7, 8), T.bv_const(3, 8)),
}
SYMBOLIC = (
    ("a", "b"),
    ("a", "c", "b"),
    ("a&f0", "b"),
    ("ite-var", "b"),
    ("c",),
    # A row pins ``a``, and the other key is an ite over ``a``: the
    # interval pre-check refutes some rows only under the pin.
    ("a", "ite-var"),
)
PARTLY_CONSTANT = (("const", "b"), ("a", "const"), ("const", "ite-var", "c"))
FALLBACK = (("ite-const", "b"), ("a", "a"))


def raw_cond(keys, value, mask):
    """``entry_match_term`` of a ternary entry over ``keys``: every key's
    ``match_term``, wildcards included."""
    conds = []
    for key, shift in zip(keys, T.key_shifts(keys)):
        full = (1 << key.width) - 1
        match = TernaryMatch((value >> shift) & full, (mask >> shift) & full)
        conds.append(match_term(match, key, key.width))
    return T.bool_and(*conds)


def chain(keys, rows, default, width):
    """What the encoder built before the lookup node: the selector's or a
    parameter's ``ite`` chain, or (``width`` 0) the hit bit's disjunction."""
    conds = [raw_cond(keys, value, mask) for value, mask, _ in rows]
    if width == 0:
        return T.bool_or(*conds)
    term = T.bv_const(default, width)
    for cond, (_, _, result) in zip(reversed(conds), reversed(rows)):
        term = T.ite(cond, T.bv_const(result, width), term)
    return term


def random_rows(rng, keys, width):
    """Rows over ``keys``: full, partial and empty masks per key, repeated
    rows and results, and now and then a row that matches everything."""
    rows = []
    for _ in range(rng.randrange(0, 7)):
        value = mask = 0
        for key, shift in zip(keys, T.key_shifts(keys)):
            full = (1 << key.width) - 1
            key_mask = rng.choice((full, full, 0, full & 0xF0 or 1, full & 0x0C or 1))
            value |= (rng.randrange(full + 1) & key_mask & rng.choice((full, 0x3))) << shift
            mask |= key_mask << shift
        if rng.random() < 0.08:
            value = mask = 0
        result = 1 if width == 0 else rng.randrange(3)
        rows.append((value, mask, result))
        if rows and rng.random() < 0.15:
            rows.append(rng.choice(rows))
    return tuple(rows)


def cases(layouts, seed, count):
    rng = random.Random(seed)
    for index in range(count):
        keys = tuple(KEY_SHAPES[name] for name in layouts[index % len(layouts)])
        width = rng.choice((0, 4, 4))
        rows = random_rows(rng, keys, width)
        if width == 0:
            rows = tuple(sorted(set(rows)))
            yield keys, rows, 0, 0
        else:
            yield keys, rows, rng.randrange(3), width


def parents(node, cond_of_first_row):
    """Terms over ``node`` (a lookup or its chain) that the rewrite rules
    read through."""
    other = T.data_var("lk.o", node.width) if node.width else SEL
    if node.width == 0:
        hit = T.ite(node, T.bv_const(1, 1), T.bv_const(0, 1))
        return [
            node,
            T.eq(hit, T.bv_const(1, 1)),
            T.eq(hit, T.bv_const(0, 1)),
            T.bool_or(node, SEL),
            T.bool_and(node, T.bool_not(SEL)),
            T.bool_or(node, T.bool_not(node)),
        ]
    return [
        T.eq(node, T.bv_const(0, node.width)),
        T.eq(node, T.bv_const(1, node.width)),
        T.eq(node, T.bv_const(2, node.width)),
        T.ite(cond_of_first_row, node, other),
        T.ite(cond_of_first_row, other, node),
        T.eq(T.ite(SEL, node, other), T.bv_const(1, node.width)),
    ]


def check(keys, rows, default, width):
    node = T.lookup(keys, rows, default, width)
    old = chain(keys, rows, default, width)
    first = raw_cond(keys, *rows[0][:2]) if rows else SEL
    for new_term, old_term in zip(parents(node, first), parents(old, first)):
        simple_new, simple_old = simplify(new_term), simplify(old_term)
        assert expand_lookups(simple_new) is simple_old
        assert T.tree_size(simple_new) == T.tree_size(simple_old)
        if simple_new.is_bool:
            assert interval.eval_bool(simple_new) == interval.eval_bool(simple_old)
            assert (
                Solver().check_sat(simple_new).satisfiable
                == Solver().check_sat(simple_old).satisfiable
            )
        else:
            assert interval.eval_interval(simple_new) == interval.eval_interval(simple_old)
    rng = random.Random(len(rows))
    for _ in range(8):
        assignment = {"lk.a": rng.randrange(256), "lk.b": rng.randrange(16),
                      "lk.c": rng.randrange(256), "lk.s": rng.randrange(4),
                      "lk.o": rng.randrange(16)}
        assert T.evaluate(node, assignment) == T.evaluate(old, assignment)
        assert T.evaluate(simplify(node), assignment) == T.evaluate(old, assignment)


@pytest.mark.parametrize(
    "layouts,seed",
    [(SYMBOLIC, 1), (PARTLY_CONSTANT, 2), (FALLBACK, 3)],
    ids=["symbolic-keys", "partly-constant-keys", "keys-the-chain-rewrites"],
)
def test_every_layer_reads_the_lookup_as_its_chain(layouts, seed):
    for keys, rows, default, width in cases(layouts, seed, 150):
        check(keys, rows, default, width)


@pytest.mark.parametrize("layouts", [SYMBOLIC, PARTLY_CONSTANT], ids=["symbolic", "partly-constant"])
def test_tree_size_of_a_lookup_is_its_chains(layouts):
    """What the node-budget punt reads: raw and simplified, the node counts
    as the tree of the chain it stands for."""
    for keys, rows, default, width in cases(layouts, 7, 150):
        node = T.lookup(keys, rows, default, width)
        assert T.tree_size(node) == T.tree_size(T.expand_lookup(node))
        assert T.tree_size(simplify(node)) == T.tree_size(
            simplify(chain(keys, rows, default, width))
        )


def test_constant_keys_are_read_through():
    keys = (KEY_SHAPES["const"], B)
    rows = ((0x5A | (3 << 8), 0xFF | (0xF << 8), 2), (0x11, 0xFF, 1), (0, 0xF << 8, 2))
    node = simplify(T.lookup(keys, rows, 0, 4))
    # The second row cannot match 0x5a; the others keep only their b-condition.
    assert node.op == T.OP_LOOKUP and node.payload == (((3 << 8, 0xF << 8, 2), (0, 0xF << 8, 2)), 0)
    every = (KEY_SHAPES["const"], T.bv_const(3, 4))
    assert simplify(T.lookup(every, rows, 0, 4)) is T.bv_const(2, 4)


def test_rows_that_give_one_value_fold():
    keys = (A, B)
    assert simplify(T.lookup(keys, ((1, 0xFF, 3), (2, 0xFF, 3)), 3, 4)) is T.bv_const(3, 4)
    assert simplify(T.lookup(keys, ((1, 0xFF, 1), (0, 0, 2), (5, 0xFF, 3)), 2, 4)).op == T.OP_ITE
    assert simplify(T.lookup(keys, ((0, 0, 1), (1, 0xFF, 1)), 0, 0)) is T.TRUE
    assert simplify(T.lookup(keys, (), 0, 0)) is T.FALSE


def test_a_lookup_crosses_the_arena_by_content():
    node = T.lookup((A, B), ((1, 0xFF, 2), (0x10, 0xF0, 1)), 0, 4)
    term = T.eq(node, T.bv_const(2, 4))
    assert TermArena.loads(TermArena.dumps({"t": term}))["t"] is term
    assert T.lookup((A, B), ((1, 0xFF, 2), (0x10, 0xF0, 1)), 0, 4) is node


def test_a_boolean_lookup_gives_one_or_nothing():
    with pytest.raises(T.SortError):
        T.lookup((A,), ((1, 0xFF, 2),), 0, 0)
    with pytest.raises(T.SortError):
        T.lookup((SEL,), (), 0, 4)
