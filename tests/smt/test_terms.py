"""Unit tests for the hash-consed term language."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from tests.smt.test_simplify import bv_terms


class TestConstruction:
    def test_bv_const_masks_to_width(self):
        assert T.bv_const(0x1FF, 8).value == 0xFF

    def test_bv_const_rejects_nonpositive_width(self):
        with pytest.raises(T.SortError):
            T.bv_const(1, 0)

    def test_bool_const_identity(self):
        assert T.bool_const(True) is T.TRUE
        assert T.bool_const(False) is T.FALSE

    def test_var_kinds(self):
        data = T.data_var("x", 8)
        ctrl = T.control_var("c", 8)
        assert data.is_data_var and not data.is_control_var
        assert ctrl.is_control_var and not ctrl.is_data_var
        assert data.name == "x" and ctrl.name == "c"

    def test_width_mismatch_rejected(self):
        with pytest.raises(T.SortError):
            T.add(T.bv_const(1, 8), T.bv_const(1, 16))

    def test_bool_in_bv_position_rejected(self):
        with pytest.raises(T.SortError):
            T.add(T.TRUE, T.bv_const(1, 8))

    def test_bv_in_bool_position_rejected(self):
        with pytest.raises(T.SortError):
            T.bool_and(T.bv_const(1, 8), T.TRUE)

    def test_ite_branch_sorts_must_match(self):
        with pytest.raises(T.SortError):
            T.ite(T.TRUE, T.bv_const(1, 8), T.TRUE)

    def test_extract_bounds_checked(self):
        x = T.data_var("x", 8)
        with pytest.raises(T.SortError):
            T.extract(x, 8, 0)
        with pytest.raises(T.SortError):
            T.extract(x, 3, 5)

    def test_concat_width_is_sum(self):
        a = T.data_var("a", 8)
        b = T.data_var("b", 4)
        assert T.concat(a, b).width == 12

    def test_extract_width(self):
        x = T.data_var("x", 16)
        assert T.extract(x, 11, 4).width == 8

    def test_fresh_data_vars_are_distinct(self):
        a = T.fresh_data_var("p", 8)
        b = T.fresh_data_var("p", 8)
        assert a is not b
        assert a.name != b.name


class TestHashConsing:
    def test_same_construction_same_object(self):
        x = T.data_var("hc_x", 8)
        a = T.add(x, T.bv_const(1, 8))
        b = T.add(x, T.bv_const(1, 8))
        assert a is b

    def test_commutative_ops_canonicalized(self):
        x = T.data_var("hc_y", 8)
        y = T.data_var("hc_z", 8)
        assert T.add(x, y) is T.add(y, x)
        assert T.bv_and(x, y) is T.bv_and(y, x)
        assert T.eq(x, y) is T.eq(y, x)

    def test_sub_not_canonicalized(self):
        x = T.data_var("hc_s1", 8)
        y = T.data_var("hc_s2", 8)
        assert T.sub(x, y) is not T.sub(y, x)

    def test_cross_factory_equality_is_shallow(self):
        other = T.TermFactory()
        a = other.bv_const(5, 8)
        b = T.bv_const(5, 8)
        assert a == b  # leaves compare equal across factories
        assert a is not b

    def test_terms_not_picklable(self):
        import pickle

        with pytest.raises(TypeError):
            pickle.dumps(T.bv_const(1, 8))


class TestEvaluate:
    def test_arith(self):
        x = T.data_var("ev_x", 8)
        expr = T.add(T.mul(x, T.bv_const(3, 8)), T.bv_const(1, 8))
        assert T.evaluate(expr, {"ev_x": 10}) == 31

    def test_wraparound(self):
        x = T.data_var("ev_w", 8)
        assert T.evaluate(T.add(x, T.bv_const(1, 8)), {"ev_w": 255}) == 0
        assert T.evaluate(T.sub(x, T.bv_const(1, 8)), {"ev_w": 0}) == 255
        assert T.evaluate(T.neg(x), {"ev_w": 1}) == 255

    def test_bitwise(self):
        x = T.data_var("ev_b", 8)
        env = {"ev_b": 0b1100}
        assert T.evaluate(T.bv_and(x, T.bv_const(0b1010, 8)), env) == 0b1000
        assert T.evaluate(T.bv_or(x, T.bv_const(0b0011, 8)), env) == 0b1111
        assert T.evaluate(T.bv_xor(x, T.bv_const(0b1111, 8)), env) == 0b0011
        assert T.evaluate(T.bv_not(x), env) == 0b11110011

    def test_shifts_saturate_at_width(self):
        x = T.data_var("ev_sh", 8)
        assert T.evaluate(T.shl(x, T.bv_const(9, 8)), {"ev_sh": 0xFF}) == 0
        assert T.evaluate(T.lshr(x, T.bv_const(9, 8)), {"ev_sh": 0xFF}) == 0

    def test_concat_extract(self):
        a = T.data_var("ev_hi", 4)
        b = T.data_var("ev_lo", 4)
        combined = T.concat(a, b)
        env = {"ev_hi": 0xA, "ev_lo": 0x5}
        assert T.evaluate(combined, env) == 0xA5
        assert T.evaluate(T.extract(combined, 7, 4), env) == 0xA
        assert T.evaluate(T.extract(combined, 3, 0), env) == 0x5

    def test_comparisons(self):
        x = T.data_var("ev_c", 8)
        env = {"ev_c": 5}
        assert T.evaluate(T.ult(x, T.bv_const(6, 8)), env) == 1
        assert T.evaluate(T.ult(x, T.bv_const(5, 8)), env) == 0
        assert T.evaluate(T.ule(x, T.bv_const(5, 8)), env) == 1
        assert T.evaluate(T.eq(x, T.bv_const(5, 8)), env) == 1
        assert T.evaluate(T.ne(x, T.bv_const(5, 8)), env) == 0

    def test_boolean_connectives(self):
        p = T.bool_var("ev_p")
        q = T.bool_var("ev_q")
        env = {"ev_p": 1, "ev_q": 0}
        assert T.evaluate(T.bool_and(p, q), env) == 0
        assert T.evaluate(T.bool_or(p, q), env) == 1
        assert T.evaluate(T.bool_not(q), env) == 1
        assert T.evaluate(T.implies(p, q), env) == 0

    def test_ite(self):
        x = T.data_var("ev_i", 8)
        expr = T.ite(T.eq(x, T.bv_const(1, 8)), T.bv_const(10, 8), T.bv_const(20, 8))
        assert T.evaluate(expr, {"ev_i": 1}) == 10
        assert T.evaluate(expr, {"ev_i": 2}) == 20

    def test_missing_variable_raises(self):
        with pytest.raises(KeyError):
            T.evaluate(T.data_var("ev_missing", 8), {})

    def test_deep_chain_does_not_recurse(self):
        x = T.data_var("ev_deep", 8)
        expr = x
        for i in range(5000):
            expr = T.add(expr, T.bv_const(1, 8))
        assert T.evaluate(expr, {"ev_deep": 0}) == 5000 % 256

    def test_only_the_taken_branch_is_read(self):
        x = T.data_var("ev_taken", 8)
        unread = T.add(T.data_var("ev_unread", 8), T.bv_const(1, 8))
        first = T.eq(x, T.bv_const(1, 8))
        expr = T.ite(first, T.bv_const(10, 8), unread)
        assert T.evaluate(expr, {"ev_taken": 1}) == 10
        with pytest.raises(KeyError):  # the other branch reads ev_unread
            T.evaluate(expr, {"ev_taken": 2})
        with pytest.raises(KeyError):  # a condition is always read
            T.evaluate(expr, {"ev_unread": 0})
        # Other operators read every argument, short-circuit or not.
        with pytest.raises(KeyError):
            T.evaluate(T.bool_and(T.bool_not(first), T.eq(unread, x)), {"ev_taken": 1})

    def test_entry_chain_stops_at_the_first_match(self):
        # The table-encoding shape: 3000 entries, the packet matches the
        # second.  Deep, and later entries' conditions are never reached.
        x = T.data_var("ev_key", 16)
        chain = T.bv_const(0, 8)
        for i in reversed(range(3000)):
            cond = T.eq(T.bv_and(x, T.data_var(f"ev_mask{i}", 16)), T.bv_const(i, 16))
            chain = T.ite(cond, T.bv_const(i % 256, 8), chain)
        env = {"ev_key": 1, "ev_mask0": 0xFFFF, "ev_mask1": 0xFFFF}
        assert T.evaluate(T.add(chain, chain), env) == 2


def _eager(term, env):
    """Reference evaluation: every node of the DAG, both ite branches."""
    values = {}
    for node in T.iter_dag(term):
        if node.op == T.OP_ITE:
            cond, then, orelse = (values[id(arg)] for arg in node.args)
            values[id(node)] = then if cond else orelse
        else:
            values[id(node)] = T._eval_node(node, values, env)
    return values[id(term)]


@given(term=bv_terms(), x=st.integers(0, 255), y=st.integers(0, 255))
@settings(max_examples=300, deadline=None)
def test_evaluate_equals_the_eager_evaluation_on_total_models(term, x, y):
    env = {"sx": x, "sy": y}
    assert T.evaluate(term, env) == _eager(term, env)


class TestTraversal:
    def test_iter_dag_unique(self):
        x = T.data_var("tr_x", 8)
        shared = T.add(x, T.bv_const(1, 8))
        expr = T.mul(shared, shared)
        nodes = list(T.iter_dag(expr))
        assert len(nodes) == len({id(n) for n in nodes})
        assert expr in nodes and x in nodes

    def test_variables_and_kinds(self):
        d = T.data_var("tr_d", 8)
        c = T.control_var("tr_c", 8)
        expr = T.ite(T.eq(c, T.bv_const(0, 8)), d, T.bv_const(1, 8))
        assert T.variables(expr) == {d, c}
        assert T.control_variables(expr) == {c}
        assert T.data_variables(expr) == {d}

    def test_dag_vs_tree_size(self):
        x = T.data_var("tr_sz", 8)
        shared = T.add(x, T.bv_const(1, 8))
        expr = T.mul(shared, shared)
        assert T.dag_size(expr) < T.tree_size(expr)

    def test_tree_size_deep_chain(self):
        x = T.data_var("tr_deep", 8)
        expr = x
        for _ in range(4000):
            expr = T.bv_not(expr)
        assert T.tree_size(expr) == 4001


class TestPrinting:
    def test_paper_notation(self):
        d = T.data_var("h.eth.dst", 48)
        c = T.control_var("t.action", 8)
        assert "@h.eth.dst@" in T.to_string(T.eq(d, T.bv_const(1, 48)))
        assert "|t.action|" in T.to_string(c)

    def test_ite_renders_question_colon(self):
        x = T.data_var("pr_x", 8)
        s = T.to_string(T.ite(T.eq(x, T.bv_const(0, 8)), T.bv_const(1, 8), x))
        assert "?" in s and ":" in s

    def test_depth_elision(self):
        x = T.data_var("pr_deep", 8)
        expr = x
        for _ in range(100):
            expr = T.add(expr, T.bv_const(1, 8))
        assert "..." in T.to_string(expr, max_depth=5)
