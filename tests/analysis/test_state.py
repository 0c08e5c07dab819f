"""Tests for the symbolic store and state merging."""

from repro.analysis.state import SymbolicStore, merge_stores
from repro.smt import terms as T


def c(v, w=8):
    return T.bv_const(v, w)


class TestStore:
    def test_read_write(self):
        store = SymbolicStore()
        store.write("a.b", c(1))
        assert store.read("a.b") is c(1)

    def test_missing_read_raises(self):
        import pytest

        with pytest.raises(KeyError):
            SymbolicStore().read("nope")

    def test_fork_isolated(self):
        store = SymbolicStore()
        store.write("x", c(1))
        fork = store.fork()
        fork.write("x", c(2))
        assert store.read("x") is c(1)
        assert fork.read("x") is c(2)

    def test_snapshot_detached(self):
        store = SymbolicStore()
        store.write("x", c(1))
        snap = store.snapshot()
        store.write("x", c(2))
        assert snap["x"] is c(1)


class TestMerge:
    def test_identical_values_untouched(self):
        a = SymbolicStore({"x": c(1)})
        b = SymbolicStore({"x": c(1)})
        merged = merge_stores(T.bool_var("m"), a, b)
        assert merged.read("x") is c(1)

    def test_differing_values_become_ite(self):
        cond = T.eq(T.data_var("mg", 8), c(0))
        a = SymbolicStore({"x": c(1)})
        b = SymbolicStore({"x": c(2)})
        merged = merge_stores(cond, a, b)
        value = merged.read("x")
        assert T.evaluate(value, {"mg": 0}) == 1
        assert T.evaluate(value, {"mg": 5}) == 2

    def test_constant_condition_folds(self):
        a = SymbolicStore({"x": c(1)})
        b = SymbolicStore({"x": c(2)})
        assert merge_stores(T.TRUE, a, b).read("x") is c(1)
        assert merge_stores(T.FALSE, a, b).read("x") is c(2)

    def test_memo_gives_the_same_objects(self):
        x = T.data_var("mm", 8)
        cond = T.eq(x, c(0))
        a = SymbolicStore({"x": T.add(x, c(0)), "y": c(1), "z": T.ite(cond, x, x)})
        b = SymbolicStore({"x": T.bv_and(x, c(0xFF)), "y": c(2), "z": c(3)})
        memo: dict = {}
        # Seed the memo with a subterm both merges simplify.
        merge_stores(T.bool_not(cond), a, b, memo)
        with_memo = merge_stores(cond, a, b, memo)
        without = merge_stores(cond, a, b)
        assert list(with_memo.paths()) == list(without.paths())
        for path in without.paths():
            assert with_memo.read(path) is without.read(path)
        assert with_memo.read("x") is x

    def test_one_sided_paths_kept(self):
        cond = T.bool_var("mo")
        a = SymbolicStore({"x": c(1), "only_a": c(9)})
        b = SymbolicStore({"x": c(1), "only_b": c(8)})
        merged = merge_stores(cond, a, b)
        assert merged.read("only_a") is c(9)
        assert merged.read("only_b") is c(8)
