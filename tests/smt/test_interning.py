"""Regression tests for the interning invariant that id-keyed memos rely on.

Several caches (the engine's and the solver's simplify memos, the interval
memo) key on ``id(term)``.  That is sound because the default
:class:`TermFactory` holds a *strong* reference to every term it builds
until its next :meth:`~repro.smt.terms.TermFactory.collect`, which frees
only the terms nothing else holds — after every registered owner has
forgotten its id-keyed memos.  These tests pin that rule down: identity
between collections, freeing at a collection, and stable ids for the
terms something still holds.
"""

import gc
import weakref

from repro.smt import terms as T
from repro.smt.substitute import DeltaSubstitution
from tests.smt.variable_deps import variable_dependencies


class TestInterningInvariant:
    def test_structural_equality_is_identity(self):
        a = T.add(T.data_var("x", 8), T.bv_const(1, 8))
        b = T.add(T.data_var("x", 8), T.bv_const(1, 8))
        assert a is b

    def test_factory_holds_strong_references(self):
        """Between collections a rebuilt term is the same object; a
        collection frees a term nothing holds and keeps the id of one
        that something does."""
        def probe():
            return T.bv_xor(T.data_var("intern_probe", 16), T.bv_const(0xBEEF, 16))

        term = probe()
        first_id = id(term)
        dropped = weakref.ref(term)
        del term
        gc.collect()
        assert dropped() is not None  # the table still holds it
        rebuilt = probe()
        assert id(rebuilt) == first_id
        del rebuilt

        held = T.bv_and(T.data_var("intern_held", 16), T.bv_const(0x0F0F, 16))
        held_id = id(held)
        T.DEFAULT_FACTORY.collect()
        assert dropped() is None
        assert id(held) == held_id
        assert T.bv_and(T.data_var("intern_held", 16), T.bv_const(0x0F0F, 16)) is held

    def test_interned_terms_are_in_factory_table(self):
        term = T.eq(T.data_var("y", 4), T.bv_const(3, 4))
        assert any(entry is term for entry in T.DEFAULT_FACTORY._table.values())


class TestCollection:
    """``TermFactory.collect`` on private factories, so the counts are
    exact."""

    @staticmethod
    def chain(factory, depth, name="c"):
        x = factory.data_var(name, 16)
        term = factory.bv_const(0, 16)
        for i in range(depth):
            term = factory.ite(factory.eq(x, factory.bv_const(i, 16)), x, term)
        return term

    def test_one_collection_frees_a_whole_dead_dag(self):
        factory = T.TermFactory()
        held = self.chain(factory, 5, "held")
        live = len(factory._table)
        self.chain(factory, 60)
        grown = len(factory._table) - live
        assert grown > 120
        assert factory.collect() == grown
        assert len(factory._table) == live == factory.live
        # The survivors keep their order: children before parents.
        order = {id(term): i for i, term in enumerate(factory._table.values())}
        for term in factory._table.values():
            assert all(order[id(arg)] < order[id(term)] for arg in term.args)
        assert self.chain(factory, 5, "held") is held

    def test_owners_forget_first_and_are_held_weakly(self):
        factory = T.TermFactory()

        class Owner:
            def __init__(self):
                self.memo = {}

            def forget(self):
                self.forgot_at = len(factory._table)
                self.memo.clear()

        owner, dropped = Owner(), Owner()
        factory.register(owner)
        factory.register(dropped)
        term = self.chain(factory, 3)
        owner.memo[id(term)] = term
        size = len(factory._table)
        del term, dropped
        gc.collect()
        assert len(factory._owners) == 1
        factory.collect()
        assert owner.forgot_at == size  # before the sweep
        assert len(factory._table) == 0

    def test_collection_waits_for_the_table_to_grow(self):
        factory = T.TermFactory()
        held = [self.chain(factory, 700, f"h{i}") for i in range(2)]
        live = len(factory._table)
        assert live < T.COLLECT_FLOOR
        factory.collect_if_due()
        assert factory.generation == 0
        self.chain(factory, 1000)
        factory.collect_if_due()
        assert factory.generation == 1
        assert factory.live == len(factory._table) == live
        assert factory._collect_at == max(
            T.COLLECT_FLOOR, T.COLLECT_GROWTH * factory.live
        )
        assert held


class TestSubstitutionInterning:
    """A burst pushes every touched table's assignments through the one
    shared substitution, which builds its terms through the shared
    factory."""

    def test_one_set_many_for_two_tables_gives_interned_results(self):
        x = T.data_var("burst_probe_x", 8)
        ctrl_a = T.control_var("burst_probe.a", 8)
        ctrl_b = T.control_var("burst_probe.b", 8)
        shared_sub = DeltaSubstitution({})
        exprs = {"a": T.add(ctrl_a, x), "b": T.mul(ctrl_b, x)}
        for expr in exprs.values():
            shared_sub.apply(expr)
        changed = shared_sub.set_many(
            {ctrl_a: T.bv_const(3, 8), ctrl_b: T.bv_const(5, 8)}
        )
        assert changed == {"burst_probe.a", "burst_probe.b"}
        # Propagation left both memo entries current, as the interned
        # representatives of their structure.
        assert shared_sub._memo[exprs["a"]] is T.add(T.bv_const(3, 8), x)
        assert shared_sub._memo[exprs["b"]] is T.mul(T.bv_const(5, 8), x)
        assert shared_sub.apply(exprs["a"]) is T.add(T.bv_const(3, 8), x)


class TestTreeSizeMemo:
    def test_memoized_matches_recount(self):
        x = T.data_var("x", 8)
        term = T.add(T.mul(x, T.bv_const(3, 8)), T.bv_const(7, 8))
        memo: dict = {}
        first = T.tree_size(term, memo)
        assert memo[term] == first
        assert T.tree_size(term, memo) == first
        # A fresh count agrees with the memoised one.
        assert T.tree_size(term) == first

    def test_shared_subterms_counted_per_occurrence(self):
        # tree_size is the *tree* size: a DAG-shared child counts once per
        # occurrence.  The memo must not collapse that to DAG size.
        x = T.data_var("x", 8)
        shared = T.add(x, T.bv_const(1, 8))
        memo: dict = {}
        T.tree_size(shared, memo)  # warm the memo on the subterm first
        term = T.mul(shared, shared)
        assert T.tree_size(term, memo) == 2 * T.tree_size(shared) + 1


class TestVariableDependencies:
    def test_collects_all_variable_names(self):
        term = T.ite(
            T.eq(T.control_var("t.action", 2), T.bv_const(1, 2)),
            T.data_var("pkt.f", 8),
            T.bv_const(0, 8),
        )
        assert variable_dependencies(term) == {"t.action", "pkt.f"}

    def test_constant_has_no_dependencies(self):
        assert variable_dependencies(T.bv_const(5, 8)) == frozenset()

    def test_memo_is_stable_across_calls(self):
        term = T.add(T.data_var("a", 8), T.data_var("b", 8))
        assert variable_dependencies(term) is variable_dependencies(term)
