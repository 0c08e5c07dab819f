"""Regression tests for the interning invariant that id-keyed memos rely on.

Several caches (substitution memos, the engine's simplify memo) key on
``id(term)``.  That is only sound because the default :class:`TermFactory`
holds a *strong* reference to every term it ever built, so a term's id can
never be recycled by a structurally different term.  These tests pin that
invariant down so a future switch to weak interning fails loudly here
instead of corrupting caches silently.
"""

import gc
from concurrent.futures import ThreadPoolExecutor

from repro.smt import terms as T
from repro.smt.substitute import DeltaSubstitution
from tests.smt.variable_deps import variable_dependencies


class TestInterningInvariant:
    def test_structural_equality_is_identity(self):
        a = T.add(T.data_var("x", 8), T.bv_const(1, 8))
        b = T.add(T.data_var("x", 8), T.bv_const(1, 8))
        assert a is b

    def test_factory_holds_strong_references(self):
        # Build a term, drop every local reference, collect, rebuild: the
        # factory must hand back the *same object* (same id), proving the
        # first build was never garbage collected.
        term = T.bv_xor(T.data_var("intern_probe", 16), T.bv_const(0xBEEF, 16))
        first_id = id(term)
        del term
        gc.collect()
        rebuilt = T.bv_xor(T.data_var("intern_probe", 16), T.bv_const(0xBEEF, 16))
        assert id(rebuilt) == first_id

    def test_interned_terms_are_in_factory_table(self):
        term = T.eq(T.data_var("y", 4), T.bv_const(3, 4))
        assert any(entry is term for entry in T.DEFAULT_FACTORY._table.values())


class TestConcurrentInterning:
    """The batch scheduler shares one factory across its worker pool, so
    concurrent construction of the same structure must yield one object —
    ``TermFactory._mk`` interns with a single atomic ``dict.setdefault``."""

    def test_racing_builders_get_one_representative(self):
        def build(round_id):
            x = T.data_var("race_probe", 16)
            return T.add(
                T.mul(x, T.bv_const(3, 16)), T.bv_const(round_id % 2, 16)
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            terms = list(pool.map(build, range(64)))
        evens = {id(t) for i, t in enumerate(terms) if i % 2 == 0}
        odds = {id(t) for i, t in enumerate(terms) if i % 2 == 1}
        assert len(evens) == 1
        assert len(odds) == 1
        assert evens != odds

    def test_concurrent_slice_applies_then_absorb(self):
        """Worker slices applying over shared structure, then merged: the
        shared memo ends up keyed on interned ids that resolve to the very
        objects the workers produced."""
        x = T.data_var("slice_probe_x", 8)
        ctrl_a = T.control_var("slice_probe.a", 8)
        ctrl_b = T.control_var("slice_probe.b", 8)
        shared_sub = DeltaSubstitution({})
        exprs = {
            "a": T.add(ctrl_a, x),
            "b": T.mul(ctrl_b, x),
        }
        slices = {name: shared_sub.fork_slice() for name in exprs}
        mappings = {
            "a": {ctrl_a: T.bv_const(3, 8)},
            "b": {ctrl_b: T.bv_const(5, 8)},
        }

        def run(name):
            piece = slices[name]
            piece.set_many(mappings[name])
            return piece.apply(exprs[name])

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = dict(zip(exprs, pool.map(run, exprs)))
        for piece in slices.values():
            shared_sub.absorb(piece)
        # Post-merge, the shared substitution answers both by identity.
        assert shared_sub.apply(exprs["a"]) is results["a"]
        assert shared_sub.apply(exprs["b"]) is results["b"]
        # And the grafted results are the interned representatives.
        assert results["a"] is T.add(T.bv_const(3, 8), x)
        assert results["b"] is T.mul(T.bv_const(5, 8), x)


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
