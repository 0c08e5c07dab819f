"""Property tests for the change-propagating substitution layer.

``DeltaSubstitution.apply`` must return the very object
``simplify(Substitution(mapping).apply(term))`` returns whatever sequence
of ``set_many`` calls led to the mapping, report exactly the symbols whose
assignment changed (the warm path re-queries only points tainted by
those), leave every memo entry current when ``set_many`` returns,
re-evaluate nothing but ancestors of a symbol whose simplified assignment
moved, and keep its memo, parent edges and heights bounded by the
program's own term DAG rather than by the update history.
"""

import importlib

from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.arena import TermArena
from repro.smt.simplify import simplify
from repro.smt.substitute import DeltaSubstitution, Substitution
from tests.smt.variable_deps import variable_dependencies

#: The module, not the ``substitute`` helper ``repro.smt`` re-exports.
substitute_module = importlib.import_module("repro.smt.substitute")

CTRL = [T.control_var(f"dsub.c{i}", 8) for i in range(4)]
DATA = [T.data_var(f"dsub.x{i}", 8) for i in range(3)]


def _const(value):
    return T.bv_const(value, 8)


def _combine(children):
    """One more operator level over ``children`` (covers every arity the
    rebuild table dispatches on, ``extract`` with its payload included)."""
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda p: T.add(*p)),
        pair.map(lambda p: T.bv_xor(*p)),
        pair.map(lambda p: T.mul(*p)),
        children.map(T.bv_not),
        pair.map(lambda p: T.concat(T.extract(p[0], 7, 4), T.extract(p[1], 3, 0))),
        st.tuples(children, children, children).map(
            lambda t: T.ite(T.ult(t[0], t[1]), t[2], t[0])
        ),
    )


LEAVES = st.one_of(
    st.sampled_from(CTRL), st.sampled_from(DATA), st.integers(0, 255).map(_const)
)
EXPRS = st.lists(st.recursive(LEAVES, _combine, max_leaves=12), min_size=1, max_size=5)
#: Replacement terms: constants, packet fields, and (as table encodings do)
#: expressions over packet fields.  Few distinct values, so a step often
#: re-installs the assignment already in place.
REPLACEMENTS = st.one_of(
    st.sampled_from([_const(0), _const(1), _const(7)]),
    st.sampled_from(DATA),
    st.sampled_from(DATA).map(lambda x: T.ite(T.eq(x, _const(1)), _const(7), _const(0))),
)
ASSIGNMENTS = st.dictionaries(st.sampled_from(CTRL), REPLACEMENTS, max_size=len(CTRL))
STEPS = st.lists(ASSIGNMENTS, min_size=1, max_size=8)


def _fresh(current, term):
    """The specification: one-shot substitution, then simplification."""
    return simplify(Substitution(current).apply(term))


def _edge_count(substitution):
    return sum(len(nodes) for nodes in substitution._parents.values())


def _assert_every_entry_is_right(delta, current):
    """Every memo entry is the specification's result, and every height is
    one more than the tallest child's."""
    for key, result in delta._memo.items():
        assert result is _fresh(current, key)
        if key.args:
            tallest = max(delta._heights.get(child, 0) for child in key.args)
            assert delta._heights[key] == 1 + tallest


class TestDeltaMatchesFreshSubstitution:
    @settings(max_examples=150, deadline=None)
    @given(exprs=EXPRS, steps=STEPS)
    def test_any_set_many_sequence(self, exprs, steps):
        delta = DeltaSubstitution({})
        current: dict = {}
        for term in exprs:  # warm the memo under the empty mapping
            assert delta.apply(term) is simplify(term)
        for index, step in enumerate(steps):
            expected = {
                var.name for var, new in step.items() if current.get(var) is not new
            }
            before = dict(delta._memo)
            assert delta.set_many(step) == expected
            current.update(step)
            # Only ancestors of a re-assigned symbol moved, and everything,
            # pulled or not, is right before anything is pulled.
            for key, result in delta._memo.items():
                if key in before and before[key] is not result:
                    assert variable_dependencies(key) & expected
            _assert_every_entry_is_right(delta, current)
            # Pull a different subset each step: a pull of a memoised term
            # is a hit, whatever the history.
            for term in exprs[index % 2 :: 2] if index + 1 < len(steps) else exprs:
                misses = delta.counter.misses
                assert delta.apply(term) is _fresh(current, term)
                assert delta.counter.misses == misses
            _assert_every_entry_is_right(delta, current)

    def test_unchanged_assignment_reports_and_drops_nothing(self):
        expr = T.add(CTRL[0], T.mul(CTRL[1], DATA[0]))
        delta = DeltaSubstitution({CTRL[0]: _const(3), CTRL[1]: DATA[1]})
        delta.apply(expr)
        memo = dict(delta._memo)
        assert delta.set_many({CTRL[0]: _const(3), CTRL[1]: DATA[1]}) == set()
        assert delta._memo == memo
        assert delta.counter.invalidations == 0

    def test_assignment_with_the_same_simplified_form_pushes_nothing(self):
        expr = T.add(CTRL[0], DATA[0])
        delta = DeltaSubstitution({CTRL[0]: DATA[1]})
        delta.apply(expr)
        rewrites = delta.rewrites
        same = T.bv_xor(DATA[1], _const(0))  # another term, simplifies to DATA[1]
        assert delta.set_many({CTRL[0]: same}) == {CTRL[0].name}
        assert delta.counter.invalidations == 0
        assert delta.apply(expr) is T.add(DATA[1], DATA[0])
        assert delta.rewrites == rewrites

    def test_cutoff_stops_above_an_unchanged_result(self):
        # ctrl0 feeds a comparison that stays false: the nodes up to the
        # guard are re-evaluated, the 20-level chain above it is left alone.
        guard = T.ult(_const(200), T.bv_and(CTRL[0], _const(0x0F)))
        chain = DATA[0]
        for level in range(20):
            chain = T.ite(guard, _const(level), T.add(chain, DATA[1]))
        delta = DeltaSubstitution({CTRL[0]: _const(1)})
        first = delta.apply(chain)
        invalidations, rewrites = delta.counter.invalidations, delta.rewrites
        delta.set_many({CTRL[0]: _const(2)})
        assert 0 < delta.counter.invalidations - invalidations <= 3
        hits = delta.counter.hits
        assert delta.apply(chain) is first
        assert delta.counter.hits == hits + 1
        assert delta.rewrites - rewrites <= 3

    def test_a_diamond_is_rewritten_once_and_after_both_sides(self, monkeypatch):
        # Both arms of the top node move, one three levels above the symbol
        # and one a single level: the top is rewritten exactly once per
        # set_many, after each arm, whatever order the edges list them in.
        left = T.add(CTRL[0], DATA[0])
        right = T.mul(T.add(T.bv_xor(CTRL[0], DATA[1]), DATA[2]), DATA[0])
        top = T.bv_xor(left, right)
        delta = DeltaSubstitution({CTRL[0]: _const(1)})
        delta.apply(top)
        rewritten: list = []
        original = substitute_module._rewrite

        def spy(node, results, memo):
            rewritten.append(node)
            return original(node, results, memo)

        monkeypatch.setattr(substitute_module, "_rewrite", spy)
        for value in (2, 3, 4):
            rewritten.clear()
            delta.set_many({CTRL[0]: _const(value)})
            assert rewritten.count(top) == 1
            assert rewritten.index(top) > max(rewritten.index(left), rewritten.index(right))
            assert delta.counter.misses == 1
            assert delta.apply(top) is _fresh({CTRL[0]: _const(value)}, top)


class TestNoGrowthWithHistory:
    def test_alternating_assignments_reach_a_fixed_size(self):
        exprs = [
            T.ite(T.eq(CTRL[0], _const(1)), T.add(CTRL[1], DATA[0]), DATA[1]),
            T.bv_xor(T.add(CTRL[1], DATA[0]), T.extract(T.concat(CTRL[2], DATA[2]), 11, 4)),
            T.mul(CTRL[0], T.bv_not(CTRL[2])),
        ]
        assignments = (
            {CTRL[0]: _const(1), CTRL[1]: DATA[2], CTRL[2]: _const(0)},
            {CTRL[0]: DATA[0], CTRL[1]: _const(9), CTRL[2]: DATA[1]},
        )
        delta = DeltaSubstitution({})

        def alternate(times):
            for index in range(times):
                delta.set_many(assignments[index % 2])
                for term in exprs:
                    delta.apply(term)
            return (
                delta.memo_size,
                len(delta._heights),
                len(delta._parents),
                _edge_count(delta),
            )

        after_two = alternate(2)
        assert alternate(1000) == after_two


class TestSliceShadowAndAbsorb:
    @settings(max_examples=100, deadline=None)
    @given(
        exprs=EXPRS,
        initial=ASSIGNMENTS,
        stale=ASSIGNMENTS,
        steps=STEPS,
        warm=st.integers(0, 5),
    )
    def test_slice_then_absorb_equals_direct_set_many(
        self, exprs, initial, stale, steps, warm
    ):
        shared = DeltaSubstitution(initial)
        twin = DeltaSubstitution(initial)
        # The rest is first memoized by the slice: its entries sit above
        # shared ones and are reached through the slice's own edges only.
        warmed = exprs[:warm]
        for term in warmed:
            shared.apply(term)
        base = dict(initial)
        base.update(stale)
        shared.set_many(stale)
        twin.set_many(stale)
        at_fork = (dict(shared._memo), dict(shared._heights), _edge_count(shared))
        piece = shared.fork_slice()
        current = dict(base)
        for step in steps:
            assert piece.set_many(step) == twin.set_many(step)
            current.update(step)
            for term in exprs:
                assert piece.apply(term) is _fresh(current, term)
        # The shared layer was not touched meanwhile.
        assert (dict(shared._memo), dict(shared._heights), _edge_count(shared)) == at_fork
        shared.absorb(piece)
        assert shared._mapping == twin._mapping
        _assert_every_entry_is_right(shared, current)
        for term in exprs:
            assert shared.apply(term) is twin.apply(term) is _fresh(current, term)
        # The grafted edges and heights push like directly recorded ones.
        flip = {var: _const(200) for var in CTRL}
        assert shared.set_many(flip) == twin.set_many(flip)
        current.update(flip)
        _assert_every_entry_is_right(shared, current)
        for term in exprs:
            assert shared.apply(term) is twin.apply(term) is _fresh(current, term)


class TestSnapshotWithoutIndex:
    @settings(max_examples=50, deadline=None)
    @given(
        exprs=EXPRS,
        initial=ASSIGNMENTS,
        stale=ASSIGNMENTS,
        later=ASSIGNMENTS,
    )
    def test_round_trip_rederives_the_edges(self, exprs, initial, stale, later):
        source = DeltaSubstitution(initial)
        for term in exprs:
            source.apply(term)
        source.set_many(stale)  # exported after a push, with nothing pulled
        # What a snapshot carries: the mapping and the memo, nothing else.
        carried = TermArena.loads(
            TermArena.dumps({"mapping": source._mapping, "memo": source._memo})
        )
        restored = DeltaSubstitution({})
        restored._mapping.update(carried["mapping"])
        restored._memo.update(carried["memo"])
        restored.rederive_edges()
        assert restored.memo_size == source.memo_size
        assert restored._mapping == source._mapping
        assert restored._memo == source._memo
        assert restored._heights == source._heights
        assert restored._parents == source._parents
        current = dict(initial)
        current.update(stale)
        _assert_every_entry_is_right(restored, current)
        current.update(later)
        assert restored.set_many(later) == source.set_many(later)
        _assert_every_entry_is_right(restored, current)
        for term in exprs:
            assert restored.apply(term) is source.apply(term) is _fresh(current, term)
