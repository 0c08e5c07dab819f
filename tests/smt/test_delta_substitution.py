"""Property tests for the change-driven substitution layer.

``DeltaSubstitution`` must behave like a fresh ``Substitution`` over its
current mapping whatever sequence of ``set_many`` calls led there, report
exactly the symbols whose assignment changed (the warm path re-queries
only points tainted by those), and keep its memo and parent edges bounded
by the program's own term DAG rather than by the update history.
"""

from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.arena import TermArena
from repro.smt.substitute import (
    DeltaSubstitution,
    Substitution,
    variable_dependencies,
)

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
    return Substitution(current).apply(term)


def _edge_count(substitution):
    return sum(len(nodes) for nodes in substitution._parents.values())


class TestDeltaMatchesFreshSubstitution:
    @settings(max_examples=150, deadline=None)
    @given(exprs=EXPRS, steps=STEPS)
    def test_any_set_many_sequence(self, exprs, steps):
        delta = DeltaSubstitution({})
        current: dict = {}
        for term in exprs:  # warm the memo under the empty mapping
            assert delta.apply(term) is term
        for step in steps:
            expected = {
                var.name for var, new in step.items() if current.get(var) is not new
            }
            before = set(delta._memo)
            assert delta.set_many(step) == expected
            current.update(step)
            # Exactly the entries mentioning a changed symbol were dropped
            # (a changed variable's own entry is re-seeded, not dropped).
            survivors = {
                key
                for key in before
                if key.is_var or not (variable_dependencies(key) & expected)
            }
            assert set(delta._memo) >= survivors
            assert not (set(delta._memo) - survivors - set(step))
            for term in exprs:
                assert delta.apply(term) is _fresh(current, term)

    def test_unchanged_assignment_reports_and_drops_nothing(self):
        expr = T.add(CTRL[0], T.mul(CTRL[1], DATA[0]))
        delta = DeltaSubstitution({CTRL[0]: _const(3), CTRL[1]: DATA[1]})
        delta.apply(expr)
        memo = dict(delta._memo)
        assert delta.set_many({CTRL[0]: _const(3), CTRL[1]: DATA[1]}) == set()
        assert delta._memo == memo
        assert delta.counter.invalidations == 0


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
            return delta.memo_size, len(delta._parents), _edge_count(delta)

        after_two = alternate(2)
        assert alternate(1000) == after_two


class TestSliceShadowAndAbsorb:
    @settings(max_examples=100, deadline=None)
    @given(exprs=EXPRS, initial=ASSIGNMENTS, steps=STEPS, warm=st.integers(0, 5))
    def test_slice_then_absorb_equals_direct_set_many(
        self, exprs, initial, steps, warm
    ):
        shared = DeltaSubstitution(initial)
        twin = DeltaSubstitution(initial)
        # The rest is first memoized by the slice: its entries sit above
        # shared ones and are reached through the slice's own edges only.
        warmed = exprs[:warm]
        for term in warmed:
            shared.apply(term)
        piece = shared.fork_slice()
        current = dict(initial)
        for step in steps:
            assert piece.set_many(step) == twin.set_many(step)
            current.update(step)
            for term in exprs:
                assert piece.apply(term) is _fresh(current, term)
            for term in warmed:  # the shared layer is untouched meanwhile
                assert shared.apply(term) is _fresh(initial, term)
        shared.absorb(piece)
        assert shared._mapping == twin._mapping
        for term in exprs:
            assert shared.apply(term) is twin.apply(term)
        # The grafted edges invalidate like directly recorded ones.
        flip = {var: _const(200) for var in CTRL}
        assert shared.set_many(flip) == twin.set_many(flip)
        for term in exprs:
            assert shared.apply(term) is twin.apply(term)


class TestSnapshotWithoutIndex:
    @settings(max_examples=50, deadline=None)
    @given(exprs=EXPRS, initial=ASSIGNMENTS, later=ASSIGNMENTS, legacy=st.booleans())
    def test_round_trip_rederives_the_edges(self, exprs, initial, later, legacy):
        source = DeltaSubstitution(initial)
        for term in exprs:
            source.apply(term)
        arena = TermArena()
        blob = source.export_state(arena)
        assert set(blob) == {"mapping", "memo"}
        if legacy:  # a blob written before the index was dropped
            blob["index"] = {
                var.name: [arena.encode(var)] for var in source._mapping
            }
        restored = DeltaSubstitution({})
        assert restored.import_state(arena, blob) == source.memo_size
        assert restored._mapping == source._mapping
        assert restored._memo == source._memo
        assert restored._parents == source._parents
        current = dict(initial)
        current.update(later)
        assert restored.set_many(later) == source.set_many(later)
        for term in exprs:
            assert restored.apply(term) is _fresh(current, term)
