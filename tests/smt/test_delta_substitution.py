"""Property tests for the change-propagating substitution layer.

``DeltaSubstitution.apply`` must return the very object
``simplify(Substitution(mapping).apply(term))`` returns whatever sequence
of ``set_many`` calls led to the mapping, report exactly the symbols whose
assignment changed (the warm path re-queries only points tainted by
those), mark dirty nothing but ancestors of a symbol whose simplified
assignment moved, and keep its memo, stored child results, parent edges
and dirty set bounded by the program's own term DAG rather than by the
update history.
"""

from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.arena import TermArena
from repro.smt.simplify import simplify
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
    """The specification: one-shot substitution, then simplification."""
    return simplify(Substitution(current).apply(term))


def _edge_count(substitution):
    return sum(len(nodes) for nodes in substitution._parents.values())


def _assert_clean_entries_are_right(delta, current):
    """Every entry not marked dirty is the specification's result, and was
    computed from its children's current results."""
    for key, result in delta._memo.items():
        if key in delta._dirty:
            continue
        assert result is _fresh(current, key)
        if key.args:
            assert delta._inputs[key] == tuple(delta._memo[c] for c in key.args)
            assert not delta._dirty.intersection(key.args)


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
            dirty_before = set(delta._dirty)
            assert delta.set_many(step) == expected
            current.update(step)
            # Only ancestors of a re-assigned symbol are newly dirty, and
            # whatever is still clean is still right.
            for key in delta._dirty - dirty_before:
                assert variable_dependencies(key) & expected
            _assert_clean_entries_are_right(delta, current)
            # Pull a different subset each step, so that dirt outlives steps.
            for term in exprs[index % 2 :: 2] if index + 1 < len(steps) else exprs:
                assert delta.apply(term) is _fresh(current, term)
            _assert_clean_entries_are_right(delta, current)
        assert not delta._dirty.intersection(exprs)

    def test_unchanged_assignment_reports_and_drops_nothing(self):
        expr = T.add(CTRL[0], T.mul(CTRL[1], DATA[0]))
        delta = DeltaSubstitution({CTRL[0]: _const(3), CTRL[1]: DATA[1]})
        delta.apply(expr)
        memo = dict(delta._memo)
        assert delta.set_many({CTRL[0]: _const(3), CTRL[1]: DATA[1]}) == set()
        assert delta._memo == memo
        assert not delta._dirty
        assert delta.counter.invalidations == 0

    def test_assignment_with_the_same_simplified_form_marks_nothing(self):
        expr = T.add(CTRL[0], DATA[0])
        delta = DeltaSubstitution({CTRL[0]: DATA[1]})
        delta.apply(expr)
        rewrites = delta.rewrites
        same = T.bv_xor(DATA[1], _const(0))  # another term, simplifies to DATA[1]
        assert delta.set_many({CTRL[0]: same}) == {CTRL[0].name}
        assert not delta._dirty
        assert delta.apply(expr) is T.add(DATA[1], DATA[0])
        assert delta.rewrites == rewrites

    def test_cutoff_stops_above_an_unchanged_result(self):
        # ctrl0 feeds a comparison that stays false: the node above the
        # symbol is rewritten, the chain above that is only checked.
        guard = T.ult(_const(200), T.bv_and(CTRL[0], _const(0x0F)))
        chain = DATA[0]
        for level in range(20):
            chain = T.ite(guard, _const(level), T.add(chain, DATA[1]))
        delta = DeltaSubstitution({CTRL[0]: _const(1)})
        first = delta.apply(chain)
        marked, rewrites = delta.counter.invalidations, delta.rewrites
        delta.set_many({CTRL[0]: _const(2)})
        assert delta.counter.invalidations - marked >= 20
        assert delta.apply(chain) is first
        assert delta.rewrites - rewrites <= 3
        assert not delta._dirty


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
                len(delta._inputs),
                len(delta._parents),
                _edge_count(delta),
                len(delta._dirty),
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
        # The slice forks from a substitution that still has dirty entries.
        base = dict(initial)
        base.update(stale)
        shared.set_many(stale)
        twin.set_many(stale)
        dirty_at_fork = set(shared._dirty)
        piece = shared.fork_slice()
        current = dict(base)
        for step in steps:
            assert piece.set_many(step) == twin.set_many(step)
            current.update(step)
            for term in exprs:
                assert piece.apply(term) is _fresh(current, term)
        # The shared layer was not touched meanwhile.
        assert shared._dirty == dirty_at_fork
        shared.absorb(piece)
        assert shared._mapping == twin._mapping
        _assert_clean_entries_are_right(shared, current)
        for term in exprs:
            assert shared.apply(term) is twin.apply(term) is _fresh(current, term)
        # The grafted edges mark like directly recorded ones.
        flip = {var: _const(200) for var in CTRL}
        assert shared.set_many(flip) == twin.set_many(flip)
        current.update(flip)
        _assert_clean_entries_are_right(shared, current)
        for term in exprs:
            assert shared.apply(term) is twin.apply(term) is _fresh(current, term)


class TestSnapshotWithoutIndex:
    @settings(max_examples=50, deadline=None)
    @given(
        exprs=EXPRS,
        initial=ASSIGNMENTS,
        stale=ASSIGNMENTS,
        later=ASSIGNMENTS,
        legacy=st.booleans(),
    )
    def test_round_trip_rederives_the_edges(self, exprs, initial, stale, later, legacy):
        source = DeltaSubstitution(initial)
        for term in exprs:
            source.apply(term)
        source.set_many(stale)  # exported with dirty entries outstanding
        arena = TermArena()
        blob = source.export_state(arena)
        assert set(blob) == {"mapping", "memo"}
        if legacy:  # a blob written before the index was dropped
            blob["index"] = {
                var.name: [arena.encode(var)] for var in source._mapping
            }
        clean = {
            key: value
            for key, value in source._memo.items()
            if key not in source._dirty
        }
        restored = DeltaSubstitution({})
        assert restored.import_state(arena, blob) == len(clean)
        assert restored._mapping == source._mapping
        assert restored._memo == clean
        assert restored._inputs == {
            key: source._inputs[key] for key in clean if key.args
        }
        assert not restored._dirty
        current = dict(initial)
        current.update(stale)
        _assert_clean_entries_are_right(restored, current)
        current.update(later)
        assert restored.set_many(later) == source.set_many(later)
        for term in exprs:
            assert restored.apply(term) is source.apply(term) is _fresh(current, term)
