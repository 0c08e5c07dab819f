"""Warm snapshot/restore round-trips: the failover correctness property.

Mirrors the arena transport suite (``tests/smt/test_arena.py``): the
snapshot blob carries its warm rows in one
:meth:`~repro.smt.arena.TermArena.dumps` payload, so a restored engine —
same process or a fresh one — must be observationally identical to the
live engine it was taken from: the same ``shared`` and ``carried`` rows,
the same specialized output, the same verdicts, and the same behavior on
every subsequent update.
"""

import copy
import operator
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.context import (
    CARRIED,
    KEY_TERM,
    SHARED,
    EngineOptions,
    warm_state,
)
from repro.engine.engine import Engine
from repro.p4.printer import print_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt import terms as T

#: Device target per zoo program, as the end-to-end harness runs them.
ZOO_TARGETS = {
    "scion": "tofino",
    "switch": "tofino",
    "middleblock": "bmv2",
    "dash": "bmv2",
    "beaucoup": "tofino",
    "accturbo": "tofino",
    "dta": "tofino",
}

FIG3 = registry.get("fig3").source()
FIG5 = registry.get("fig5").source()
SWITCH = registry.get("switch").source()


def _warm_engine(source, prefix, seed, options=None):
    engine = Engine(source=source, options=options or EngineOptions(target="none"))
    for update in EntryFuzzer(engine.model, seed=seed).update_stream(count=prefix):
        engine.process_update(update)
    return engine


def _lowered(decisions):
    """Every write the decisions sent to the device, in order."""
    return [
        (l.target, l.table, l.update) for d in decisions for l in d.lowered
    ]


def _drive(engine, seed, count):
    """Decide a seeded stream; returns the decision records."""
    return [
        engine.process_update(update)
        for update in EntryFuzzer(engine.model, seed=seed).update_stream(count=count)
    ]


def _warm_zoo_engine(name):
    return _warm_engine(
        registry.get(name).source(),
        24,
        seed=5,
        options=EngineOptions(target=ZOO_TARGETS[name]),
    )


def _assert_round_trips(live):
    """Every ``shared`` and ``carried`` row comes back equal (the same
    terms), and the next updates decide, work and lower identically."""
    blob = pickle.loads(pickle.dumps(live.snapshot()))
    # As snapshotted: building the restored engine may collect, which
    # empties the live engine's generation rows.
    ours = [
        (row, copy.copy(container))
        for row, container in warm_state(live.ctx, SHARED, CARRIED)
    ]
    restored = Engine.restore(blob)
    theirs = list(warm_state(restored.ctx, SHARED, CARRIED))
    assert [row for row, _ in theirs] == [row for row, _ in ours]
    for (row, mine), (_, restored_row) in zip(ours, theirs):
        assert restored_row == mine and list(restored_row) == list(mine), row.path
        if row.key == KEY_TERM:  # decoding re-interns: the same objects
            assert all(map(operator.is_, restored_row, mine)), row.path
    # The next updates lower identically, with the same decisions and
    # the same work (points kept on an unchanged term, witnesses hit).
    stream = EntryFuzzer(live.model, seed=6).update_stream(count=12)
    ours, theirs = [], []
    for update in stream:
        a, b = live.process_update(update), restored.process_update(update)
        assert (b.recompiled, b.changed) == (a.recompiled, a.changed)
        assert (b.affected_points, b.redecided_points, b.unchanged_points) == (
            a.affected_points,
            a.redecided_points,
            a.unchanged_points,
        )
        ours.append(a)
        theirs.append(b)
    assert _lowered(theirs) == _lowered(ours)
    assert print_program(restored.specialized_program) == print_program(
        live.specialized_program
    )


class TestRoundTrip:
    @settings(max_examples=8, deadline=None)
    @given(
        prefix=st.integers(min_value=0, max_value=25),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_arbitrary_warm_session_round_trips(self, prefix, seed):
        live = _warm_engine(FIG3, prefix, seed)
        blob = pickle.loads(pickle.dumps(live.snapshot()))
        restored = Engine.restore(blob)
        assert print_program(restored.specialized_program) == print_program(
            live.specialized_program
        )
        assert restored.point_verdicts == live.point_verdicts
        assert restored.table_verdicts == live.table_verdicts
        assert restored.recompilations == live.recompilations
        # The remaining stream yields identical behavior on both engines.
        ours = _drive(live, seed + 1, 12)
        theirs = _drive(restored, seed + 1, 12)
        assert _lowered(ours) == _lowered(theirs)
        assert print_program(restored.specialized_program) == print_program(
            live.specialized_program
        )
        assert [d.forwarded for d in ours] == [d.forwarded for d in theirs]
        assert (restored.forwarded_count, restored.recompiled_count) == (
            live.forwarded_count,
            live.recompiled_count,
        )

    @pytest.mark.parametrize("name", sorted(ZOO_TARGETS))
    def test_every_zoo_program_round_trips_every_warm_row(self, name):
        _assert_round_trips(_warm_zoo_engine(name))

    @pytest.mark.parametrize("name", sorted(ZOO_TARGETS))
    def test_a_snapshot_right_after_a_collection_round_trips(self, name):
        """A collection empties the ``generation`` rows (the shared ones
        among them) and frees every term the engine no longer holds; the
        carried rows still name live terms, so they round-trip as ever."""
        live = _warm_zoo_engine(name)
        assert T.DEFAULT_FACTORY.collect() > 0
        _assert_round_trips(live)

    def test_restore_skips_the_cold_encode(self):
        # A restored engine must not pay the encode sweep again: the
        # restore pass replaces it, and the witness records prove the warm
        # state actually came back.
        live = _warm_engine(SWITCH, 20, seed=3)
        restored = Engine.restore(live.snapshot())
        names = [p.name for p in restored._cold.passes]
        assert "restore" in names and "encode" not in names
        assert len(restored.gate._records) > 0
        assert restored.point_verdicts == live.point_verdicts

    def test_restored_warm_latency_is_warm_path(self):
        # Failover claim: the replica answers from restored caches —
        # the warm update must not trigger a from-scratch recompile storm.
        live = _warm_engine(FIG3, 15, seed=9)
        restored = Engine.restore(pickle.loads(pickle.dumps(live.snapshot())))
        before = restored.recompilations
        _drive(restored, seed=10, count=5)
        _drive(live, seed=10, count=5)
        assert restored.recompilations - before == live.recompilations - before

    def test_snapshot_requires_source(self):
        from repro.p4.parser import parse_program

        engine = Engine(parse_program(FIG3), EngineOptions(target="none"))
        with pytest.raises(ValueError):
            engine.snapshot()

    def test_solver_state_survives(self):
        live = _warm_engine(FIG5, 20, seed=4)
        restored = Engine.restore(pickle.loads(pickle.dumps(live.snapshot())))
        a = live.ctx.query_engine.solver
        b = restored.ctx.query_engine.solver
        assert b._results == a._results
        assert restored.ctx.query_engine._exec_cache == (
            live.ctx.query_engine._exec_cache
        )


class TestCrossProcess:
    def test_restore_in_fresh_process(self, tmp_path: Path):
        # The real failover path: snapshot on this interpreter, restore
        # on a brand-new one (fresh hash-consing table, fresh caches),
        # drive both with the same seeded stream, compare observables.
        live = _warm_engine(FIG3, 18, seed=21)
        snap = tmp_path / "switch.snapshot.pkl"
        snap.write_bytes(pickle.dumps(live.snapshot()))
        script = """
import pickle, sys
from repro.engine.engine import Engine
from repro.p4.printer import print_program
from repro.runtime.fuzzer import EntryFuzzer

with open(sys.argv[1], "rb") as handle:
    engine = Engine.restore(pickle.load(handle))
trace = [
    (l.target, l.table, repr(l.update))
    for update in EntryFuzzer(engine.model, seed=22).update_stream(count=10)
    for l in engine.process_update(update).lowered
]
print(repr((print_program(engine.specialized_program), trace,
            sorted(engine.point_verdicts.items()))))
"""
        result = subprocess.run(
            [sys.executable, "-c", script, str(snap)],
            capture_output=True,
            text=True,
            check=True,
        )
        decisions = _drive(live, seed=22, count=10)
        expected = (
            print_program(live.specialized_program),
            [
                (l.target, l.table, repr(l.update))
                for d in decisions
                for l in d.lowered
            ],
            sorted(live.point_verdicts.items()),
        )
        assert result.stdout.strip() == repr(expected)
