"""Warm snapshot/restore round-trips: the failover correctness property.

Mirrors the arena transport suite (``tests/smt/test_arena.py``): the
snapshot blob is one :class:`~repro.smt.arena.TermArena` payload, so a
restored engine — same process or a fresh one — must be observationally
identical to the live engine it was taken from: same specialized output,
same verdicts, and the same behavior on every subsequent update.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.context import EngineOptions
from repro.engine.engine import Engine
from repro.engine.events import EventBus, PassFinished, SnapshotRestored
from repro.p4.printer import print_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer

FIG3 = registry.get("fig3").source()
FIG5 = registry.get("fig5").source()
SWITCH = registry.get("switch").source()


def _warm_engine(source, prefix, seed, options=None):
    engine = Engine(source=source, options=options or EngineOptions(target="none"))
    for update in EntryFuzzer(engine.model, seed=seed).update_stream(count=prefix):
        engine.process_update(update)
    return engine


def _lowered(engine, start=0):
    return [
        (l.target, l.table, l.update) for l in engine.lowered_updates[start:]
    ]


def _drive(engine, seed, count):
    for update in EntryFuzzer(engine.model, seed=seed).update_stream(count=count):
        engine.process_update(update)


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
        base_live, base_restored = len(live.lowered_updates), len(
            restored.lowered_updates
        )
        _drive(live, seed + 1, 12)
        _drive(restored, seed + 1, 12)
        assert _lowered(live, base_live) == _lowered(restored, base_restored)
        assert print_program(restored.specialized_program) == print_program(
            live.specialized_program
        )
        assert [d.forwarded for d in live.update_log[-12:]] == [
            d.forwarded for d in restored.update_log[-12:]
        ]

    def test_restore_skips_the_cold_encode(self):
        # A restored engine must not pay analysis/encode again: the
        # restore pass replaces them, and the telemetry proves the warm
        # state actually came back (witnesses restored).
        live = _warm_engine(SWITCH, 20, seed=3)
        bus = EventBus()
        log = bus.attach_log()
        restored = Engine.restore(live.snapshot(), bus=bus)
        names = [event.pass_name for event in log.of_type(PassFinished)]
        assert "restore" in names
        assert "analysis" not in names and "encode" not in names
        events = log.of_type(SnapshotRestored)
        assert len(events) == 1
        assert events[0].witness_records > 0
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
base = len(engine.lowered_updates)
for update in EntryFuzzer(engine.model, seed=22).update_stream(count=10):
    engine.process_update(update)
trace = [(l.target, l.table, repr(l.update)) for l in engine.lowered_updates[base:]]
print(repr((print_program(engine.specialized_program), trace,
            sorted(engine.point_verdicts.items()))))
"""
        result = subprocess.run(
            [sys.executable, "-c", script, str(snap)],
            capture_output=True,
            text=True,
            check=True,
        )
        base = len(live.lowered_updates)
        _drive(live, seed=22, count=10)
        expected = (
            print_program(live.specialized_program),
            [
                (l.target, l.table, repr(l.update))
                for l in live.lowered_updates[base:]
            ],
            sorted(live.point_verdicts.items()),
        )
        assert result.stdout.strip() == repr(expected)
