#!/usr/bin/env python
"""CI smoke check: the staged engine runs cold + warm and emits events.

Exercises the full cold pipeline (parse → typecheck → analyze → encode →
specialize → lower) and the warm per-update path against a corpus
program, and asserts the typed event stream is non-empty and well-formed,
that the cold model's point terms are the identical objects an executor
builds with a fresh ``simplify`` memo per call, and that the
incrementally respecialized program is what a fresh specializer builds
from the engine's verdicts, that every warm Tofino recompile reports
its §6 modular cost, and that after every warm update re-pulling each
point tainted by the updated table is a substitution memo hit (the update
pushed its changes; nothing is left pending).  Exits non-zero on any
violation; prints the event summary on success.
"""

import sys

from repro.analysis import state, symexec
from repro.core import Flay, FlayOptions
from repro.engine import (
    EventBus,
    PassFinished,
    PassStarted,
    TargetCompiled,
    UpdateProcessed,
)
from repro.engine.specialize import Specializer
from repro.p4.printer import print_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt.simplify import simplify


def main() -> int:
    bus = EventBus()
    log = bus.attach_log()
    flay = Flay(registry.load("fig3"), FlayOptions(target="tofino"), bus=bus)

    cold = [e.pass_name for e in log.of_type(PassFinished)]
    assert cold == [
        "parse", "typecheck", "prune", "analyze", "encode", "specialize",
        "lower",
    ], f"unexpected cold pipeline: {cold}"
    assert log.count(TargetCompiled) == 1, "cold lowering must compile once"
    assert flay.compile_reports[0].delta is None, "a cold compile has no delta"
    reference = _fresh_memo_points(flay)
    assert list(flay.model.points) == list(reference), "program points differ"
    assert all(
        point.expr is reference[pid].expr for pid, point in flay.model.points.items()
    ), "the run-long simplify memo changed a program point's term"

    fuzzer = EntryFuzzer(flay.model, seed=0)
    table = sorted(flay.model.tables)[0]
    tainted = flay.model.points_for_control_vars(
        flay.model.table(table).control_var_names()
    )
    _repull(flay, tainted)
    for update in fuzzer.insert_burst(table, 5):
        flay.decide(update)
        assert _repull(flay, tainted) == 0, "a warm update left a substitution pull pending"
    flay.decide(fuzzer.insert_burst(table, 20))
    assert _repull(flay, tainted) == 0, "a warm batch left a substitution pull pending"

    outcomes = log.of_type(UpdateProcessed)
    assert len(outcomes) == 6, f"expected 6 outcomes, got {len(outcomes)}"
    assert outcomes[-1].kind == "batch" and outcomes[-1].update_count == 20
    assert all(o.forwarded != o.recompiled for o in outcomes)
    assert any(e.stage == "warm" for e in log.of_type(PassStarted))
    warm_reports = flay.compile_reports[1:]
    assert warm_reports, "the warm updates must recompile"
    for report in warm_reports:
        assert report.delta is not None, "a warm recompile must report its delta"
        assert report.modular_seconds <= report.modeled_seconds, report.describe()
    assert len(log) > 0, "event stream must be non-empty"

    fresh, _ = Specializer(flay.program, flay.model, flay.env).specialize(
        flay.point_verdicts, flay.table_verdicts
    )
    assert flay.specialized_source() == print_program(fresh), (
        "incremental respecialization differs from a fresh specializer"
    )

    print(f"engine smoke OK: {len(log)} events — {log.summary()}")
    return 0


def _repull(flay: Flay, pids) -> int:
    """Pull every point in ``pids`` through the engine's substitution;
    returns how many of those pulls missed its memo."""
    substitution = flay.runtime.substitution
    misses = substitution.counter.misses
    for pid in pids:
        substitution.apply(flay.model.points[pid].expr)
    return substitution.counter.misses - misses


def _fresh_memo_points(flay: Flay) -> dict:
    """The engine's program points, rebuilt by a plain executor whose every
    ``simplify`` call gets a fresh memo and whose joins pass none."""
    saved = symexec.simplify, state.simplify, symexec.merge_stores
    merge = state.merge_stores
    symexec.simplify = state.simplify = lambda term, memo=None: simplify(term)
    symexec.merge_stores = lambda cond, a, b, memo=None: merge(cond, a, b)
    try:
        executor = symexec.SymbolicExecutor(
            flay.program, flay.env, skip_parser=flay.model.skipped_parser
        )
        return executor.analyze().points
    finally:
        symexec.simplify, state.simplify, symexec.merge_stores = saved


if __name__ == "__main__":
    sys.exit(main())
