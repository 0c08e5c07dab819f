#!/usr/bin/env python
"""CI smoke check: the staged engine runs cold + warm, read from its records.

Exercises the full cold pipeline (parse → typecheck → analyze → encode →
specialize → lower) and the warm per-update path against a
corpus program, and asserts from the engine's own records — the pass
sequences, the timings, the compile reports and the returned decisions —
that the cold pipeline ran in order and compiled once without a delta,
that each warm decision either forwarded or recompiled, that every warm
Tofino recompile reports its delta and §6 modular cost, that the cold
model's point terms are the identical objects an executor builds with a
fresh ``simplify`` memo per call, that the incrementally respecialized
program is what a fresh specializer builds from the engine's verdicts,
and that after every warm update re-pulling each point tainted by the
updated table is a substitution memo hit (the update pushed its changes;
nothing is left pending).  Exits non-zero on any violation; prints the
decision totals on success.
"""

import sys

from repro.analysis import state, symexec
from repro.core import Flay, FlayOptions
from repro.engine.specialize import Specializer
from repro.p4.printer import print_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt.simplify import simplify
from repro.targets.base import create_target


def main() -> int:
    target = create_target("tofino")
    compiles = _count_compiles(target)
    flay = Flay(
        registry.load("fig3"), FlayOptions(target="tofino"), device_compiler=target
    )

    cold = flay._cold.describe()
    assert cold == (
        "parse → typecheck → analyze → encode → specialize → lower"
    ), f"unexpected cold pipeline: {cold}"
    assert all(p.stage == "cold" for p in flay._cold.passes)
    ctx = flay.ctx
    products = {
        "parse": ctx.program,
        "typecheck": ctx.env,
        "analyze": ctx.model,
        "encode": ctx.point_verdicts,
        "specialize": ctx.specialized_program,
        "lower": ctx.compile_report,
    }
    assert list(products) == [p.name for p in flay._cold.passes]
    missing = [name for name, product in products.items() if not product]
    assert not missing, f"declared cold passes left no product: {missing}"
    timings = flay.timings
    assert timings.data_plane_analysis_seconds > 0, "the analysis must have run"
    assert timings.initial_specialization_seconds > 0
    assert len(compiles) == 1, "cold lowering must compile once"
    assert compiles[0] is flay.compile_report
    assert flay.compile_report.delta is None, "a cold compile has no delta"
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
    assert flay._warm.describe() == "apply-updates → decide"
    assert all(p.stage == "warm" for p in flay._warm.passes)
    _repull(flay, tainted)
    decisions = []
    for update in fuzzer.insert_burst(table, 5):
        decisions.append(flay.decide(update))
        assert _repull(flay, tainted) == 0, "a warm update left a substitution pull pending"
    burst = fuzzer.insert_burst(table, 20)
    decisions.append(flay.decide(burst))
    assert _repull(flay, tainted) == 0, "a warm batch left a substitution pull pending"

    assert decisions[-1].burst and decisions[-1].update_count == 20
    assert 1 <= decisions[-1].group_count <= decisions[-1].coalesced_count
    assert flay.ctx.decisions == len(decisions) == 6
    assert all(d.forwarded != d.recompiled for d in decisions)
    recompiled = [d for d in decisions if d.recompiled]
    assert recompiled, "the warm updates must recompile"
    assert len(compiles) == 1 + len(recompiled) == 1 + flay.recompiled_count
    for decision in decisions:
        report = decision.compile_report
        if not decision.recompiled:
            assert report is None, "a forward must not compile"
            assert len(decision.lowered) == decision.update_count
            continue
        assert report is not None and not decision.lowered
        assert report.delta is not None, "a warm recompile must report its delta"
        assert report.modular_seconds <= report.modeled_seconds, report.describe()

    fresh, _ = Specializer(flay.program, flay.model, flay.env).specialize(
        flay.point_verdicts, flay.table_verdicts
    )
    assert flay.specialized_source() == print_program(fresh), (
        "incremental respecialization differs from a fresh specializer"
    )

    print(
        f"engine smoke OK: cold {cold}; {len(decisions)} decisions "
        f"({flay.forwarded_count} forwarded, {flay.recompiled_count} recompiled), "
        f"{len(compiles)} device compiles"
    )
    return 0


def _count_compiles(target) -> list:
    """Record every report ``target`` compiles from now on."""
    compile_program, reports = target.compile, []

    def compile(program):
        reports.append(compile_program(program))
        return reports[-1]

    target.compile = compile
    return reports


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
