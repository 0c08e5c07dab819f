"""Benches for the paper's §6 future-work directions, built on Flay.

1. **Incremental device recompilation**: when respecialization is needed,
   recompile only the tables whose implementation changed instead of the
   whole program (modeled per-module compiler vs the monolithic Table 1
   model).
2. **Specialization quality vs time**: the effort knob none/dce/full,
   trading residual program size (pipeline stages) against
   respecialization latency.
"""

import time

import pytest

from conftest import heading, make_flay
from repro.core import EFFORT_DCE, EFFORT_FULL, EFFORT_NONE, Flay, FlayOptions
from repro.programs import registry, scion
from repro.runtime.entries import ExactMatch, TableEntry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import INSERT, Update
from repro.targets.tofino import allocate
from repro.targets.tofino.compiler import TofinoCompiler


def _scion_config(flay):
    fuzzer = EntryFuzzer(flay.model, seed=7)
    updates = [
        Update(
            "ScionIngress.underlay_map",
            INSERT,
            TableEntry((ExactMatch(0x0800),), "underlay_v4", ()),
        )
    ]
    for table in scion.ipv4_config_tables():
        updates.extend(fuzzer.representative_updates(table))
    return updates


class TestIncrementalRecompilation:
    def test_incremental_vs_monolithic_compile(self, benchmark, corpus_programs):
        """After the IPv4-only specialization, enable IPv6: the modular
        compiler pays for the tables that changed, not the whole program."""
        program = corpus_programs["scion"]
        compiler = TofinoCompiler(program_name="scion")
        flay = Flay(program, FlayOptions(target="none"))
        flay.runtime.device_compiler = compiler
        baseline = flay.specialized_program
        compiler.compile(baseline)  # baseline artifact

        report = flay.process_batch(_scion_config(flay)).compile_report
        speedup = report.modeled_seconds / report.modular_seconds

        heading("§6 future work: incremental device recompilation (scion)")
        print(f"respecialization delta: {report.delta.describe()}")
        print(f"incremental compile:    {report.modular_seconds:.1f} s")
        print(f"monolithic compile:     {report.modeled_seconds:.1f} s")
        print(f"speedup:                {speedup:.1f}x")
        assert speedup > 1.5

        # Time the compile that produces the delta, each round against the
        # baseline again.
        def after_baseline():
            compiler.compile(baseline)
            return (flay.specialized_program,), {}

        again = benchmark.pedantic(compiler.compile, setup=after_baseline, rounds=20)
        assert again.delta == report.delta
        assert again.delta.touched > 0


class TestEffortTradeoff:
    @pytest.mark.parametrize("effort", (EFFORT_NONE, EFFORT_DCE, EFFORT_FULL))
    def test_effort_levels(self, benchmark, corpus_programs, effort):
        """Respecialization latency and residual stage demand per effort."""
        program = corpus_programs["scion"]
        flay = Flay(program, FlayOptions(target="none", effort=effort))
        flay.process_batch(_scion_config(flay))

        def respecialize():
            return flay.runtime.specializer.specialize(
                flay.runtime.point_verdicts, flay.runtime.table_verdicts
            )

        specialized, _report = benchmark(respecialize)
        stages = allocate(specialized).stages_used
        benchmark.extra_info["stages"] = stages
        benchmark.extra_info["effort"] = effort
        print(f"\n[§6] effort={effort}: residual stage demand {stages}")

    def test_effort_summary(self, benchmark, corpus_programs):
        program = corpus_programs["scion"]

        def sweep():
            rows = []
            for effort in (EFFORT_NONE, EFFORT_DCE, EFFORT_FULL):
                flay = Flay(program, FlayOptions(target="none", effort=effort))
                flay.process_batch(_scion_config(flay))
                start = time.perf_counter()
                specialized, _ = flay.runtime.specializer.specialize(
                    flay.runtime.point_verdicts, flay.runtime.table_verdicts
                )
                respec_ms = (time.perf_counter() - start) * 1000
                rows.append((effort, respec_ms, allocate(specialized).stages_used))
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        heading("§6 future work: specialization time vs quality (scion, IPv4 config)")
        print(f"{'effort':<8} {'respecialize (ms)':>18} {'stage demand':>13}")
        for effort, respec_ms, stages in rows:
            print(f"{effort:<8} {respec_ms:>18.1f} {stages:>13}")
        by_effort = {r[0]: r for r in rows}
        # More effort buys more stages back, and never for free.
        assert by_effort[EFFORT_FULL][2] <= by_effort[EFFORT_DCE][2] <= by_effort[EFFORT_NONE][2]
        assert by_effort[EFFORT_FULL][2] < by_effort[EFFORT_NONE][2]
        assert by_effort[EFFORT_NONE][1] <= by_effort[EFFORT_FULL][1]
