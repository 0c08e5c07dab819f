"""Ablations of the design choices DESIGN.md calls out.

1. **Taint-directed re-querying** vs re-evaluating every program point on
   each update (the naive alternative to Fig. 2 step 2).
2. **Interval pre-check** in the solver vs bit-blasting everything.
3. **State merging** keeps analysis cost polynomial while the number of
   control paths grows exponentially (§4.2's complexity observation).
4. **Batched re-encoding** vs per-update encoding for bursts.
"""

import time

import pytest

from conftest import heading, make_flay
from repro.analysis import analyze
from repro.ir import measure
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import Update, INSERT
from repro.smt import Solver, Substitution, terms as T


class TestTaintAblation:
    def test_taint_directed_vs_full_requery(self, benchmark, corpus_programs):
        """Re-evaluating only tainted points beats re-evaluating all of
        them — the gap grows with program size."""
        flay = make_flay(corpus_programs["scion"])
        fuzzer = EntryFuzzer(flay.model, seed=5)
        flay.process_batch(fuzzer.representative_updates("ScionIngress.ipv4_forward"))
        rounds = 300
        updates = iter(fuzzer.insert_burst("ScionIngress.ipv4_forward", rounds))

        def taint_directed():
            return flay.process_update(next(updates))

        # One prepared insert per round: a fixed count, because auto-
        # calibration asks for more rounds than any prepared burst holds.
        benchmark.pedantic(taint_directed, rounds=rounds, iterations=1)

        # Full re-query baseline, measured once.
        substitution = Substitution(flay.runtime.mapping)
        start = time.perf_counter()
        memo = {}
        for point in flay.model.points.values():
            flay.ctx.query_engine.point_verdict(point, substitution, memo)
        full_ms = (time.perf_counter() - start) * 1000

        info = flay.model.table("ScionIngress.ipv4_forward")
        affected = flay.model.points_for_control_vars(info.control_var_names())
        heading("Ablation: taint-directed re-query vs full re-query (scion)")
        print(f"points tainted by the table: {len(affected)} / {flay.model.point_count}")
        print(f"full re-query of all points: {full_ms:.1f} ms")
        assert len(affected) < flay.model.point_count


class TestIntervalAblation:
    def test_interval_precheck_reduces_sat_calls(self, benchmark):
        """Field-vs-constant queries are decided by the interval domain
        without ever bit-blasting."""
        x = T.data_var("ab_x", 32)
        queries = [
            T.eq(T.bv_and(x, T.bv_const(0xFF, 32)), T.bv_const(0x1FF, 32)),
            T.ult(T.lshr(x, T.bv_const(24, 32)), T.bv_const(256, 32)),
            T.eq(T.bv_and(x, T.bv_const(0xF0, 32)), T.bv_const(0x30, 32)),
        ] * 10

        def with_precheck():
            solver = Solver(use_interval_precheck=True)
            for q in queries:
                solver.check_sat(q)
            return solver.stats

        stats = benchmark(with_precheck)

        solver_no = Solver(use_interval_precheck=False)
        start = time.perf_counter()
        for q in queries:
            solver_no.check_sat(q)
        no_precheck_ms = (time.perf_counter() - start) * 1000

        heading("Ablation: interval pre-check in the solver")
        print(f"with pre-check:  {stats.by_interval} of {stats.total} queries "
              f"decided without SAT")
        print(f"without pre-check: all {solver_no.stats.by_sat} queries bit-blasted "
              f"({no_precheck_ms:.1f} ms)")
        assert stats.by_interval > 0
        assert stats.by_sat < solver_no.stats.by_sat


def _branchy_program(num_ifs: int) -> str:
    body = "\n".join(
        f"        if (hdr.h.f{i % 4} == {i}) {{ meta.m = {i % 250}; }}"
        for i in range(num_ifs)
    )
    return f"""
header h_t {{ bit<8> f0; bit<8> f1; bit<8> f2; bit<8> f3; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> m; }}
parser P(inout headers_t hdr, inout meta_t meta) {{
    state start {{ pkt_extract(hdr.h); transition accept; }}
}}
control C(inout headers_t hdr, inout meta_t meta) {{
    apply {{
{body}
    }}
}}
Pipeline(P(), C()) main;
"""


class TestStateMergingAblation:
    @pytest.mark.parametrize("num_ifs", (4, 8, 16, 32))
    def test_analysis_scales_with_branches(self, benchmark, num_ifs):
        """Path counts double per if; state-merging analysis does not."""
        program = parse_program(_branchy_program(num_ifs))
        paths = measure(program).control_paths
        model = benchmark(analyze, program)
        benchmark.extra_info["control_paths"] = paths
        benchmark.extra_info["points"] = model.point_count
        print(f"\n[Ablation] {num_ifs} ifs: {paths} control paths, "
              f"{model.point_count} program points")
        # Points grow linearly even though paths grow exponentially.
        assert model.point_count <= 4 * num_ifs + 8


class TestBatchAblation:
    def test_batched_vs_per_update_burst(self, benchmark, corpus_programs):
        """Re-encoding the table once per burst (batch path) beats
        re-encoding on every single update."""
        program = corpus_programs["middleblock"]
        from repro.programs.middleblock import PRE_INGRESS_ACL

        flay = make_flay(program, use_solver=False)
        fuzzer = EntryFuzzer(flay.model, seed=3)
        entries = fuzzer.unique_entries(PRE_INGRESS_ACL, 80)
        prototype = [Update(PRE_INGRESS_ACL, INSERT, e) for e in entries]

        def batched():
            try:
                return flay.process_batch(prototype)
            finally:
                flay.runtime.state.table_state(PRE_INGRESS_ACL).clear()

        decision = benchmark.pedantic(batched, rounds=3, iterations=1)
        batched_ms = decision.elapsed_ms

        # Per-update baseline.
        flay2 = make_flay(program, use_solver=False)
        start = time.perf_counter()
        for update in prototype:
            flay2.process_update(update)
        per_update_ms = (time.perf_counter() - start) * 1000

        heading("Ablation: batched vs per-update burst processing (80 ACL entries)")
        print(f"batched:    {batched_ms:.1f} ms")
        print(f"per-update: {per_update_ms:.1f} ms")
        assert batched_ms < per_update_ms
