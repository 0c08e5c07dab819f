"""BENCH_8: the prune ablation and the dependency-precision measurement.

Two questions, answered with honest numbers:

* **What does ``--no-prune`` change?**  Cold pipeline wall-clock and the
  CNF of the queries the cold sweep answered (re-encoded together into
  one fresh bit-blaster), on scion and switch_kitchen_sink.  The
  differential harness already pins that specialized *output* is
  byte-identical either way; this bench records the *cost* side.  On
  this corpus the CNF sizes come out identical — the symbolic executor
  short-circuits the same constant branches the prune pass deletes — and
  pruning pays its own abstract-interpretation run up front, so the
  ablation documents overhead, not savings.  The assertion layer pins
  the identity (output and CNF), not a speedup.

* **Does flow-sensitive dependency precision shrink conflict groups?**
  Strict conflict components (taint ∪ dependency edges) under the
  historical syntactic walk vs the flow-sensitive effects analysis, next
  to the taint-only partition the scheduler actually uses, on the scion
  240-insert burst and on switch.  Measured result: the flow refinement
  tightens per-action effect sets and edge kinds but never connectivity
  on this corpus (a killed read always implies the killing write, which
  keeps a write-write edge) — the partitions coincide, and the bench
  records that parity explicitly as ``*_parity: true``.

Set ``PRUNE_BENCH_JSON=/path/out.json`` to dump the measured numbers
(CI uploads it as the BENCH_8 artifact).
"""

import json
import os
import time

from conftest import heading, make_flay

from repro.engine.batch import conflict_components
from repro.ir.deps import PRECISION_FLOW, PRECISION_SYNTACTIC
from repro.smt.cnf import BitBlaster

from test_batch_burst import _workload as scion_burst_workload

COLD_PROGRAMS = ("scion", "switch")


def _cnf_counts(flay):
    blaster = BitBlaster()
    for term in flay.runtime.ctx.query_engine.solver._results:
        blaster.encode_bool(term)
    return blaster.solver.num_vars, blaster.solver.num_clauses


def _cold_run(program, prune):
    from repro.core import Flay, FlayOptions

    start = time.perf_counter()
    flay = Flay(program, FlayOptions(target="tofino", prune=prune))
    source = flay.specialized_source()
    elapsed_ms = (time.perf_counter() - start) * 1000
    variables, clauses = _cnf_counts(flay)
    return {
        "ms": elapsed_ms,
        "cnf_variables": variables,
        "cnf_clauses": clauses,
        "source": source,
        "report": flay.prune_report,
    }


def _component_count(components):
    return len(set(components.values()))


def test_prune_ablation_and_dependency_precision(benchmark, corpus_programs):
    results = {}

    # -- prune ablation: cold pipeline with and without the pass --------
    for name in COLD_PROGRAMS:
        pruned = _cold_run(corpus_programs[name], prune=True)
        unpruned = _cold_run(corpus_programs[name], prune=False)
        # The ablation's contract: identical output, identical CNF.
        assert pruned["source"] == unpruned["source"]
        assert pruned["cnf_variables"] == unpruned["cnf_variables"]
        assert pruned["cnf_clauses"] == unpruned["cnf_clauses"]
        results[f"{name}_cold_pruned_ms"] = pruned["ms"]
        results[f"{name}_cold_no_prune_ms"] = unpruned["ms"]
        results[f"{name}_cnf_variables"] = pruned["cnf_variables"]
        results[f"{name}_cnf_clauses"] = pruned["cnf_clauses"]
        results[f"{name}_removed_branches"] = pruned["report"].removed_branches
        results[f"{name}_folded_constants"] = pruned["report"].folded_constants

    # -- dependency precision: strict components, both walks ------------
    for name in COLD_PROGRAMS:
        flay = make_flay(corpus_programs[name])
        taint_only = conflict_components(flay.model)
        syntactic = conflict_components(
            flay.model,
            flay.program,
            flay.env,
            strict=True,
            precision=PRECISION_SYNTACTIC,
        )
        flow = conflict_components(
            flay.model,
            flay.program,
            flay.env,
            strict=True,
            precision=PRECISION_FLOW,
        )
        results[f"{name}_taint_components"] = _component_count(taint_only)
        results[f"{name}_strict_syntactic_components"] = _component_count(
            syntactic
        )
        results[f"{name}_strict_flow_components"] = _component_count(flow)
        results[f"{name}_strict_parity"] = _component_count(
            syntactic
        ) == _component_count(flow)

    # -- the scion 240-insert burst through the real scheduler ----------
    def burst_cell():
        flay, burst = scion_burst_workload(corpus_programs)
        return flay, flay.apply_batch(burst, workers=2)

    flay, report = burst_cell()
    results["scion_burst_updates"] = report.update_count
    results["scion_burst_groups"] = report.group_count
    results["scion_burst_ms"] = report.elapsed_ms
    benchmark.pedantic(lambda: burst_cell()[1], rounds=3, iterations=1)

    heading("BENCH_8: prune ablation + dependency precision")
    for name in COLD_PROGRAMS:
        print(
            f"{name}: cold {results[f'{name}_cold_pruned_ms']:.0f} ms pruned / "
            f"{results[f'{name}_cold_no_prune_ms']:.0f} ms --no-prune, "
            f"CNF {results[f'{name}_cnf_variables']} vars / "
            f"{results[f'{name}_cnf_clauses']} clauses (identical both ways), "
            f"{results[f'{name}_removed_branches']} branches removed"
        )
        print(
            f"{name}: components taint={results[f'{name}_taint_components']} "
            f"strict/syntactic={results[f'{name}_strict_syntactic_components']} "
            f"strict/flow={results[f'{name}_strict_flow_components']} "
            f"(parity={results[f'{name}_strict_parity']})"
        )
    print(
        f"scion burst: {results['scion_burst_updates']} updates in "
        f"{results['scion_burst_groups']} groups, "
        f"{results['scion_burst_ms']:.0f} ms"
    )

    out_path = os.environ.get("PRUNE_BENCH_JSON")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {out_path}")
