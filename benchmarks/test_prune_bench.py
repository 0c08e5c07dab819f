"""BENCH_8: the prune ablation and the strict-partition measurement.

Two questions, answered with honest numbers:

* **What does the prune pass change?**  Cold pipeline wall-clock and the
  CNF of the queries the cold sweep answered (re-encoded together into
  one fresh bit-blaster), on scion and switch_kitchen_sink.  The
  differential harness already pins that specialized *output* is
  byte-identical either way; this bench records the *cost* side.  The
  unpruned side is the cold pipeline with ``PrunePass`` filtered out
  (``conftest.without_prune_pass``).  On this corpus the CNF sizes come out identical — the symbolic executor
  short-circuits the same constant branches the prune pass deletes — and
  pruning pays its own abstract-interpretation run up front, so the
  ablation documents overhead, not savings.  The assertion layer pins
  the identity (output and CNF), not a speedup.

* **How much does the dependency graph coarsen the conflict groups?**
  Strict conflict components (taint ∪ dependency edges, the oracle in
  ``tests/engine/test_batch_merge.py``) next to the taint-only partition
  the scheduler actually uses, on scion and switch, plus the scion
  240-insert burst through the real scheduler.  ``*_strict_refines``
  records the property ``partition`` relies on: every taint component
  lies inside one strict component.

Set ``PRUNE_BENCH_JSON=/path/out.json`` to dump the measured numbers
(CI uploads it as the BENCH_8 artifact).
"""

import json
import os
import time

from conftest import heading, make_flay, without_prune_pass

from repro.engine.batch import conflict_components
from repro.ir.deps import build_dependency_graph
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
    if prune:
        flay = Flay(program, FlayOptions(target="tofino"))
    else:
        with without_prune_pass():
            flay = Flay(program, FlayOptions(target="tofino"))
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


def _strict_components(model, program, env):
    """Taint components merged along table-to-table dependency edges (the
    same oracle as ``tests/engine/test_batch_merge.strict_components``)."""
    parent = conflict_components(model)

    def find(name):
        while parent[name] != name:
            name = parent[name]
        return name

    for edge in build_dependency_graph(program, env).edges:
        if edge.src in model.tables and edge.dst in model.tables:
            parent[find(edge.dst)] = find(edge.src)
    return {name: find(name) for name in parent}


def test_prune_ablation_and_strict_components(benchmark, corpus_programs):
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

    # -- strict components: taint ∪ dependency edges --------------------
    for name in COLD_PROGRAMS:
        flay = make_flay(corpus_programs[name])
        taint = conflict_components(flay.model)
        strict = _strict_components(flay.model, flay.program, flay.env)
        results[f"{name}_taint_components"] = _component_count(taint)
        results[f"{name}_strict_components"] = _component_count(strict)
        groups = {}
        for member, root in taint.items():
            groups.setdefault(root, set()).add(member)
        results[f"{name}_strict_refines"] = all(
            len({strict[member] for member in members}) == 1
            for members in groups.values()
        )

    # -- the scion 240-insert burst through the real scheduler ----------
    def burst_cell():
        flay, burst = scion_burst_workload(corpus_programs)
        return flay, flay.decide(burst)

    flay, report = burst_cell()
    results["scion_burst_updates"] = report.update_count
    results["scion_burst_groups"] = report.group_count
    results["scion_burst_ms"] = report.elapsed_ms
    benchmark.pedantic(lambda: burst_cell()[1], rounds=3, iterations=1)

    heading("BENCH_8: prune ablation + strict components")
    for name in COLD_PROGRAMS:
        print(
            f"{name}: cold {results[f'{name}_cold_pruned_ms']:.0f} ms pruned / "
            f"{results[f'{name}_cold_no_prune_ms']:.0f} ms unpruned, "
            f"CNF {results[f'{name}_cnf_variables']} vars / "
            f"{results[f'{name}_cnf_clauses']} clauses (identical both ways), "
            f"{results[f'{name}_removed_branches']} branches removed"
        )
        print(
            f"{name}: components taint={results[f'{name}_taint_components']} "
            f"strict={results[f'{name}_strict_components']} "
            f"(refines={results[f'{name}_strict_refines']})"
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
