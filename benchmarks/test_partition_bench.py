"""BENCH_8: the cold sweep's CNF and the strict-partition measurement.

Two questions, answered with honest numbers:

* **How large is the cold sweep's CNF?**  The queries the cold sweep
  answered, re-encoded together into one fresh bit-blaster, on scion and
  switch_kitchen_sink.

* **How much does the dependency graph coarsen the conflict groups?**
  Strict conflict components (taint ∪ dependency edges, the oracle in
  ``tests/engine/test_batch_merge.py``) next to the taint-only partition
  the scheduler actually uses, on scion and switch, plus the scion
  240-insert burst through the real scheduler.  ``*_strict_refines``
  records the property ``partition`` relies on: every taint component
  lies inside one strict component.

Set ``PARTITION_BENCH_JSON=/path/out.json`` to dump the measured numbers
(CI uploads it as the BENCH_8 artifact).
"""

import json
import os

from conftest import heading, make_flay

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


def test_cold_cnf_and_strict_components(benchmark, corpus_programs):
    results = {}

    # -- the cold sweep's CNF, and strict components: taint ∪ dependency
    # edges ------------------------------------------------------------
    for name in COLD_PROGRAMS:
        flay = make_flay(corpus_programs[name])
        variables, clauses = _cnf_counts(flay)
        results[f"{name}_cnf_variables"] = variables
        results[f"{name}_cnf_clauses"] = clauses
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

    heading("BENCH_8: cold CNF + strict components")
    for name in COLD_PROGRAMS:
        print(
            f"{name}: cold CNF {results[f'{name}_cnf_variables']} vars / "
            f"{results[f'{name}_cnf_clauses']} clauses"
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

    out_path = os.environ.get("PARTITION_BENCH_JSON")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {out_path}")
