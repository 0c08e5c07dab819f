"""Table 3 — update-analysis time vs installed entries (middleblock ACL).

Paper rows (analysis time for 1 incoming update):

    installed | precise   | overapproximate (>100 entries)
            1 |    ~1 ms  | -
           10 |    ~5 ms  | -
          100 |  ~100 ms  | ~1 ms
         1000 | ~4000 ms  | ~1 ms
        10000 | ~265319 ms| ~1 ms

The precise encoding evaluates all entries against the complex 7-field
ternary key, so it grows with the entry count; the overapproximation is
O(1).  Our absolute numbers differ (pure-Python engine, and cross-update
caches the paper's prototype does not have), the crossover shape is the
result.
"""

import statistics
import time

import pytest

from conftest import heading, make_flay
from repro.programs import registry
from repro.programs.middleblock import PRE_INGRESS_ACL
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import INSERT, Update

SIZES = (1, 10, 100, 1000)
#: The summary takes the median of five measurements per cell: one update
#: is timed per engine, and a single descheduled run on a shared box would
#: otherwise decide a ratio.
ROUNDS = 5


def _flay_with_entries(program, installed, threshold):
    # Callers take the ``solver_free`` fixture: the measured cost is the
    # encoding and substitution, not the solver.
    flay = make_flay(program, overapprox_threshold=threshold)
    fuzzer = EntryFuzzer(flay.model, seed=3)
    entries = fuzzer.unique_entries(PRE_INGRESS_ACL, installed + 64)
    flay.process_batch(
        [Update(PRE_INGRESS_ACL, INSERT, e) for e in entries[:installed]]
    )
    return flay, entries[installed:]


@pytest.mark.parametrize("installed", SIZES)
def test_table3_precise(benchmark, corpus_programs, solver_free, installed):
    flay, spare = _flay_with_entries(corpus_programs["middleblock"], installed, None)
    spare_iter = iter(spare)

    def one_update():
        return flay.process_update(Update(PRE_INGRESS_ACL, INSERT, next(spare_iter)))

    decision = benchmark.pedantic(one_update, rounds=min(10, len(spare) - 2), iterations=1)
    benchmark.extra_info["installed"] = installed
    benchmark.extra_info["mode"] = "precise"
    print(f"\n[Table 3] precise, {installed} installed: {decision.elapsed_ms:.2f} ms")


@pytest.mark.parametrize("installed", SIZES + (10000,))
def test_table3_overapproximate(benchmark, corpus_programs, solver_free, installed):
    flay, spare = _flay_with_entries(corpus_programs["middleblock"], installed, 100)
    spare_iter = iter(spare)

    def one_update():
        return flay.process_update(Update(PRE_INGRESS_ACL, INSERT, next(spare_iter)))

    decision = benchmark.pedantic(one_update, rounds=min(10, len(spare) - 2), iterations=1)
    benchmark.extra_info["installed"] = installed
    benchmark.extra_info["mode"] = "overapprox(>100)"
    print(
        f"\n[Table 3] overapprox, {installed} installed: "
        f"{decision.elapsed_ms:.2f} ms (overapproximated={decision.overapproximated})"
    )


def test_table3_summary(benchmark, corpus_programs, solver_free):
    """Regenerate the whole table and assert its shape."""
    program = corpus_programs["middleblock"]

    def regenerate():
        rows = []
        for installed in SIZES:
            timings = {}
            for mode, threshold in (("precise", None), ("overapprox", 100)):
                samples = []
                for _ in range(ROUNDS):
                    flay, spare = _flay_with_entries(program, installed, threshold)
                    start = time.perf_counter()
                    flay.process_update(Update(PRE_INGRESS_ACL, INSERT, spare[0]))
                    samples.append((time.perf_counter() - start) * 1000)
                timings[mode] = statistics.median(samples)
            rows.append((installed, timings["precise"], timings["overapprox"]))
        return rows

    rows = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    heading("Table 3: update analysis time vs installed entries (middleblock ACL)")
    print(f"{'installed':>10} {'precise (ms)':>14} {'overapprox (ms)':>16}")
    for installed, precise, overapprox in rows:
        over = f"{overapprox:.2f}" if installed >= 100 else "-"
        print(f"{installed:>10} {precise:>14.2f} {over:>16}")

    by_size = {r[0]: r for r in rows}
    # The precise mode re-encodes and re-substitutes every entry, so its
    # cost rises with the entry count.  (The paper's column is superlinear;
    # ours is not since the cross-update caches: the measured update rides
    # on the state the install batch left, and only points tainted by a
    # symbol the insert re-assigns are re-queried — 1000 entries cost
    # ~1.3-1.5x of 100 here, up to ~4x for an insert that re-assigns them
    # all.  That last step is inside one noisy sample's reach, so the
    # ordering is asserted across the 5-7x steps only.)
    assert by_size[10][1] < by_size[1000][1]
    assert by_size[100][1] > 3 * by_size[10][1]
    # Overapproximation is flat past the threshold (the 100-entry row is
    # the update that crosses it, 100 -> 101, and re-queries every tainted
    # point once; at 1000 no symbol changes and no point is re-queried)
    # and far cheaper than the precise mode.
    assert by_size[1000][2] < 2 * by_size[100][2]
    assert by_size[1000][2] < by_size[1000][1] / 50
    assert by_size[1000][2] < 20  # ~millisecond scale
