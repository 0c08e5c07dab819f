"""Batch-scheduler burst replay: coalesced, conflict-grouped warm path.

Replays a SCION burst that sprays inserts across four independent
per-interface MAC-rewrite tables (each its own conflict group under the
taint partition) and compares the sequential per-update warm path against
one ``decide`` of the whole burst.

The speedup is algorithmic: the per-update path re-encodes the growing
table and re-verdicts its tainted points once per insert (O(n) each as
the table grows), while the burst path pays one encode and one verdict
sweep per burst, all on the calling thread.  The acceptance
bar is ≥2× against the sequential baseline.

Set ``BATCH_BENCH_JSON=/path/out.json`` to dump the measured numbers
(CI uploads that file as an artifact).
"""

import json
import os
import time

from conftest import heading, make_flay
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import INSERT, Update

TABLES = [f"ScionEgress.rewrite_mac_if{i}" for i in range(4)]
WARM_PER_ACTION = 3
BURST_PER_TABLE = 60
#: Each side keeps its fastest round.  The ratio sits at 2-3x, close to the
#: bar, and single-shot timings let one descheduled run on a shared box
#: decide it (it failed one run in five that way).
ROUNDS = 3


def _unique_inserts(flay, fuzzer, table, count, seen, action=None):
    info = flay.model.table(table)
    updates = []
    while len(updates) < count:
        entry = fuzzer.entry(table, action=action)
        key = entry.match_key()
        if key in seen:
            continue
        seen.add(key)
        updates.append(Update(info.name, INSERT, entry))
    return updates


def _workload(corpus_programs, seed=7):
    """A saturated engine plus a 240-update burst over four independent
    tables.  One match-key dedup scope per table spans warmup and burst,
    so the stream replays cleanly."""
    flay = make_flay(corpus_programs["scion"])
    fuzzer = EntryFuzzer(flay.model, seed=seed)
    warmup, burst = [], []
    for table in TABLES:
        seen = set()
        for action in flay.model.table(table).action_order:
            warmup.extend(
                _unique_inserts(
                    flay, fuzzer, table, WARM_PER_ACTION, seen, action=action
                )
            )
        burst.extend(
            _unique_inserts(flay, fuzzer, table, BURST_PER_TABLE, seen)
        )
    flay.process_batch(warmup)
    return flay, burst


def test_batch_scheduler_burst_speedup(benchmark, corpus_programs):
    timings = {}

    def keep_fastest(key, elapsed_ms):
        timings[key] = min(elapsed_ms, timings.get(key, elapsed_ms))

    for _ in range(ROUNDS):
        flay, burst = _workload(corpus_programs)
        start = time.perf_counter()
        for update in burst:
            decision = flay.process_update(update)
            assert decision.forwarded
        keep_fastest("sequential_ms", (time.perf_counter() - start) * 1000)
    sequential_verdicts = dict(flay.runtime.point_verdicts)
    sequential_source = flay.specialized_source()

    for _ in range(ROUNDS):
        flay, burst = _workload(corpus_programs)
        decision = flay.decide(burst)
        keep_fastest("batch_ms", decision.elapsed_ms)
        assert decision.forwarded
        assert decision.group_count == len(TABLES)
        # Batched output == sequential output.
        assert flay.runtime.point_verdicts == sequential_verdicts
        assert flay.specialized_source() == sequential_source

    # Register the burst with pytest-benchmark's statistics.
    benchmark.pedantic(_batched, args=(corpus_programs,), rounds=3, iterations=1)

    speedup = timings["sequential_ms"] / timings["batch_ms"]
    timings["speedup"] = speedup
    timings["updates"] = len(burst)
    timings["groups"] = decision.group_count
    timings["coalesced"] = decision.coalesced_count

    heading("Batch scheduler: 240-insert burst over 4 independent SCION tables")
    print(f"sequential warm path:  {timings['sequential_ms']:8.1f} ms")
    print(f"one burst decision:    {timings['batch_ms']:8.1f} ms")
    print(f"speedup:               {speedup:8.1f}x  (bar: >= 2x)")

    out_path = os.environ.get("BATCH_BENCH_JSON")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(timings, handle, indent=2, sort_keys=True)
        print(f"wrote {out_path}")

    assert speedup >= 2.0


def _batched(corpus_programs):
    flay, burst = _workload(corpus_programs)
    return flay.decide(burst)


def test_batch_coalescing_collapses_churn(benchmark, corpus_programs):
    """A flap-heavy burst (insert/modify/delete churn on the same keys)
    coalesces to a fraction of its submitted size before any analysis.

    Runs against a cold (un-warmed) engine so the fuzzer's fresh live-key
    tracking cannot collide with previously installed entries."""
    flay = make_flay(corpus_programs["scion"])
    fuzzer = EntryFuzzer(flay.model, seed=31)
    table = TABLES[0]
    churn = fuzzer.update_stream(
        tables=[table], count=200, modify_fraction=0.45, delete_fraction=0.35
    )

    def run():
        report = flay.decide(churn)
        # Reset: undo the batch's net effect so every round replays cleanly.
        state = flay.runtime.state.table_state(table)
        survivors = {u.entry.match_key() for u in churn}
        for entry in list(state.entries()):
            if entry.match_key() in survivors:
                state.apply("delete", entry)
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Batch scheduler: coalescing a 200-update churn stream")
    print(
        f"submitted {report.update_count}, net {report.coalesced_count} "
        f"({report.update_count - report.coalesced_count} folded away)"
    )
    assert report.coalesced_count < report.update_count
