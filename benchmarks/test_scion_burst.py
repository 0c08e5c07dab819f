"""§4.2 burst experiment — 1000 fuzzer-generated IPv4 entries.

Paper: "Flay can determine within a second that the batch of updates does
not require program recompilation."  Then an IPv6-enabling batch triggers
respecialization.
"""

from conftest import heading, make_flay
from repro.programs import registry, scion
from repro.runtime.entries import ExactMatch, TableEntry
from repro.runtime.fuzzer import EntryFuzzer, ipv4_route_entries
from repro.runtime.semantics import INSERT, Update


def _configured(corpus_programs):
    flay = make_flay(corpus_programs["scion"])
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
    flay.process_batch(updates)
    return flay


def test_scion_1000_entry_burst(benchmark, corpus_programs):
    flay = _configured(corpus_programs)
    entries = list(
        ipv4_route_entries(
            flay.model, "ScionIngress.ipv4_forward", 1000, "deliver_local_v4", seed=23
        )
    )
    batches = [entries]

    def process_burst():
        burst = batches.pop() if batches else entries
        try:
            return flay.process_batch(
                [Update("ScionIngress.ipv4_forward", INSERT, e) for e in burst]
            )
        finally:
            # Reset for the next benchmark round.
            flay.runtime.state.table_state("ScionIngress.ipv4_forward").clear()

    decision = benchmark.pedantic(process_burst, rounds=3, iterations=1)
    heading("§4.2: burst of 1000 unique IPv4 entries into the SCION forwarding table")
    print(decision.describe())
    print(f"(paper: decided 'no recompilation' within a second)")
    assert decision.update_count == 1000
    assert not decision.recompiled
    assert decision.elapsed_ms < 5000


def test_scion_ipv6_batch_triggers_recompile(benchmark, corpus_programs):
    def enable_ipv6():
        flay = _configured(corpus_programs)
        fuzzer = EntryFuzzer(flay.model, seed=9)
        updates = [
            Update(
                "ScionIngress.underlay_map",
                INSERT,
                TableEntry((ExactMatch(0x86DD),), "underlay_v6", ()),
            )
        ]
        for table in scion.IPV6_ONLY_TABLES:
            updates.extend(fuzzer.representative_updates(table))
        return flay.process_batch(updates)

    decision = benchmark.pedantic(enable_ipv6, rounds=1, iterations=1)
    print(f"\n[§4.2] IPv6-enabling batch: {decision.describe()}")
    assert decision.recompiled
