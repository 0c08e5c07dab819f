"""End-to-end reproduction of §4.2's SCION experiments.

* Unspecialized, the SCION program needs the maximum number of Tofino-2
  stages; with the IPv4-only configuration it needs ~20% fewer.
* A burst of 1000 fuzzer-generated IPv4 routes is waved through without
  recompilation, decided in about a second.
* Enabling the IPv6 paths triggers respecialization, and the program is
  back at the maximum stage count.

These tests use a reduced-size SCION instance so the suite stays fast; the
full-size run lives in benchmarks/.
"""

import pytest

from repro.core import Flay, FlayOptions
from repro.programs import scion
from repro.runtime.entries import ExactMatch, TableEntry
from repro.runtime.fuzzer import EntryFuzzer, ipv4_route_entries
from repro.runtime.semantics import INSERT, Update
from repro.targets.tofino import TOFINO2, allocate

# Reduced-size instance: same structure, fewer interfaces/chain steps.
N_IFACES, CHAIN, V6EXT = 6, 6, 2


@pytest.fixture(scope="module")
def configured_flay():
    src = scion.source(N_IFACES, CHAIN, V6EXT)
    flay = Flay.from_source(src, FlayOptions(target="none"))
    fuzzer = EntryFuzzer(flay.model, seed=11)
    updates = [
        Update(
            "ScionIngress.underlay_map",
            INSERT,
            TableEntry((ExactMatch(0x0800),), "underlay_v4", ()),
        )
    ]
    for table in scion.ipv4_config_tables(N_IFACES, CHAIN, V6EXT):
        # A representative config exercises every action of every table,
        # like the paper's supplied SCION config.
        updates.extend(fuzzer.representative_updates(table))
    flay.process_batch(updates)
    return flay


class TestStageSavings:
    def test_specialization_reduces_stages(self, configured_flay):
        original = allocate(configured_flay.runtime.program)
        specialized = allocate(configured_flay.specialized_program)
        assert specialized.stages_used < original.stages_used
        saving = 1 - specialized.stages_used / original.stages_used
        assert 0.10 <= saving <= 0.60  # paper: ~20% on the full program

    def test_ipv6_tables_eliminated(self, configured_flay):
        text = configured_flay.specialized_source()
        assert "acl_v6" not in text
        assert "ipv6_forward" not in text
        assert "egress_if0_v6" not in text

    def test_ipv4_tables_survive(self, configured_flay):
        text = configured_flay.specialized_source()
        assert "acl_v4" in text
        assert "ipv4_forward" in text
        assert "hop_forward" in text


class TestBurst:
    def test_ipv4_burst_forwarded_without_recompilation(self, configured_flay):
        """1000 unique IPv4 routes: no recompilation, decided quickly."""
        flay = configured_flay
        entries = list(
            ipv4_route_entries(flay.model, "ScionIngress.ipv4_forward", 1000,
                               "deliver_local_v4", seed=23)
        )
        updates = [Update("ScionIngress.ipv4_forward", INSERT, e) for e in entries]
        decision = flay.process_batch(updates)
        assert decision.update_count == 1000
        assert not decision.recompiled
        assert decision.elapsed_ms < 5000  # paper: "within a second"

    def test_enabling_ipv6_triggers_recompilation(self):
        src = scion.source(N_IFACES, CHAIN, V6EXT)
        flay = Flay.from_source(src, FlayOptions(target="none"))
        fuzzer = EntryFuzzer(flay.model, seed=31)
        setup = [
            Update(
                "ScionIngress.underlay_map",
                INSERT,
                TableEntry((ExactMatch(0x0800),), "underlay_v4", ()),
            )
        ]
        for table in scion.ipv4_config_tables(N_IFACES, CHAIN, V6EXT):
            setup.extend(fuzzer.representative_updates(table))
        flay.process_batch(setup)
        stages_v4_only = allocate(flay.specialized_program).stages_used

        # The IPv6-enabling batch: underlay_map entry + v6 table content.
        enable = [
            Update(
                "ScionIngress.underlay_map",
                INSERT,
                TableEntry((ExactMatch(0x86DD),), "underlay_v6", ()),
            )
        ]
        for table in ("ScionIngress.acl_v6", "ScionIngress.ipv6_forward"):
            enable.extend(fuzzer.representative_updates(table))
        decision = flay.process_batch(enable)
        assert decision.recompiled

        stages_with_v6 = allocate(flay.specialized_program).stages_used
        assert stages_with_v6 > stages_v4_only
        text = flay.specialized_source()
        assert "acl_v6" in text


class TestFullSizeCalibration:
    """The full-size program hits the paper's exact stage numbers."""

    def test_full_scion_stage_numbers(self):
        src = scion.source()  # calibrated defaults
        flay = Flay.from_source(src, FlayOptions(target="none"))
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
        original = allocate(flay.runtime.program)
        specialized = allocate(flay.specialized_program)
        assert original.stages_used == TOFINO2.num_stages  # max stages
        saving = 1 - specialized.stages_used / original.stages_used
        assert 0.15 <= saving <= 0.25  # paper: 20% fewer
