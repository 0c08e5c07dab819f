#!/usr/bin/env python3
"""The §4.2 SCION border-router scenario, end to end.

* Load the SCION program (it needs every Tofino-2 stage unspecialized).
* Install the representative IPv4-only configuration; Flay removes all
  IPv6 paths, saving ~20% of the pipeline stages.
* Throw a burst of 1000 route updates at it: one fast "no recompilation"
  decision.
* Enable IPv6: Flay respecializes, the program grows back to full size.

Run:  python examples/scion_border_router.py
"""

import time

from repro.core import Flay, FlayOptions
from repro.programs import scion
from repro.runtime import EntryFuzzer, ExactMatch, INSERT, TableEntry, Update
from repro.runtime.fuzzer import ipv4_route_entries
from repro.targets.tofino import TOFINO2, allocate


def banner(title: str) -> None:
    print()
    print("#" * 70)
    print(f"# {title}")
    print("#" * 70)


def main() -> None:
    banner("Loading the SCION border router")
    start = time.perf_counter()
    flay = Flay.from_source(scion.source(), FlayOptions(target="none"))
    print(f"parsed + analyzed in {time.perf_counter() - start:.2f} s "
          f"({flay.model.point_count} program points, "
          f"{len(flay.model.tables)} tables)")

    original = allocate(flay.runtime.program)
    print(f"unspecialized stage demand: {original.stages_used} "
          f"(Tofino 2 max: {TOFINO2.num_stages})")

    banner("Installing the representative IPv4-only configuration")
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
    decision = flay.decide(updates)
    print(f"config batch: {decision.describe()}")

    specialized = allocate(flay.specialized_program)
    saving = 1 - specialized.stages_used / original.stages_used
    print(f"specialized stage demand: {specialized.stages_used} "
          f"({saving:.0%} fewer — the paper reports 20%)")
    print(f"specializations: {flay.report.summary()[:300]}")

    banner("Burst: 1000 unique IPv4 routes")
    routes = list(
        ipv4_route_entries(
            flay.model, "ScionIngress.ipv4_forward", 1000, "deliver_local_v4", seed=23
        )
    )
    decision = flay.decide(
        [Update("ScionIngress.ipv4_forward", INSERT, e) for e in routes]
    )
    print(f"burst: {decision.describe()}")
    assert not decision.recompiled

    banner("Enabling IPv6")
    enable = [
        Update(
            "ScionIngress.underlay_map",
            INSERT,
            TableEntry((ExactMatch(0x86DD),), "underlay_v6", ()),
        )
    ]
    for table in scion.IPV6_ONLY_TABLES:
        enable.extend(fuzzer.representative_updates(table))
    decision = flay.decide(enable)
    print(f"enable-IPv6 batch: {decision.describe()}")
    restored = allocate(flay.specialized_program)
    print(f"stage demand after enabling IPv6: {restored.stages_used} "
          f"(back near the maximum)")


if __name__ == "__main__":
    main()
