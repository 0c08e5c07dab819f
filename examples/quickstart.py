#!/usr/bin/env python3
"""Quickstart: incremental specialization of a tiny P4 program.

Walks the paper's Fig. 3 scenario: a single ternary table whose
implementation evolves as control-plane entries arrive, with Flay deciding
per update whether the device needs to be recompiled.

Run:  python examples/quickstart.py
"""

from repro.core import Flay, FlayOptions
from repro.programs.fig3 import source
from repro.runtime import DELETE, INSERT, TableEntry, TernaryMatch, Update

FULL_MASK = (1 << 48) - 1


def banner(title: str) -> None:
    print()
    print("#" * 70)
    print(f"# {title}")
    print("#" * 70)


def show(flay: Flay, decision=None) -> None:
    if decision is not None:
        print(f"decision: {decision.describe()}")
    print("-- specialized program " + "-" * 40)
    # Show just the ingress control, the part that changes.
    text = flay.specialized_source()
    start = text.index("control Fig3Ingress")
    end = text.index("Pipeline(")
    print(text[start:end].rstrip())


def main() -> None:
    banner("1. Load the program; the table is empty, so it disappears")
    flay = Flay.from_source(source(), FlayOptions(target="tofino"))
    show(flay)
    print(f"\ninitial specializations: {flay.report.summary()}")

    banner("2. Insert [key 0x1, mask 0x0] -> set(0x800): inline the action")
    decision = flay.decide(
        Update(
            "eth_table",
            INSERT,
            TableEntry((TernaryMatch(0x1, 0x0),), "set", (0x800,), priority=10),
        )
    )
    show(flay, decision)

    banner("3. Replace with [key 0x2, full mask]: an exact-match table")
    flay.decide(
        Update(
            "eth_table",
            DELETE,
            TableEntry((TernaryMatch(0x1, 0x0),), "set", (0x800,), priority=10),
        )
    )
    decision = flay.decide(
        Update(
            "eth_table",
            INSERT,
            TableEntry((TernaryMatch(0x2, FULL_MASK),), "set", (0x900,), priority=10),
        )
    )
    show(flay, decision)
    print("\nnote: the key became `exact` (TCAM freed) and the unused")
    print("`drop` action is gone from the table.")

    banner("4. Insert [key 0x5, mask 0x8]: back to a ternary table")
    decision = flay.decide(
        Update(
            "eth_table",
            INSERT,
            TableEntry((TernaryMatch(0x5, 0x8),), "set", (0x700,), priority=9),
        )
    )
    show(flay, decision)

    banner("5. Insert [key 0x6, mask 0x7]: no behaviour change -> forwarded")
    decision = flay.decide(
        Update(
            "eth_table",
            INSERT,
            TableEntry((TernaryMatch(0x6, 0x7),), "set", (0x200,), priority=8),
        )
    )
    print(f"decision: {decision.describe()}")
    print("\nThe update was forwarded straight to the device — no recompile.")

    banner("Summary")
    print(flay.summary())
    if flay.compile_report is not None:
        print(f"\nlast device compile: {flay.compile_report.describe()}")


if __name__ == "__main__":
    main()
