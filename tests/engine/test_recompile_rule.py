"""The recompile rule: recompile exactly when the device program moves.

A decision recompiles when the program respecialized for its verdicts
differs from the one last compiled, and forwards otherwise — also when
verdicts moved, as long as no printed statement reads them.  On every
zoo program, with the device target the end-to-end harness gives it,
policy roll-outs are replayed one update at a time and in
``apply_batch`` chunks, and after every decision:

- the device compiles once per change of the printed program (a
  from-scratch specialization of the re-derived verdicts), and never
  otherwise: the target's ``compile`` runs only on a recompile, and the
  decision carries that compile's report;
- a forward leaves ``specialized_program`` the identical object the
  device runs, and the decisions' ``lowered`` writes are exactly the
  forwarded updates, in submission order — those of forwards whose
  verdicts moved among them.

A table crossing the overapproximation threshold moves no
``same_specialization`` field when its precise verdict already has every
action feasible; a ``switch`` on it then still loses its default arm
when precise and keeps it when overapproximated, so the crossing must
respecialize and recompile.  The one-action table without parameters
(inlined when precise, kept when overapproximated) is pinned the same
way; its crossing also moves its selector point.
"""

import random

import pytest

from repro.core import Flay, FlayOptions
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.entries import ExactMatch, TableEntry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, Update

from tests.engine.spec import Spec
from tests.engine.test_warm_inventory import TARGETS


def make_flay(name: str) -> Flay:
    return Flay(
        registry.load(name),
        FlayOptions(target=TARGETS[name], skip_parser=registry.get(name).skip_parser),
    )


def count_compiles(flay: Flay) -> list:
    """Record every report the device target compiles from now on."""
    target = flay.device_compiler
    compile_program, reports = target.compile, []

    def compile(program):
        reports.append(compile_program(program))
        return reports[-1]

    target.compile = compile
    return reports


def one_at_a_time(stream: list, seed: int) -> list:
    return [[update] for update in stream]


def in_chunks(stream: list, seed: int) -> list:
    rng = random.Random(seed)
    out, at = [], 0
    while at < len(stream):
        size = rng.randint(1, 8)
        out.append(stream[at : at + size])
        at += size
    return out


PATHS = {
    "sequential": (one_at_a_time, lambda flay, chunk: flay.process_update(chunk[0])),
    "apply_batch": (in_chunks, lambda flay, chunk: flay.apply_batch(chunk)),
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_compiles_track_the_printed_program(name, path):
    split, decide = PATHS[path]
    flay = make_flay(name)
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=5).rollout_stream(1)
    printed = spec.specialized_source()
    compiles = count_compiles(flay)
    program_changes = moved_forwards = 0
    sent: list = []
    lowered: list = []
    for chunk in split(stream, len(name)):
        program = flay.specialized_program
        before = len(compiles)
        decision = decide(flay, chunk)
        spec.step()
        source = spec.specialized_source()
        program_changes += source != printed
        assert decision.recompiled == (source != printed)
        if decision.recompiled:
            assert len(compiles) == before + 1
            assert decision.compile_report is compiles[-1] is flay.compile_report
            assert decision.lowered == ()
            printed = source
        else:
            assert len(compiles) == before
            assert decision.compile_report is None
            assert flay.specialized_program is program
            moved_forwards += bool(decision.changed)
            sent.extend(chunk)
        lowered.extend(decision.lowered)
        assert [write.update for write in lowered] == sent
    assert program_changes > 0
    assert len(compiles) == program_changes
    assert flay.recompilations == program_changes
    # The rule forwards updates the old one (any moved verdict) recompiled.
    assert moved_forwards > 0


def table_program(actions: str, table: str, apply: str) -> str:
    return f"""
header h_t {{ bit<8> f; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> m; }}
parser P(inout headers_t hdr, inout meta_t meta) {{
    state start {{ pkt_extract(hdr.h); transition accept; }}
}}
control C(inout headers_t hdr, inout meta_t meta) {{
    {actions}
    table t {{
        key = {{ hdr.h.f: exact; }}
        {table}
    }}
    apply {{ {apply} }}
}}
Pipeline(P(), C()) main;
"""


#: shape → (source, the actions its entries take in turn).
FLIPPED = {
    # Precise with both actions feasible, the table verdict and the
    # selector point read the same as overapproximated ones.
    "switch-default-arm": (
        table_program(
            "action a() { meta.m = 8w1; } action b() { meta.m = 8w2; }",
            "actions = { a; b; } default_action = b();",
            "switch (t.apply().action_run) {"
            " a: { meta.m = 8w3; } b: { meta.m = 8w5; } default: { meta.m = 8w4; } }",
        ),
        ("a", "b"),
    ),
    "one-action": (
        table_program(
            "action mark() { meta.m = 8w1; }",
            "actions = { mark; } default_action = mark();",
            "t.apply();",
        ),
        ("mark",),
    ),
}

#: entry point → (flay, chunk) → (decision, the updates it was for)
#: pairs, each decided only when the one before it has been checked.
DECIDE = {
    "process_update": lambda flay, chunk: ((flay.process_update(u), [u]) for u in chunk),
    "apply_batch": lambda flay, chunk: [(flay.apply_batch(chunk), chunk)],
}


@pytest.mark.parametrize("entry_point", sorted(DECIDE))
@pytest.mark.parametrize("shape", sorted(FLIPPED))
def test_a_threshold_crossing_respecializes(shape, entry_point):
    source, actions = FLIPPED[shape]
    flay = Flay(
        parse_program(source), FlayOptions(target="bmv2", overapprox_threshold=2)
    )
    spec = Spec(flay)
    entries = [
        TableEntry((ExactMatch(key),), actions[key % len(actions)], (), 0)
        for key in (1, 2, 3)
    ]
    sources = []
    for chunk, overapproximated in (
        ([Update("C.t", INSERT, entry) for entry in entries], True),
        ([Update("C.t", DELETE, entries[-1])], False),
    ):
        for decision, updates in DECIDE[entry_point](flay, chunk):
            spec.check_decision(decision, updates)
        assert flay.table_verdicts["C.t"].overapproximated is overapproximated
        assert decision.recompiled
        sources.append(flay.specialized_source())
    up, down = sources
    assert "t.apply()" in up and up != down
    spec.check_lowered()
