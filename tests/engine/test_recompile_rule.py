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
from repro.runtime.entries import EntryError, ExactMatch, TableEntry
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


#: Decide one update alone, or as a one-update burst.
SINGLE_OR_BURST = pytest.mark.parametrize(
    "decide",
    [lambda flay, update: flay.decide(update), lambda flay, update: flay.decide([update])],
    ids=["single", "burst"],
)


@SINGLE_OR_BURST
def test_a_failed_compile_installs_nothing(decide):
    """A device compile that raises leaves the engine on the program the
    device still runs, and the next decision compares a fresh
    specialization with that program: on fig3, ``u1``'s compile raises,
    and ``u2`` recompiles the program of its own entry (``u1`` was rolled
    back)."""
    flay = Flay(registry.load("fig3"), FlayOptions(target="tofino"))
    cold_program, cold_report = flay.specialized_program, flay.compile_report
    u1, u2 = EntryFuzzer(flay.model, seed=4).insert_burst("Fig3Ingress.eth_table", 2)
    target = flay.device_compiler
    compile_program = target.compile

    def failing(program):
        raise RuntimeError("injected compile failure")

    target.compile = failing
    with pytest.raises(RuntimeError, match="injected compile failure"):
        decide(flay, u1)
    assert flay.specialized_program is cold_program
    assert flay.compile_report is cold_report
    target.compile = compile_program
    reports = count_compiles(flay)
    decision = decide(flay, u2)
    fresh = Spec(flay).specialize(flay.point_verdicts, flay.table_verdicts)[0]
    assert fresh != cold_program  # the device must not keep the cold program
    assert decision.recompiled and reports == [decision.compile_report]
    assert flay.specialized_program == fresh
    assert flay.compile_report is decision.compile_report


@SINGLE_OR_BURST
def test_a_failed_compile_leaves_the_control_plane(decide):
    """A decision whose device compile raises takes its update back out of
    the control plane, which then holds what the device holds: on fig3,
    an ``eth_table`` insert's compile raises once, after which the table
    does not hold the entry, a DELETE of it is refused, and re-sending
    the insert recompiles.  The verdicts stay the specification's
    throughout."""
    flay = Flay(registry.load("fig3"), FlayOptions(target="tofino"))
    spec = Spec(flay)
    table = "Fig3Ingress.eth_table"
    (insert,) = EntryFuzzer(flay.model, seed=4).insert_burst(table, 1)
    target = flay.device_compiler
    compile_program = target.compile

    def failing(program):
        target.compile = compile_program
        raise RuntimeError("injected compile failure")

    target.compile = failing
    with pytest.raises(RuntimeError, match="injected compile failure"):
        decide(flay, insert)
    assert target.compile == compile_program, "the insert must reach the compile"
    assert flay.state.tables[table].entries() == []
    assert spec.step() == []
    with pytest.raises(EntryError, match="no such entry"):
        decide(flay, Update(table, DELETE, insert.entry))
    assert spec.step() == []
    decision = decide(flay, insert)
    spec.check_decision(decision, [insert])
    assert decision.recompiled
    assert flay.state.tables[table].entries() == [insert.entry]
    spec.check_lowered()
