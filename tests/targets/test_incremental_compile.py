"""The §6 modular-compile figure every Tofino recompile reports.

``TofinoCompiler`` keeps the last program it compiled and reports the
table-granular ``ProgramDelta`` against it, with what a modular compiler
would charge for that delta.  The delta is taken from AST identity and
structural equality; ``reference_diff.diff_programs`` — which prints every
table and the parser and compares the text — is its specification.
"""

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import Engine, EngineOptions
from repro.ir.deps import build_dependency_graph
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.entries import TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import INSERT, Update
from repro.targets.tofino.compiler import TofinoCompiler

from tests.targets.reference_diff import diff_programs

PROGRAMS = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")

SOURCE = """
header h_t { bit<8> f; bit<8> g; }
struct headers_t { h_t h; }
struct meta_t { bit<8> a; bit<8> b; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set_a(bit<8> v) { meta.a = v; }
    action set_b(bit<8> v) { meta.b = v; }
    action noop() { }
    table t1 {
        key = { hdr.h.f: ternary; }
        actions = { set_a; noop; }
        default_action = noop();
    }
    table t2 {
        key = { hdr.h.g: exact; }
        actions = { set_b; noop; }
        default_action = noop();
    }
    apply { t1.apply(); t2.apply(); }
}
Pipeline(P(), C()) main;
"""

WITHOUT_T2 = SOURCE.replace("t2.apply();", "").replace(
    """    table t2 {
        key = { hdr.h.g: exact; }
        actions = { set_b; noop; }
        default_action = noop();
    }
""",
    "",
)
T1_EXACT = SOURCE.replace("hdr.h.f: ternary;", "hdr.h.f: exact;")
NO_EXTRACT = SOURCE.replace("pkt_extract(hdr.h); transition accept;", "transition accept;")


def modular_formula(delta, program) -> float:
    """The modular cost as the separate incremental compiler charged it."""
    graph = build_dependency_graph(program)
    touched = set(delta.added_tables) | set(delta.changed_tables)
    key_bits = sum(
        node.key_bits
        for name, node in graph.nodes.items()
        if name in touched and not node.is_gateway
    )
    seconds = 1.5 + 0.45 * delta.touched + 0.004 * key_bits
    if delta.parser_changed:
        seconds += 6.0
    return seconds


def recompile(before: str, after: str):
    """Compile ``before`` then ``after`` on one compiler; the second report,
    checked against the reference diff and the modular formula."""
    previous, current = parse_program(before), parse_program(after)
    compiler = TofinoCompiler()
    compiler.compile(previous)
    report = compiler.compile(current)
    assert report.delta == diff_programs(previous, current)
    assert report.modular_seconds == modular_formula(report.delta, current)
    return report


class TestDiff:
    def test_identical_programs_are_noop(self):
        report = recompile(SOURCE, SOURCE)
        assert report.delta.touched == 0 and not report.delta.parser_changed
        assert report.delta.unchanged_tables == ("C.t1", "C.t2")
        assert report.modular_seconds == 1.5

    def test_removed_table_detected(self):
        removed = recompile(SOURCE, WITHOUT_T2).delta
        assert removed.removed_tables == ("C.t2",)
        assert removed.unchanged_tables == ("C.t1",)
        assert recompile(WITHOUT_T2, SOURCE).delta.added_tables == ("C.t2",)

    def test_match_kind_change_marks_changed(self):
        delta = recompile(SOURCE, T1_EXACT).delta
        assert delta.changed_tables == ("C.t1",)
        assert delta.unchanged_tables == ("C.t2",)

    def test_action_body_change_marks_changed(self):
        delta = recompile(SOURCE, SOURCE.replace("meta.a = v;", "meta.a = v + 1;")).delta
        assert delta.changed_tables == ("C.t1",)
        assert delta.unchanged_tables == ("C.t2",)

    def test_parser_change_detected(self):
        assert recompile(SOURCE, NO_EXTRACT).delta.parser_changed


class TestIncrementalCompiler:
    def test_first_compile_is_monolithic(self):
        report = TofinoCompiler().compile(parse_program(SOURCE))
        assert report.delta is None
        assert report.modular_seconds is None
        assert "modular" not in report.describe()

    def test_second_compile_charges_only_delta(self):
        report = recompile(SOURCE, T1_EXACT)
        assert report.modular_seconds < report.modeled_seconds
        text = report.describe()
        assert f"modeled {report.modeled_seconds:.1f} s" in text
        assert f"modular {report.modular_seconds:.1f} s (+0 -0 ~1 tables" in text

    def test_parser_change_costs_more(self):
        with_parser = recompile(SOURCE, NO_EXTRACT.replace("hdr.h.f: ternary;", "hdr.h.f: exact;"))
        assert with_parser.modular_seconds > recompile(SOURCE, T1_EXACT).modular_seconds

    def test_plugs_into_flay_runtime(self):
        """An engine built for the Tofino target reports the modular figure
        on a recompile: the first entry in t1 changes t1 only."""
        engine = Engine(parse_program(SOURCE), EngineOptions(target="tofino"))
        assert engine.compile_report.delta is None
        decision = engine.process_update(
            Update("t1", INSERT, TableEntry((TernaryMatch(1, 0xFF),), "set_a", (2,), 1))
        )
        assert decision.recompiled and engine.recompilations == 1
        report = decision.compile_report
        assert report is engine.compile_report
        assert "C.t2" not in report.delta.changed_tables
        assert report.delta.touched > 0
        assert report.modular_seconds < report.modeled_seconds


@pytest.mark.parametrize("name", PROGRAMS)
def test_rollout_delta_equals_reference(name):
    """At every recompile of a policy roll-out, the reported delta is the
    reference diff of the previous and current specialized programs."""
    entry = registry.get(name)
    flay = Flay(registry.load(name), FlayOptions(target="tofino", skip_parser=entry.skip_parser))
    previous = flay.specialized_program
    recompiles = 0
    for update in EntryFuzzer(flay.model, seed=1).rollout_stream(1):
        decision = flay.process_update(update)
        if not decision.recompiled:
            continue
        current = flay.specialized_program
        report = decision.compile_report
        assert report.delta == diff_programs(previous, current)
        assert report.modular_seconds == modular_formula(report.delta, current)
        previous = current
        recompiles += 1
    assert recompiles > 0


def test_rebuilt_but_equal_table_is_unchanged():
    """An accturbo insert rebuilds ``priority_schedule`` as a new object
    equal to the last one: equal, so not charged."""
    name = "AccTurboIngress.priority_schedule"
    entry = registry.get("accturbo")
    flay = Flay(
        registry.load("accturbo"),
        FlayOptions(target="tofino", skip_parser=entry.skip_parser),
    )
    control = flay.program.pipeline.controls[0]
    previous = flay.specialized_program
    rebuilt = 0
    for update in EntryFuzzer(flay.model, seed=1).rollout_stream(1):
        decision = flay.process_update(update)
        if not decision.recompiled:
            continue
        current = flay.specialized_program
        before = previous.find(control).tables_by_name().get("priority_schedule")
        after = current.find(control).tables_by_name().get("priority_schedule")
        if before is not None and before is not after and before == after:
            assert name in decision.compile_report.delta.unchanged_tables
            rebuilt += 1
        previous = current
    assert rebuilt > 0
