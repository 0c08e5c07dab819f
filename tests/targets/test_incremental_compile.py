"""Tests for the incremental device-compiler model (future-work axis #1)."""

import pytest

from repro.core import Flay, FlayOptions
from repro.p4.parser import parse_program
from repro.runtime.entries import TableEntry, TernaryMatch
from repro.runtime.semantics import INSERT, Update
from repro.targets.tofino.incremental import (
    IncrementalCompileReport,
    IncrementalTofinoCompiler,
    diff_programs,
)

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


class TestDiff:
    def test_identical_programs_are_noop(self):
        program = parse_program(SOURCE)
        delta = diff_programs(program, program)
        assert delta.is_noop
        assert len(delta.unchanged_tables) == 2

    def test_removed_table_detected(self):
        before = parse_program(SOURCE)
        after = parse_program(SOURCE.replace("t2.apply();", ""))
        # t2 still declared but unapplied — the signature set keys off the
        # declarations, so drop the declaration too.
        after = parse_program(
            SOURCE.replace("t2.apply();", "").replace(
                """    table t2 {
        key = { hdr.h.g: exact; }
        actions = { set_b; noop; }
        default_action = noop();
    }
""",
                "",
            )
        )
        delta = diff_programs(before, after)
        assert delta.removed_tables == ("C.t2",)
        assert delta.unchanged_tables == ("C.t1",)

    def test_match_kind_change_marks_changed(self):
        before = parse_program(SOURCE)
        after = parse_program(SOURCE.replace("hdr.h.f: ternary;", "hdr.h.f: exact;"))
        delta = diff_programs(before, after)
        assert delta.changed_tables == ("C.t1",)

    def test_action_body_change_marks_changed(self):
        before = parse_program(SOURCE)
        after = parse_program(SOURCE.replace("meta.a = v;", "meta.a = v + 1;"))
        delta = diff_programs(before, after)
        assert "C.t1" in delta.changed_tables

    def test_parser_change_detected(self):
        before = parse_program(SOURCE)
        after = parse_program(
            SOURCE.replace("pkt_extract(hdr.h); transition accept;", "transition accept;")
        )
        delta = diff_programs(before, after)
        assert delta.parser_changed


class TestIncrementalCompiler:
    def test_first_compile_is_monolithic(self):
        compiler = IncrementalTofinoCompiler()
        report = compiler.compile(parse_program(SOURCE))
        assert not isinstance(report, IncrementalCompileReport)

    def test_second_compile_charges_only_delta(self):
        compiler = IncrementalTofinoCompiler()
        compiler.compile(parse_program(SOURCE))
        changed = parse_program(SOURCE.replace("hdr.h.f: ternary;", "hdr.h.f: exact;"))
        report = compiler.compile(changed)
        assert isinstance(report, IncrementalCompileReport)
        assert report.delta.changed_tables == ("C.t1",)
        assert report.modeled_seconds < report.monolithic_seconds
        assert report.speedup > 1

    def test_parser_change_costs_more(self):
        compiler = IncrementalTofinoCompiler()
        base = parse_program(SOURCE)
        compiler.compile(base)
        table_only = compiler.compile(
            parse_program(SOURCE.replace("hdr.h.f: ternary;", "hdr.h.f: exact;"))
        )
        compiler2 = IncrementalTofinoCompiler()
        compiler2.compile(base)
        with_parser = compiler2.compile(
            parse_program(
                SOURCE.replace(
                    "pkt_extract(hdr.h); transition accept;",
                    "transition accept;",
                ).replace("hdr.h.f: ternary;", "hdr.h.f: exact;")
            )
        )
        assert with_parser.modeled_seconds > table_only.modeled_seconds

    def test_plugs_into_flay_runtime(self):
        """The incremental compiler is a drop-in device compiler: across
        the Fig. 3-style sequence it only pays for the table that changed."""
        from repro.engine import Engine, EngineOptions

        program = parse_program(SOURCE)
        compiler = IncrementalTofinoCompiler()
        runtime = Engine(
            program, EngineOptions(target="none"), device_compiler=compiler
        )
        runtime.process_update(
            Update("t1", INSERT, TableEntry((TernaryMatch(1, 0xFF),), "set_a", (2,), 1))
        )
        assert compiler.compile_count >= 2
        last = compiler.reports[-1]
        assert isinstance(last, IncrementalCompileReport)
        # Only t1's implementation changed; t2 is untouched.
        assert "C.t2" not in last.delta.changed_tables
        assert last.speedup > 1
