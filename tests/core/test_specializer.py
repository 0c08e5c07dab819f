"""Tests for the specializing transformer (via the Flay facade, which wires
verdicts to the specializer the way the runtime does)."""

import pytest

from repro.core import Flay, FlayOptions
from repro.p4 import ast_nodes as ast
from repro.p4.printer import print_program
from repro.runtime.entries import ExactMatch, TableEntry, TernaryMatch
from repro.runtime.semantics import INSERT, Update, ValueSetUpdate


def flay_for(source, **options):
    return Flay.from_source(source, FlayOptions(target="none", **options))


BASE = """
header h_t {{ bit<8> f; bit<8> g; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> m; }}
parser P(inout headers_t hdr, inout meta_t meta) {{
    state start {{ pkt_extract(hdr.h); transition accept; }}
}}
control C(inout headers_t hdr, inout meta_t meta) {{
{locals}
    apply {{ {body} }}
}}
Pipeline(P(), C()) main;
"""

TABLE = """
    action set(bit<8> v) { meta.m = v; }
    action drop_it() { mark_to_drop(); }
    action noop() { }
    table t {
        key = { hdr.h.f: ternary; }
        actions = { set; drop_it; noop; }
        default_action = noop();
        size = 32;
    }
"""


def entry(value, mask, action="set", args=(1,), priority=1):
    return TableEntry((TernaryMatch(value, mask),), action, args, priority)


class TestTableSpecialization:
    def test_empty_table_with_noop_default_removed(self):
        flay = flay_for(BASE.format(locals=TABLE, body="t.apply();"))
        text = flay.specialized_source()
        assert "table t" not in text
        assert "C.t" in flay.report.removed_tables

    def test_empty_table_with_effectful_default_inlined(self):
        locals_ = TABLE.replace("default_action = noop();", "default_action = set(8w7);")
        flay = flay_for(BASE.format(locals=locals_, body="t.apply();"))
        text = flay.specialized_source()
        assert "table t" not in text
        assert "meta.m = 8w7;" in text

    def test_wildcard_entry_inlines_action(self):
        flay = flay_for(BASE.format(locals=TABLE, body="t.apply();"))
        flay.process_update(Update("t", INSERT, entry(0, 0, args=(0x42,))))
        text = flay.specialized_source()
        assert "table t" not in text
        assert "meta.m = 8w0x42;" in text

    def test_unused_actions_dropped(self):
        flay = flay_for(BASE.format(locals=TABLE, body="t.apply();"))
        flay.process_update(Update("t", INSERT, entry(1, 0xFF, args=(2,))))
        text = flay.specialized_source()
        assert "table t" in text
        assert "drop_it" not in text  # never selected by any entry
        assert "C.t" in flay.report.removed_actions

    def test_match_kind_narrowed_to_exact(self):
        flay = flay_for(BASE.format(locals=TABLE, body="t.apply();"))
        flay.process_update(Update("t", INSERT, entry(1, 0xFF)))
        table = _find_table(flay.specialized_program, "C", "t")
        assert table.keys[0].match_kind == "exact"

    def test_partial_masks_stay_ternary(self):
        flay = flay_for(BASE.format(locals=TABLE, body="t.apply();"))
        flay.process_update(Update("t", INSERT, entry(1, 0x0F)))
        table = _find_table(flay.specialized_program, "C", "t")
        assert table.keys[0].match_kind == "ternary"


class TestBranchSpecialization:
    def test_never_branch_removed(self):
        body = """
        t.apply();
        if (meta.m == 9) { meta.m = 1; }
        """
        # Empty table → noop → m stays 0 → condition never true.
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        text = flay.specialized_source()
        assert "if" not in text

    def test_always_branch_flattened(self):
        body = """
        t.apply();
        if (meta.m == 0) { meta.m = 1; } else { meta.m = 2; }
        """
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        text = flay.specialized_source()
        assert "meta.m = 1;" in text
        assert "meta.m = 2;" not in text

    def test_hit_never_uses_else(self):
        body = """
        if (t.apply().hit) { meta.m = 1; } else { meta.m = 2; }
        """
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        text = flay.specialized_source()
        assert "meta.m = 2;" in text
        assert "meta.m = 1;" not in text

    def test_hit_always_uses_then(self):
        body = """
        if (t.apply().hit) { meta.m = 1; } else { meta.m = 2; }
        """
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        flay.process_update(Update("t", INSERT, entry(0, 0)))  # wildcard: always hits
        text = flay.specialized_source()
        assert "meta.m = 1;" in text
        assert "meta.m = 2;" not in text

    def test_hit_maybe_keeps_condition(self):
        body = """
        if (t.apply().hit) { meta.m = 1; } else { meta.m = 2; }
        """
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        flay.process_update(Update("t", INSERT, entry(1, 0xFF)))
        text = flay.specialized_source()
        assert "t.apply().hit" in text

    def test_hit_maybe_keeps_a_one_action_table(self):
        """One feasible action without parameters would inline the table,
        but the kept ``t.apply().miss`` test still applies it: the table
        and its action stay declared, and the dependency graph finds them."""
        from repro.ir import build_dependency_graph

        body = """
        if (t.apply().miss) { meta.m = 1; }
        """
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        flay.process_update(Update("t", INSERT, entry(1, 0xFF, "noop", ())))
        assert flay.table_verdicts["C.t"].feasible_actions == {"noop"}
        text = flay.specialized_source()
        assert "t.apply().miss" in text and "table t" in text
        assert "C.t" in build_dependency_graph(flay.specialized_program).nodes

    def test_a_repeated_switch_arm_is_dropped(self):
        """The first arm for an action wins, so a later one never runs;
        with one feasible action the switch then folds into the table's
        inlined action and the first arm, leaving no switch on a table
        the output no longer declares."""
        body = """
        switch (t.apply().action_run) {
            set: { meta.m = 1; }
            set: { meta.m = 2; }
            default: { }
        }
        """
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        flay.process_update(Update("t", INSERT, entry(0, 0, "set", (7,))))
        text = flay.specialized_source()
        assert "switch" not in text and "table t" not in text
        assert "meta.m = 1;" in text and "meta.m = 2;" not in text

    def test_switch_arms_filtered(self):
        body = """
        switch (t.apply().action_run) {
            set: { meta.m = 10; }
            drop_it: { meta.m = 20; }
            default: { meta.m = 30; }
        }
        """
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        flay.process_update(Update("t", INSERT, entry(1, 0xFF)))
        text = flay.specialized_source()
        assert "meta.m = 0xa;" in text  # set feasible
        assert "meta.m = 0x14;" not in text  # drop_it infeasible
        assert "meta.m = 0x1e;" in text  # default (noop) feasible on miss


class TestConstantPropagation:
    def test_constant_assignment_folded(self):
        body = """
        t.apply();
        meta.m = meta.m + 1;
        """
        flay = flay_for(BASE.format(locals=TABLE, body=body))
        text = flay.specialized_source()
        # Empty table: m is 0 after apply, so m+1 is the constant 1.
        assert "meta.m = 8w1;" in text
        assert flay.report.constants_propagated >= 1


class TestParserSpecialization:
    PVS_SOURCE = """
header a_t { bit<16> tag; }
header b_t { bit<8> x; }
struct headers_t { a_t a; b_t b; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    value_set<bit<16>>(2) pvs;
    state start {
        pkt_extract(hdr.a);
        transition select(hdr.a.tag) {
            pvs: parse_b;
            default: accept;
        }
    }
    state parse_b {
        pkt_extract(hdr.b);
        transition accept;
    }
}
control C(inout headers_t hdr, inout meta_t meta) {
    apply { meta.m = hdr.b.x; }
}
Pipeline(P(), C()) main;
"""

    def test_unconfigured_value_set_branch_removed(self):
        flay = flay_for(self.PVS_SOURCE)
        parser_decl = flay.specialized_program.find("P")
        state_names = {s.name for s in parser_decl.states}
        assert "parse_b" not in state_names
        assert flay.report.removed_select_cases >= 1

    def test_configuring_value_set_restores_branch(self):
        flay = flay_for(self.PVS_SOURCE)
        decision = flay.decide(ValueSetUpdate("pvs", (0x800,)))
        assert decision.recompiled
        parser_decl = flay.specialized_program.find("P")
        state_names = {s.name for s in parser_decl.states}
        assert "parse_b" in state_names

    TAIL_SOURCE = """
header a_t { bit<16> tag; }
header b_t { bit<8> x; }
struct headers_t { a_t a; b_t b; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start {
        pkt_extract(hdr.a);
        pkt_extract(hdr.b);
        transition accept;
    }
}
control C(inout headers_t hdr, inout meta_t meta) {
    apply { meta.m = (bit<8>) hdr.a.tag; }
}
Pipeline(P(), C()) main;
"""

    def test_unused_tail_header_pruned(self):
        flay = flay_for(self.TAIL_SOURCE)
        assert "hdr.b" in flay.report.pruned_headers
        text = flay.specialized_source()
        assert "pkt_extract(hdr.b)" not in text
        assert "pkt_extract(hdr.a)" in text

    def test_tail_pruning_can_be_disabled(self):
        # Parser-tail pruning is part of the full effort preset only.
        flay = flay_for(self.TAIL_SOURCE, effort="dce")
        assert "pkt_extract(hdr.b)" in flay.specialized_source()

    def test_used_header_not_pruned(self):
        source = self.TAIL_SOURCE.replace(
            "meta.m = (bit<8>) hdr.a.tag;", "meta.m = hdr.b.x;"
        )
        flay = flay_for(source)
        assert "pkt_extract(hdr.b)" in flay.specialized_source()

    # A tail header referenced in exactly one place of the output.
    TABLE_ON_TAG = """
    action copy() { meta.m = hdr.b.x; }
    action noop() { }
    table t {
        key = { hdr.a.tag: ternary; }
        actions = { copy; noop; }
        default_action = noop();
    }
"""
    TABLE_ON_B = """
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table t {
        key = { hdr.b.x: exact; }
        actions = { set; noop; }
        default_action = noop();
    }
"""
    ONE_REFERENCE = {
        "if_condition": ("", "if (hdr.b.x == 1) { meta.m = 1; }", None),
        "table_key": (TABLE_ON_B, "t.apply();", ExactMatch(1), "set", (2,)),
        "action_body": (TABLE_ON_TAG, "t.apply();", TernaryMatch(1, 0xFFFF), "copy", ()),
        "inlined_on_apply": (TABLE_ON_TAG, "t.apply();", TernaryMatch(0, 0), "copy", ()),
        "inlined_on_hit": (
            TABLE_ON_TAG,
            "if (t.apply().hit) { meta.m = 1; }",
            TernaryMatch(0, 0),
            "copy",
            (),
        ),
        "inlined_on_switch": (
            TABLE_ON_TAG,
            "switch (t.apply().action_run) { copy: { meta.m = 3; } }",
            TernaryMatch(0, 0),
            "copy",
            (),
        ),
    }

    @pytest.mark.parametrize("where", sorted(ONE_REFERENCE))
    def test_header_referenced_once_is_not_pruned(self, where):
        locals_, body, match, *action = self.ONE_REFERENCE[where]
        source = self.TAIL_SOURCE.replace(
            "    apply { meta.m = (bit<8>) hdr.a.tag; }",
            f"{locals_}    apply {{ {body} }}",
        )
        flay = flay_for(source)
        if match is not None:
            name, args = action
            flay.process_update(
                Update("t", INSERT, TableEntry((match,), name, args, 1))
            )
        text = flay.specialized_source()
        assert "hdr.b" in text.split("control C", 1)[1]
        assert "pkt_extract(hdr.b)" in text
        assert "hdr.b" not in flay.report.pruned_headers

    def test_header_referenced_only_by_a_select_is_not_pruned(self):
        source = self.TAIL_SOURCE.replace(
            "        transition accept;\n    }\n}",
            "        transition select(hdr.b.x) {\n"
            "            1: accept;\n"
            "            default: reject;\n"
            "        }\n    }\n}",
        )
        flay = flay_for(source)
        text = flay.specialized_source()
        assert "select(hdr.b.x)" in text
        assert "pkt_extract(hdr.b)" in text

    def test_header_referenced_only_in_a_dead_branch_is_pruned(self):
        source = self.TAIL_SOURCE.replace(
            "meta.m = (bit<8>) hdr.a.tag;",
            "meta.m = 0; if (meta.m == 9) { meta.m = hdr.b.x; }",
        )
        flay = flay_for(source)
        assert "hdr.b" in flay.report.pruned_headers
        assert "hdr.b" not in flay.specialized_source()


def _find_table(program, control_name, table_name):
    control = program.find(control_name)
    for local in control.locals:
        if isinstance(local, ast.TableDecl) and local.name == table_name:
            return local
    raise AssertionError(f"table {table_name} not found")
