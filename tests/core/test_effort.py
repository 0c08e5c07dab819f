"""Tests for the specialization effort levels (future-work axis #2)."""

import pytest

from repro.core import EFFORT_DCE, EFFORT_FULL, EFFORT_NONE, Flay, FlayOptions
from repro.engine.specialize import Specializer
from repro.p4 import ast_nodes as ast
from repro.p4.parser import parse_program
from repro.runtime.entries import TableEntry, TernaryMatch
from repro.runtime.semantics import INSERT, Update

SOURCE = """
header h_t { bit<8> f; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table t {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply {
        t.apply();
        meta.m = meta.m + 1;
        if (meta.m == 9) { meta.m = 3; }
    }
}
Pipeline(P(), C()) main;
"""


def flay_at(effort, updates=()):
    flay = Flay.from_source(SOURCE, FlayOptions(target="none", effort=effort))
    for update in updates:
        flay.process_update(update)
    return flay


WILDCARD = Update(
    "t", INSERT, TableEntry((TernaryMatch(0, 0),), "set", (7,), priority=1)
)


class TestEffortLevels:
    def test_none_passes_program_through(self):
        flay = flay_at(EFFORT_NONE)
        assert flay.specialized_program is flay.runtime.program
        assert flay.report.summary() == "no specializations applied"

    def test_dce_removes_empty_table_but_keeps_variables(self):
        flay = flay_at(EFFORT_DCE)
        text = flay.specialized_source()
        assert "table t" not in text  # dead table removed
        # Constant propagation is off: the arithmetic stays symbolic.
        assert "meta.m = meta.m + 1;" in text

    def test_full_propagates_constants(self):
        flay = flay_at(EFFORT_FULL)
        text = flay.specialized_source()
        assert "meta.m = 8w1;" in text

    def test_dce_never_inlines_effectful_actions(self):
        flay = flay_at(EFFORT_DCE, updates=[WILDCARD])
        text = flay.specialized_source()
        # The wildcard makes `set` the only action; FULL would inline it,
        # DCE keeps the (single-action) table.
        assert "table t" in text

    def test_full_inlines_wildcard(self):
        flay = flay_at(EFFORT_FULL, updates=[WILDCARD])
        text = flay.specialized_source()
        assert "table t" not in text
        assert "meta.m = 8w7;" in text

    def test_dce_does_not_narrow_match_kinds(self):
        exact_entry = Update(
            "t", INSERT, TableEntry((TernaryMatch(1, 0xFF),), "set", (7,), priority=1)
        )
        dce = flay_at(EFFORT_DCE, updates=[exact_entry])
        full = flay_at(EFFORT_FULL, updates=[exact_entry])
        assert _table_kind(dce.specialized_program) == "ternary"
        assert _table_kind(full.specialized_program) == "exact"

    def test_unknown_effort_rejected(self):
        from repro.analysis import analyze

        program = parse_program(SOURCE)
        with pytest.raises(ValueError):
            Specializer(program, analyze(program), effort="turbo")

    def test_effort_ordering_by_statements(self):
        """More effort, smaller residual program."""
        from repro.ir import measure

        sizes = {
            effort: measure(flay_at(effort).specialized_program).statements
            for effort in (EFFORT_NONE, EFFORT_DCE, EFFORT_FULL)
        }
        assert sizes[EFFORT_FULL] <= sizes[EFFORT_DCE] <= sizes[EFFORT_NONE]


def _table_kind(program):
    control = program.find("C")
    for local in control.locals:
        if isinstance(local, ast.TableDecl):
            return local.keys[0].match_kind
    return None
