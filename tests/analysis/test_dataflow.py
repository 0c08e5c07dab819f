"""Unit tests for the abstract-interpretation framework.

Covers the worklist fixpoint, the interpreter's fact discipline
(decisions, folds, conflict clearing, header validity), action
read/write sets (the dependency graph's walk), and the prune rewriter's
gating.
"""

import pytest

from repro.analysis.dataflow import (
    AbstractInterpreter,
    PruneReport,
    fixpoint,
    prune_program,
)
from repro.analysis.dataflow import engine as engine_mod
from repro.analysis.dataflow.prune import EFFORT_DCE, EFFORT_FULL, EFFORT_NONE
from repro.analysis.symexec import TableInfo
from repro.ir.deps import _action_reads_writes
from repro.p4 import ast_nodes as ast
from repro.p4.parser import parse_program
from repro.p4.printer import print_program


def make_program(apply_body, locals_src="", parser_body=None):
    parser_body = (
        parser_body
        or "    state start { pkt_extract(hdr.h); transition accept; }"
    )
    return parse_program(f"""
header h_t {{ bit<8> a; bit<8> b; }}
header u_t {{ bit<8> x; }}
struct headers_t {{ h_t h; u_t u; }}
struct meta_t {{ bit<8> m; bit<8> n; }}
parser P(inout headers_t hdr, inout meta_t meta) {{
{parser_body}
}}
control C(inout headers_t hdr, inout meta_t meta) {{
{locals_src}
    apply {{
{apply_body}
    }}
}}
Pipeline(P(), C()) main;
""")


def apply_stmts(program):
    return program.find("C").apply.statements


class TestFixpoint:
    def test_converges_over_a_cycle(self):
        # Union-of-labels over a 3-node cycle with an off-ramp.
        graph = {"a": ["b"], "b": ["c"], "c": ["a", "d"], "d": []}
        facts = {n: frozenset() for n in graph}
        gen = {"a": frozenset({"A"}), "b": frozenset({"B"})}

        def join_into(node, fact):
            merged = facts[node] | fact
            if merged != facts[node]:
                facts[node] = merged
                return True
            return False

        fixpoint(
            successors=lambda n: graph[n],
            entry_facts={"a": frozenset({"seed"})},
            transfer=lambda n, f: f | gen.get(n, frozenset()),
            join_into=join_into,
            fact_at=lambda n: facts[n],
        )
        assert facts["d"] == frozenset({"seed", "A", "B"})
        # The cycle saturates: every member sees every label.
        assert facts["a"] == facts["b"] == facts["c"] == facts["d"]


class TestAbstractInterpreter:
    def test_selector_width_matches_symexec(self):
        # The engine mirrors the executor's table encoding; the widths
        # must never drift or prune decisions stop matching symexec.
        assert engine_mod._SELECTOR_WIDTH == TableInfo.SELECTOR_WIDTH

    def test_constant_condition_decision(self):
        program = make_program(
            """        meta.m = 8w1;
        if (meta.m == 8w1) { meta.n = 8w2; } else { meta.n = 8w3; }"""
        )
        interp = AbstractInterpreter(program)
        interp.run()
        if_stmt = apply_stmts(program)[1]
        assert interp.decisions[id(if_stmt)] is True

    def test_symbolic_condition_has_no_decision(self):
        program = make_program(
            "        if (hdr.h.a == 8w1) { meta.n = 8w2; }"
        )
        interp = AbstractInterpreter(program)
        interp.run()
        if_stmt = apply_stmts(program)[0]
        assert id(if_stmt) not in interp.decisions

    @pytest.mark.parametrize(
        "cond, expected",
        [("meta.m == 8w2", False), ("true", True)],
    )
    def test_literal_condition_decides_without_else(self, cond, expected):
        program = make_program(
            f"""        meta.m = 8w1;
        if ({cond}) {{ meta.n = 8w2; }}"""
        )
        interp = AbstractInterpreter(program)
        interp.run()
        if_stmt = apply_stmts(program)[1]
        assert interp.decisions[id(if_stmt)] is expected

    COND_EXTRACT_U = """    state start {
        pkt_extract(hdr.h);
        transition select(hdr.h.a) {
            8w0: u;
            default: accept;
        }
    }
    state u { pkt_extract(hdr.u); transition accept; }"""

    @pytest.mark.parametrize(
        "header, parser_body, skip_parser, expected",
        [
            ("hdr.h", None, False, True),
            ("hdr.u", None, False, False),
            ("hdr.u", COND_EXTRACT_U, False, None),
            ("hdr.u", None, True, None),
        ],
        ids=["extracted", "never-extracted", "extracted-on-one-path", "skip-parser"],
    )
    def test_header_validity_decides_isvalid(
        self, header, parser_body, skip_parser, expected
    ):
        # The parser fixpoint carries each header's validity into the
        # controls; an isValid() guard decides only where it is a literal.
        program = make_program(
            f"        if ({header}.isValid()) {{ meta.m = 8w1; }}",
            parser_body=parser_body,
        )
        interp = AbstractInterpreter(program, skip_parser=skip_parser)
        interp.run()
        if_stmt = apply_stmts(program)[0]
        assert interp.decisions.get(id(if_stmt)) is expected

    def test_conflicting_reexecution_clears_the_decision(self):
        # The action runs once per table fork with different parameter
        # bindings; a fact that differs across executions must die.
        program = make_program(
            "        t.apply();\n        t.apply();"
            if False
            else "        helper(8w1);\n        helper(8w2);",
            locals_src="""
    action helper(bit<8> v) {
        meta.m = v;
        if (meta.m == 8w1) { meta.n = 8w2; }
    }
""",
        )
        interp = AbstractInterpreter(program)
        interp.run()
        helper = program.find("C").locals[0]
        if_stmt = helper.body.statements[1]
        assert id(if_stmt) not in interp.decisions

    def test_fold_fact_for_constant_store(self):
        program = make_program(
            """        meta.m = 8w1;
        meta.n = meta.m + 8w1;"""
        )
        interp = AbstractInterpreter(program)
        interp.run()
        assign = apply_stmts(program)[1]
        fact = interp.folds[id(assign)]
        assert (fact.value, fact.width) == (2, 8)

    def test_applied_tables_are_recorded(self):
        program = make_program(
            "        t.apply();",
            locals_src="""
    action noop() { }
    table t {
        key = { hdr.h.a: exact; }
        actions = { noop; }
        default_action = noop();
    }
""",
        )
        interp = AbstractInterpreter(program)
        interp.run()
        assert "C.t" in interp.applied_tables


class TestEffects:
    """Read/write sets from :mod:`repro.ir.deps`' walk."""

    def make_action(self, body, params="bit<8> v"):
        program = make_program(
            "        helper(8w1);",
            locals_src=f"""
    action helper({params}) {{
{body}
    }}
""",
        )
        return program.find("C").locals[0]

    def test_read_before_write_escapes(self):
        action = self.make_action(
            """        meta.n = meta.m;
        meta.m = v;"""
        )
        reads, writes = _action_reads_writes(action)
        assert "meta.m" in reads
        assert writes == {"meta.m", "meta.n"}

    def test_dst_write_extern_writes_first_arg(self):
        program = make_program(
            "        helper();",
            locals_src="""
    register<bit<8>>(16) reg;
    action helper() {
        reg.read(meta.m, 8w0);
    }
""",
        )
        action = next(
            local
            for local in program.find("C").locals
            if isinstance(local, ast.ActionDecl)
        )
        reads, writes = _action_reads_writes(action)
        assert "meta.m" in writes
        assert "meta.m" not in reads


class TestPrune:
    def test_removes_always_true_branch(self):
        program = make_program(
            """        meta.m = 8w1;
        if (meta.m == 8w1) { meta.n = 8w2; } else { meta.n = 8w3; }"""
        )
        pruned, report = prune_program(program)
        assert report.removed_branches == 1
        body = pruned.find("C").apply.statements
        # The if is gone; its live branch is spliced in.
        assert not any(isinstance(s, ast.IfStmt) for s in body)
        assert "meta.n = 8w2" in print_program(pruned)
        assert "8w3" not in print_program(pruned)

    def test_removes_always_false_branch_without_else(self):
        program = make_program(
            """        meta.m = 8w1;
        if (meta.m == 8w9) { meta.n = 8w2; }"""
        )
        pruned, report = prune_program(program)
        assert report.removed_branches == 1
        assert "meta.n" not in print_program(pruned)

    def test_folds_constants_at_full_effort(self):
        program = make_program(
            """        meta.m = 8w1;
        meta.n = meta.m + 8w1;"""
        )
        pruned, report = prune_program(program, effort=EFFORT_FULL)
        assert report.folded_constants >= 1
        assert "meta.n = 8w2" in print_program(pruned)

    def test_dce_effort_skips_folding(self):
        program = make_program(
            """        meta.m = 8w1;
        meta.n = meta.m + 8w1;"""
        )
        pruned, report = prune_program(program, effort=EFFORT_DCE)
        assert report.folded_constants == 0
        assert "meta.m + 8w1" in print_program(pruned)

    def test_none_effort_is_identity(self):
        program = make_program("        meta.m = 8w1;")
        pruned, report = prune_program(program, effort=EFFORT_NONE)
        assert pruned is program
        assert not report.enabled
        assert report.summary() == "prune: disabled"

    def test_analysis_failure_degrades_to_identity(self):
        # No pipeline instantiation: the interpreter cannot run.
        program = parse_program("""
header h_t { bit<8> a; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
control C(inout headers_t hdr, inout meta_t meta) {
    apply { meta.m = 8w1; }
}
""")
        pruned, report = prune_program(program)
        assert pruned is program
        assert report.analysis_failed
        assert not report.changed
        assert "skipped" in report.summary()

    def test_untouched_program_returns_same_object(self):
        program = make_program(
            "        if (hdr.h.a == 8w1) { meta.n = 8w2; }"
        )
        pruned, report = prune_program(program)
        assert pruned is program
        assert not report.changed

    def test_action_bodies_are_never_rewritten(self):
        # Folding inside actions would break parameter-dependent reuse;
        # the rewriter only touches apply-block trees.
        program = make_program(
            "        helper();",
            locals_src="""
    action helper() {
        meta.m = 8w1;
        if (meta.m == 8w1) { meta.n = 8w2; } else { meta.n = 8w3; }
    }
""",
        )
        pruned, _report = prune_program(program)
        helper = pruned.find("C").locals[0]
        assert any(
            isinstance(s, ast.IfStmt) for s in helper.body.statements
        )

    def test_report_summary_counts(self):
        report = PruneReport(removed_branches=2, folded_constants=1)
        assert report.changed
        assert report.summary() == "prune: 2 branches removed, 1 constants folded"
