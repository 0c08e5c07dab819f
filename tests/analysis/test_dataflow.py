"""Unit tests for the abstract-interpretation framework.

Covers the lattice algebra, the interpreter's fact discipline
(decisions, folds, conflict clearing), action read/write sets (the
dependency graph's walk) and dead writes (the lint's), and the prune
rewriter's gating.
"""

import pytest

from repro.analysis.dataflow import (
    AbstractInterpreter,
    Bool3,
    IntervalLattice,
    PruneReport,
    TaintLattice,
    dead_writes,
    fixpoint,
    prune_program,
    term_join,
)
from repro.analysis.dataflow import engine as engine_mod
from repro.analysis.dataflow.prune import EFFORT_DCE, EFFORT_FULL, EFFORT_NONE
from repro.analysis.symexec import TableInfo
from repro.ir.deps import _action_reads_writes
from repro.p4 import ast_nodes as ast
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.smt import terms as T
from repro.smt.interval import Interval


def make_program(apply_body, locals_src="", parser_body=None):
    parser_body = (
        parser_body
        or "    state start { pkt_extract(hdr.h); transition accept; }"
    )
    return parse_program(f"""
header h_t {{ bit<8> a; bit<8> b; }}
struct headers_t {{ h_t h; }}
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


class TestBool3:
    def test_join(self):
        assert Bool3.TRUE.join(Bool3.TRUE) is Bool3.TRUE
        assert Bool3.TRUE.join(Bool3.FALSE) is Bool3.UNKNOWN
        assert Bool3.UNKNOWN.join(Bool3.TRUE) is Bool3.UNKNOWN

    def test_negate(self):
        assert Bool3.TRUE.negate() is Bool3.FALSE
        assert Bool3.FALSE.negate() is Bool3.TRUE
        assert Bool3.UNKNOWN.negate() is Bool3.UNKNOWN

    def test_from_term(self):
        assert Bool3.from_term(T.TRUE) is Bool3.TRUE
        assert Bool3.from_term(T.FALSE) is Bool3.FALSE
        sym = T.data_var("x", 1)
        assert Bool3.from_term(T.eq(sym, T.bv_const(1, 1))) is Bool3.UNKNOWN


class TestIntervalLattice:
    def test_top(self):
        assert IntervalLattice.top(8) == Interval(0, 255)

    def test_join_is_hull(self):
        joined = IntervalLattice.join(Interval(1, 3), Interval(10, 12))
        assert joined == Interval(1, 12)

    def test_leq(self):
        assert IntervalLattice.leq(Interval(2, 3), Interval(0, 10))
        assert not IntervalLattice.leq(Interval(0, 11), Interval(0, 10))

    def test_of_term_constant(self):
        assert IntervalLattice.of_term(T.bv_const(7, 8)) == Interval(7, 7)


class TestTaintLattice:
    def test_join_union(self):
        a = frozenset({"x"})
        b = frozenset({"y"})
        assert TaintLattice.join(a, b) == frozenset({"x", "y"})
        assert TaintLattice.join(a, TaintLattice.BOTTOM) is a
        assert TaintLattice.join(TaintLattice.BOTTOM, b) is b

    def test_leq_is_inclusion(self):
        assert TaintLattice.leq(frozenset({"x"}), frozenset({"x", "y"}))
        assert not TaintLattice.leq(frozenset({"z"}), frozenset({"x"}))


class TestTermJoin:
    def test_identical_terms_stay(self):
        t = T.bv_const(3, 8)
        assert term_join(t, T.bv_const(3, 8), fresh=lambda _: T.TRUE) is t

    def test_differing_terms_go_fresh(self):
        opaque = T.data_var("fresh", 8)
        out = term_join(T.bv_const(1, 8), T.bv_const(2, 8), fresh=lambda _: opaque)
        assert out is opaque


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
    """Read/write sets from :mod:`repro.ir.deps`' walk, and dead writes."""

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

    def test_dead_write_straight_line(self):
        action = self.make_action(
            """        meta.m = 8w1;
        meta.m = v;"""
        )
        dead = dead_writes(action.body, frozenset({"v"}))
        assert [d.path for d in dead] == ["meta.m"]

    def test_branch_is_a_barrier(self):
        action = self.make_action(
            """        meta.m = 8w1;
        if (v == 8w0) { meta.n = 8w1; }
        meta.m = v;"""
        )
        assert dead_writes(action.body, frozenset({"v"})) == []


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
