"""Seeded-program tests for the analyses that read a program's meaning.

Each fixture plants one shape a P4 author gets subtly wrong: a read of a
header the parser never extracts, a branch whose condition is a
constant, a select case behind a catch-all, a switch arm that repeats,
an assignment that truncates, an action nothing references, a store
overwritten before it is read. The tests pin what each layer does with
it: the abstract interpreter's decisions and folds, the prune pass's
rewrite, the reference interpreter's concrete result, and the
read/write sets of :mod:`repro.ir.deps`.
"""

import pytest

from repro.analysis import analyze
from repro.analysis.dataflow import AbstractInterpreter, prune_program
from repro.engine import Engine, EngineOptions
from repro.ir.deps import _action_reads_writes, build_dependency_graph
from repro.p4.errors import TypeCheckError
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.p4.types import TypeEnv
from repro.programs import registry
from repro.runtime.entries import ExactMatch, TableEntry
from repro.runtime.semantics import INSERT, ControlPlaneState, Update
from repro.targets.bmv2 import Interpreter, PacketBuilder

PREAMBLE = """
header h_t { bit<8> a; bit<8> b; }
header u_t { bit<8> x; }
struct headers_t { h_t h; u_t u; }
struct meta_t { bit<8> m; bit<8> n; bit<16> w; }
"""


def program(parser_body, control_locals, apply_body):
    return parse_program(f"""{PREAMBLE}
parser P(inout headers_t hdr, inout meta_t meta) {{
{parser_body}
}}
control C(inout headers_t hdr, inout meta_t meta) {{
{control_locals}
    apply {{
{apply_body}
    }}
}}
Pipeline(P(), C()) main;
""")


EXTRACT_H = "    state start { pkt_extract(hdr.h); transition accept; }"

EXTRACT_U_ON_ZERO = """
    state start {
        pkt_extract(hdr.h);
        transition select(hdr.h.a) {
            8w0: u;
            default: accept;
        }
    }
    state u { pkt_extract(hdr.u); transition accept; }
"""


def run_packet(prog, a=0, b=0, x=0, entries=()):
    """Run one packet ``a b x`` (one byte each) through ``prog``."""
    state = ControlPlaneState(analyze(prog))
    for entry in entries:
        state.apply_update(Update("C.t", INSERT, entry))
    packet = PacketBuilder().push(a, 8).push(b, 8).push(x, 8).build()
    return Interpreter(prog).run(packet, state).store


def interpret(prog, **kwargs):
    interp = AbstractInterpreter(prog, **kwargs)
    interp.run()
    return interp


def apply_stmts(prog):
    return prog.find("C").apply.statements


TABLE_T = """
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table t {
        key = { hdr.h.a: exact; }
        actions = { set; noop; }
        default_action = noop();
    }
"""


class TestCleanProgram:
    def make(self):
        return program(EXTRACT_H, TABLE_T, "        t.apply();\n        hdr.h.b = meta.m;")

    def test_interpreter_decides_nothing(self):
        interp = interpret(self.make())
        assert interp.decisions == {}
        assert "C.t" in interp.applied_tables

    def test_prune_leaves_it_unchanged(self):
        prog = self.make()
        pruned, report = prune_program(prog)
        assert pruned is prog
        assert not report.changed and not report.analysis_failed

    def test_table_result_reaches_the_store(self):
        entry = TableEntry((ExactMatch(7),), "set", (9,))
        assert run_packet(self.make(), a=7, entries=[entry])["hdr.h.b"] == 9
        assert run_packet(self.make(), a=8, entries=[entry])["hdr.h.b"] == 0


class TestHeaderValidity:
    GUARDED_READ = "        if (hdr.u.isValid()) { meta.m = hdr.u.x; }"

    def test_guarded_read_of_never_extracted_header_is_pruned(self):
        prog = program(EXTRACT_H, "", self.GUARDED_READ)
        pruned, report = prune_program(prog)
        assert report.removed_branches == 1
        assert "hdr.u.x" not in print_program(pruned)

    def test_guard_on_extracted_header_is_dropped(self):
        prog = program(EXTRACT_H, "", "        if (hdr.h.isValid()) { meta.m = hdr.h.a; }")
        pruned, report = prune_program(prog)
        assert report.removed_branches == 1
        text = print_program(pruned)
        assert "isValid" not in text
        assert "meta.m = hdr.h.a;" in text

    def test_guard_on_conditionally_extracted_header_stays(self):
        prog = program(EXTRACT_U_ON_ZERO, "", self.GUARDED_READ)
        pruned, report = prune_program(prog)
        assert pruned is prog and not report.changed

    def test_skip_parser_keeps_the_guard(self):
        prog = program(EXTRACT_H, "", self.GUARDED_READ)
        pruned, report = prune_program(prog, skip_parser=True)
        assert pruned is prog and not report.changed

    @pytest.mark.parametrize("a, valid, m", [(0, 1, 0x5A), (1, 0, 0)])
    def test_conditionally_extracted_header_is_read_on_its_path(self, a, valid, m):
        store = run_packet(program(EXTRACT_U_ON_ZERO, "", self.GUARDED_READ), a=a, x=0x5A)
        assert store["hdr.u.$valid"] == valid
        assert store["meta.m"] == m


class TestConstantBranch:
    def test_constant_true_condition_keeps_the_then_arm(self):
        prog = program(
            EXTRACT_H,
            "",
            """        meta.m = 8w1;
        if (meta.m == 8w1) { meta.n = 8w2; } else { meta.n = 8w3; }""",
        )
        assert interpret(prog).decisions[id(apply_stmts(prog)[1])] is True
        pruned, report = prune_program(prog)
        assert report.removed_branches == 1
        text = print_program(pruned)
        assert "8w2" in text and "8w3" not in text and "if (" not in text

    def test_constant_false_condition_drops_the_if(self):
        prog = program(
            EXTRACT_H,
            "",
            """        meta.m = 8w1;
        if (meta.m == 8w2) { meta.n = 8w2; }""",
        )
        pruned, report = prune_program(prog)
        assert report.removed_branches == 1
        assert "meta.n" not in print_program(pruned)
        assert run_packet(pruned)["meta.n"] == run_packet(prog)["meta.n"] == 0

    def test_true_without_else_inlines_the_body(self):
        prog = program(EXTRACT_H, "", "        if (true) { meta.m = 8w1; }")
        pruned, report = prune_program(prog)
        assert report.removed_branches == 1
        assert "if (" not in print_program(pruned)
        assert run_packet(pruned)["meta.m"] == 1

    DATA_BRANCH = "        if (hdr.h.a == 8w1) { meta.n = 8w2; } else { meta.n = 8w3; }"

    def test_data_dependent_condition_is_undecided(self):
        prog = program(EXTRACT_H, "", self.DATA_BRANCH)
        assert interpret(prog).decisions == {}
        pruned, report = prune_program(prog)
        assert pruned is prog and not report.changed

    @pytest.mark.parametrize("a, n", [(1, 2), (0, 3)])
    def test_data_dependent_condition_takes_both_arms(self, a, n):
        assert run_packet(program(EXTRACT_H, "", self.DATA_BRANCH), a=a)["meta.n"] == n


def select_program(cases):
    body = "\n".join(f"            {case}" for case in cases)
    return program(
        f"""
    state start {{
        pkt_extract(hdr.h);
        transition select(hdr.h.a) {{
{body}
        }}
    }}
    state s0 {{ pkt_extract(hdr.u); transition accept; }}
""",
        "",
        "        meta.m = 8w0;",
    )


class TestSelectCaseOrder:
    """The first matching case wins; a case behind a catch-all is dead."""

    @pytest.mark.parametrize("a, reached_s0", [(0, 1), (1, 0), (2, 0)])
    def test_case_after_catch_all_default(self, a, reached_s0):
        prog = select_program(["8w0: s0;", "default: accept;", "8w1: s0;"])
        assert run_packet(prog, a=a)["hdr.u.$valid"] == reached_s0

    @pytest.mark.parametrize("a, reached_s0", [(0, 1), (5, 0)])
    def test_duplicate_keyset_first_wins(self, a, reached_s0):
        prog = select_program(["8w0: s0;", "8w0: accept;", "default: accept;"])
        assert run_packet(prog, a=a)["hdr.u.$valid"] == reached_s0

    @pytest.mark.parametrize("a, reached_s0", [(0, 1), (1, 1), (2, 0)])
    def test_distinct_cases(self, a, reached_s0):
        prog = select_program(["8w0: s0;", "8w1: s0;", "default: accept;"])
        assert run_packet(prog, a=a)["hdr.u.$valid"] == reached_s0


class TestSwitchArms:
    SET_ON_7 = TableEntry((ExactMatch(7),), "set", (9,))

    def switch(self, arms):
        body = "\n".join(f"            {arm}" for arm in arms)
        return program(
            EXTRACT_H,
            TABLE_T,
            f"""        switch (t.apply().action_run) {{
{body}
            default: {{ }}
        }}""",
        )

    @pytest.mark.parametrize("a, n", [(7, 1), (8, 0)])
    def test_duplicate_arm_first_wins(self, a, n):
        prog = self.switch(["set: { meta.n = 8w1; }", "set: { meta.n = 8w2; }"])
        assert run_packet(prog, a=a, entries=[self.SET_ON_7])["meta.n"] == n

    @pytest.mark.parametrize("a, m, n", [(7, 9, 1), (8, 0, 2)])
    def test_well_formed_switch_runs_the_action_arm(self, a, m, n):
        prog = self.switch(["set: { meta.n = 8w1; }", "noop: { meta.n = 8w2; }"])
        store = run_packet(prog, a=a, entries=[self.SET_ON_7])
        assert (store["meta.m"], store["meta.n"]) == (m, n)

    def test_switch_on_an_empty_table_is_undecided(self):
        prog = self.switch(["set: { meta.n = 8w1; }", "noop: { meta.n = 8w2; }"])
        interp = interpret(prog)
        assert interp.decisions == {}
        assert "C.t" in interp.applied_tables


class TestWidthTruncation:
    """An assignment keeps the low bits that fit the destination."""

    @pytest.mark.parametrize(
        "body, path, value",
        [
            ("meta.m = 16w300;", "meta.m", 44),
            ("meta.m = 300;", "meta.m", 44),
            ("meta.w = 16w700;\n        meta.m = meta.w;", "meta.m", 188),
            ("meta.w = 16w700;\n        meta.m = (bit<8>) meta.w;", "meta.m", 188),
            ("meta.w = 16w3;", "meta.w", 3),
            ("meta.w = 8w255;", "meta.w", 255),
        ],
        ids=["sized-literal", "unsized-literal", "wide-field", "cast", "widening",
             "narrow-literal"],
    )
    def test_assignment(self, body, path, value):
        assert run_packet(program(EXTRACT_H, "", f"        {body}"))[path] == value

    def test_truncation_inside_action(self):
        prog = program(
            EXTRACT_H,
            """
    action bad() { meta.m = meta.w; }
    table t {
        key = { hdr.h.a: exact; }
        actions = { bad; }
        default_action = bad();
    }
""",
            "        meta.w = 16w700;\n        t.apply();",
        )
        assert run_packet(prog)["meta.m"] == 188

    def test_cast_folds_to_the_low_bits(self):
        prog = program(EXTRACT_H, "", "        meta.w = 16w700;\n        meta.m = (bit<8>) meta.w;")
        fact = interpret(prog).folds[id(apply_stmts(prog)[1])]
        assert (fact.value, fact.width) == (188, 8)

    def test_unsized_literal_folds_to_the_destination_width(self):
        prog = program(EXTRACT_H, "", "        meta.m = 300;")
        fact = interpret(prog).folds[id(apply_stmts(prog)[0])]
        assert (fact.value, fact.width) == (44, 8)

    @pytest.mark.parametrize(
        "body, index",
        [
            ("meta.m = 16w300;", 0),
            ("meta.w = 16w300;\n        meta.m = meta.w;", 1),
        ],
        ids=["sized-literal", "wide-field"],
    )
    def test_wide_value_folds_and_compares_at_the_destination_width(self, body, index):
        prog = program(
            EXTRACT_H,
            "",
            f"        {body}\n        if (meta.m == 8w44) {{ hdr.h.b = 8w1; }}",
        )
        fact = interpret(prog).folds[id(apply_stmts(prog)[index])]
        assert (fact.value, fact.width) == (44, 8)
        analyze(prog)  # the 8-bit comparison sees an 8-bit value
        assert run_packet(prog)["hdr.h.b"] == 1


HELPER = "    action helper(bit<8> v) { if (v == 8w44) { hdr.h.b = 8w1; } }"


class TestCallArgumentWidth:
    """A direct action call's argument has its parameter's width: a sized
    argument of another width is a type error, an unsized literal takes
    the parameter's width."""

    @pytest.mark.parametrize(
        "locals_, apply_body",
        [
            (HELPER, "        helper(16w300);"),
            (HELPER, "        helper(meta.w);"),
            (HELPER + "\n    action outer() { helper(16w300); }", "        outer();"),
        ],
        ids=["sized-literal", "wide-field", "from-an-action"],
    )
    def test_a_sized_argument_of_another_width_is_rejected(self, locals_, apply_body):
        prog = program(EXTRACT_H, locals_, apply_body)
        engine = lambda p: Engine(p, EngineOptions(target="none"))  # noqa: E731
        for check in (TypeEnv, analyze, engine):
            with pytest.raises(TypeCheckError) as raised:
                check(prog)
            message = str(raised.value)
            assert "'C'" in message and "'helper'" in message
            assert "16-bit argument" in message and "8-bit parameter 'v'" in message
        assert raised.value.stage == "typecheck"  # the engine's TypeCheckPass

    @pytest.mark.parametrize("argument", ["300", "8w44"], ids=["unsized", "same-width"])
    def test_an_argument_at_the_parameter_width_runs(self, argument):
        prog = program(EXTRACT_H, HELPER, f"        helper({argument});")
        analyze(prog)
        assert run_packet(prog)["hdr.h.b"] == 1


class TestActionReachability:
    def test_unreferenced_action_never_runs(self):
        prog = program(
            EXTRACT_H,
            """
    action used() { meta.m = 8w1; }
    action orphan() { meta.m = 8w2; }
    table t {
        key = { hdr.h.a: exact; }
        actions = { used; }
        default_action = used();
    }
""",
            "        t.apply();",
        )
        assert run_packet(prog)["meta.m"] == 1
        table = analyze(prog).tables["C.t"]
        assert table.action_order == ["used"]
        assert "orphan" not in table.action_codes

    def test_directly_called_action_runs(self):
        prog = program(EXTRACT_H, "    action helper() { meta.m = 8w1; }", "        helper();")
        assert run_packet(prog)["meta.m"] == 1
        fact = interpret(prog).folds[id(prog.find("C").locals[0].body.statements[0])]
        assert fact.value == 1

    def test_action_called_from_live_action_runs(self):
        prog = program(
            EXTRACT_H,
            """
    action inner() { meta.n = 8w2; }
    action outer() { inner(); }
""",
            "        outer();",
        )
        assert run_packet(prog)["meta.n"] == 2

    def test_called_action_writes_belong_to_the_table(self):
        prog = program(
            EXTRACT_H,
            """
    action inner() { meta.n = 8w2; }
    action outer() { inner(); }
    action noop() { }
    table t {
        key = { hdr.h.a: exact; }
        actions = { outer; }
        default_action = outer();
    }
    table u {
        key = { meta.n: exact; }
        actions = { noop; }
        default_action = noop();
    }
""",
            "        t.apply();\n        u.apply();",
        )
        graph = build_dependency_graph(prog)
        assert "meta.n" in graph.nodes["C.t"].writes
        assert {(e.src, e.dst) for e in graph.edges} == {("C.t", "C.u")}

    def test_actions_calling_each_other_are_read_once(self):
        prog = program(
            EXTRACT_H,
            """
    action a() { b(); }
    action b() { a(); meta.n = 8w1; }
    table t {
        key = { hdr.h.a: exact; }
        actions = { a; }
        default_action = a();
    }
""",
            "        t.apply();",
        )
        assert build_dependency_graph(prog).nodes["C.t"].writes == {"meta.n"}


class TestWriteAfterWrite:
    def test_straight_line_overwrite_keeps_the_last_store(self):
        prog = program(
            EXTRACT_H,
            "",
            """        meta.m = 8w1;
        meta.m = 8w2;
        hdr.h.b = meta.m;""",
        )
        assert run_packet(prog)["hdr.h.b"] == 2
        fact = interpret(prog).folds[id(apply_stmts(prog)[2])]
        assert fact.value == 2

    def test_intervening_read_sees_the_first_store(self):
        prog = program(
            EXTRACT_H,
            "",
            """        meta.m = 8w1;
        meta.n = meta.m;
        meta.m = 8w2;""",
        )
        store = run_packet(prog)
        assert (store["meta.m"], store["meta.n"]) == (2, 1)
        assert interpret(prog).folds[id(apply_stmts(prog)[1])].value == 1

    def test_overwrite_inside_action(self):
        prog = program(
            EXTRACT_H,
            """
    action a() {
        meta.n = 8w1;
        meta.n = 8w2;
    }
""",
            "        a();",
        )
        assert run_packet(prog)["meta.n"] == 2
        reads, writes = _action_reads_writes(prog.find("C").locals[0])
        assert (reads, writes) == (set(), {"meta.n"})


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(registry.CORPUS))
    def test_interpreter_facts_are_well_formed(self, name):
        interp = interpret(registry.load(name))
        assert all(isinstance(v, bool) for v in interp.decisions.values())
        for fact in interp.folds.values():
            assert fact.width > 0
            assert 0 <= fact.value < (1 << fact.width)
