"""Seeded-program tests for the analyses that read a program's meaning.

Each fixture plants one shape a P4 author gets subtly wrong: a read of a
header the parser never extracts, a branch whose condition is a
constant, a select case behind a catch-all, a switch arm that repeats,
an assignment that truncates, an action nothing references, a store
overwritten before it is read. The tests pin what each layer does with
it: the specializer's output at the empty config (the branches the
analysis decides and the constants it folds), the reference
interpreter's concrete result, and the read/write sets of
:mod:`repro.ir.deps`.
"""

import pytest

from repro.analysis import analyze
from repro.core import Flay, FlayOptions
from repro.engine import Engine, EngineOptions
from repro.ir.deps import _action_reads_writes, build_dependency_graph
from repro.p4.errors import TypeCheckError
from repro.p4.parser import parse_program
from repro.p4.types import TypeEnv
from repro.programs import registry
from repro.runtime.entries import ExactMatch, TableEntry
from repro.runtime.semantics import INSERT, ControlPlaneState, Update
from repro.smt.simplify import constant_value
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


def specialized(prog, **options):
    """Control ``C`` as the specializer prints it at the empty config."""
    flay = Flay(prog, FlayOptions(target="none", **options))
    return flay.specialized_source().split("control C", 1)[1]


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

    def test_analysis_decides_nothing_constant(self):
        model = analyze(self.make())
        assert "C.t" in model.tables
        assert all(constant_value(p.expr) is None for p in model.points.values())

    def test_dce_leaves_it_unchanged(self):
        text = specialized(self.make(), effort="dce")
        assert "hdr.h.b = meta.m;" in text and "if (" not in text

    def test_table_result_reaches_the_store(self):
        entry = TableEntry((ExactMatch(7),), "set", (9,))
        assert run_packet(self.make(), a=7, entries=[entry])["hdr.h.b"] == 9
        assert run_packet(self.make(), a=8, entries=[entry])["hdr.h.b"] == 0


class TestHeaderValidity:
    GUARDED_READ = "        if (hdr.u.isValid()) { meta.m = hdr.u.x; }"

    @pytest.mark.parametrize("effort", ["dce", "full"])
    def test_guarded_read_of_never_extracted_header_is_dropped(self, effort):
        text = specialized(program(EXTRACT_H, "", self.GUARDED_READ), effort=effort)
        assert "hdr.u" not in text and "if (" not in text

    @pytest.mark.parametrize("effort", ["dce", "full"])
    def test_guard_on_extracted_header_is_dropped(self, effort):
        prog = program(EXTRACT_H, "", "        if (hdr.h.isValid()) { meta.m = hdr.h.a; }")
        text = specialized(prog, effort=effort)
        assert "isValid" not in text
        assert "meta.m = hdr.h.a;" in text

    def test_guard_on_conditionally_extracted_header_stays(self):
        text = specialized(program(EXTRACT_U_ON_ZERO, "", self.GUARDED_READ))
        assert "if (hdr.u.isValid())" in text and "meta.m = hdr.u.x;" in text

    def test_skip_parser_keeps_the_guard(self):
        prog = program(EXTRACT_H, "", self.GUARDED_READ)
        text = specialized(prog, skip_parser=True)
        assert "if (hdr.u.isValid())" in text and "meta.m = hdr.u.x;" in text

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
        text = specialized(prog, effort="dce")
        assert "meta.n = 8w2;" in text and "8w3" not in text and "if (" not in text

    def test_constant_false_condition_drops_the_if(self):
        prog = program(
            EXTRACT_H,
            "",
            """        meta.m = 8w1;
        if (meta.m == 8w2) { meta.n = 8w2; }""",
        )
        text = specialized(prog, effort="dce")
        assert "meta.n" not in text and "if (" not in text
        assert run_packet(prog)["meta.n"] == 0

    def test_true_without_else_inlines_the_body(self):
        prog = program(EXTRACT_H, "", "        if (true) { meta.m = 8w1; }")
        text = specialized(prog, effort="dce")
        assert "if (" not in text and "meta.m = 8w1;" in text
        assert run_packet(prog)["meta.m"] == 1

    DATA_BRANCH = "        if (hdr.h.a == 8w1) { meta.n = 8w2; } else { meta.n = 8w3; }"

    def test_data_dependent_condition_is_undecided(self):
        prog = program(EXTRACT_H, "", self.DATA_BRANCH)
        text = specialized(prog)
        assert "if (hdr.h.a == 8w1)" in text
        assert "meta.n = 8w2;" in text and "meta.n = 8w3;" in text

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

    def test_switch_on_an_empty_table_runs_its_default_arm(self):
        prog = self.switch(["set: { meta.n = 8w1; }", "noop: { meta.n = 8w2; }"])
        assert "C.t" in analyze(prog).tables
        text = specialized(prog)
        assert "meta.n = 8w2;" in text and "8w1" not in text


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
        assert "meta.m = 8w0xbc;" in specialized(prog)  # 188
        assert "meta.m = (bit<8>) meta.w;" in specialized(prog, effort="dce")

    def test_unsized_literal_stays_as_written(self):
        """A literal is no derived constant: the specializer keeps it, and
        the assignment truncates it at run time."""
        prog = program(EXTRACT_H, "", "        meta.m = 300;")
        assert "meta.m = 0x12c;" in specialized(prog)
        assert run_packet(prog)["meta.m"] == 44

    @pytest.mark.parametrize(
        "body, stored",
        [
            ("meta.m = 16w300;", "meta.m = 16w0x12c;"),
            ("meta.w = 16w300;\n        meta.m = meta.w;", "meta.m = 8w0x2c;"),
        ],
        ids=["sized-literal", "wide-field"],
    )
    def test_wide_value_compares_at_the_destination_width(self, body, stored):
        prog = program(
            EXTRACT_H,
            "",
            f"        {body}\n        if (meta.m == 8w44) {{ hdr.h.b = 8w1; }}",
        )
        analyze(prog)  # the 8-bit comparison sees an 8-bit value
        text = specialized(prog)
        assert stored in text  # a derived value folds to the low bits
        assert "if (" not in text and "hdr.h.b = 8w1;" in text
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
        assert "helper();" in specialized(prog)

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
        assert "hdr.h.b = 8w2;" in specialized(prog)

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
        assert "meta.n = 8w1;" in specialized(prog)

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
    def test_constants_fit_their_width(self, name):
        """Every point the analysis decides to a constant holds a value
        its width can carry."""
        entry = registry.get(name)
        model = analyze(registry.load(name), skip_parser=entry.skip_parser)
        for point in model.points.values():
            value = constant_value(point.expr)
            if value is not None and point.expr.width:
                assert 0 <= value < (1 << point.expr.width)
            elif value is not None:
                assert value in (0, 1)
