"""The structured error layer: one FlayError root, stages, eager validation."""

import pytest

from repro.__main__ import main
from repro.analysis.model import UnknownTableError
from repro.analysis.symexec import AnalysisError
from repro.core import Flay, FlayOptions
from repro.errors import FlayError, OptionsError, SourcePos
from repro.p4.errors import ParseError, TypeCheckError
from repro.p4.parser import parse_program
from repro.runtime.config import ConfigError, loads
from repro.runtime.entries import EntryError, TableEntry, TernaryMatch
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update
from repro.smt.terms import SortError
from repro.targets.base import UnknownTargetError, available_targets
from repro.targets.bmv2.interpreter import InterpreterError
from repro.targets.tofino.resources import ResourceError
from tests.engine.spec import record_sends

SOURCE = """
header h_t { bit<8> f; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action noop() { }
    table t {
        key = { hdr.h.f: exact; }
        actions = { noop; }
        default_action = noop();
    }
    apply { t.apply(); }
}
Pipeline(P(), C()) main;
"""


class TestHierarchy:
    def test_every_subsystem_error_roots_at_flay_error(self):
        for exc_type in (
            ParseError,
            TypeCheckError,
            AnalysisError,
            EntryError,
            ConfigError,
            InterpreterError,
            SortError,
            ResourceError,
            UnknownTableError,
            UnknownTargetError,
            OptionsError,
        ):
            assert issubclass(exc_type, FlayError), exc_type

    def test_builtin_bases_survive_for_legacy_catchers(self):
        assert issubclass(EntryError, ValueError)
        assert issubclass(ConfigError, ValueError)
        assert issubclass(UnknownTableError, KeyError)
        assert issubclass(SortError, TypeError)
        assert issubclass(InterpreterError, RuntimeError)
        assert issubclass(ResourceError, RuntimeError)

    def test_stage_and_pos_are_structured(self):
        exc = ParseError("unexpected token", SourcePos(3, 7))
        assert exc.stage == "parse"
        assert exc.pos == SourcePos(3, 7)
        assert str(exc) == "3:7: unexpected token"
        assert exc.describe() == "[parse] 3:7: unexpected token"

    def test_key_error_subclass_renders_without_quoting(self):
        exc = UnknownTableError("no table named 'acl'")
        assert str(exc) == "no table named 'acl'"
        assert exc.describe().startswith("[runtime]")


class TestEagerValidation:
    def test_unknown_target_fails_at_construction(self):
        program = parse_program(SOURCE)
        with pytest.raises(UnknownTargetError) as err:
            Flay(program, FlayOptions(target="p4c-xdp"))
        message = str(err.value)
        for name in available_targets():
            assert name in message

    def test_unknown_target_is_a_value_error(self):
        with pytest.raises(ValueError):
            Flay(parse_program(SOURCE), FlayOptions(target="nope"))

    def test_bad_effort_is_an_options_error(self):
        with pytest.raises(OptionsError) as err:
            Flay(parse_program(SOURCE), FlayOptions(target="none", effort="max"))
        assert "effort" in str(err.value)

    def test_all_registered_targets_resolve(self):
        from repro.targets.base import Target, create_target

        for name in available_targets():
            assert isinstance(create_target(name), Target)


class TestUserReachablePaths:
    def test_model_lookup_raises_typed_key_error(self):
        flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
        with pytest.raises(UnknownTableError):
            flay.model.table("no_such_table")
        with pytest.raises(UnknownTableError):
            flay.model.value_set("no_such_set")

    def test_config_errors_are_flay_errors(self):
        with pytest.raises(FlayError):
            loads("not json")
        with pytest.raises(ConfigError):
            loads('{"unknown_section": {}}')

    def test_missing_config_file_is_a_config_error(self, tmp_path):
        from repro.runtime.config import load

        with pytest.raises(ConfigError) as err:
            load(str(tmp_path / "does-not-exist.json"))
        assert "does-not-exist" in str(err.value)

    def test_cli_reports_flay_errors_as_exit_2(self, capsys):
        assert main(["compile", "corpus:fig3", "--target", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bogus" in err

    def test_cli_specialize_validates_target_eagerly(self, capsys):
        assert main(["specialize", "corpus:fig3", "--target", "bogus"]) == 2
        assert "registered backends" in capsys.readouterr().err


#: A ``switch`` arm naming an action ``t`` does not list: no selector code
#: stands for it.
UNKNOWN_SWITCH_ARM = """
header h_t { bit<8> a; bit<8> b; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; bit<8> n; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table t {
        key = { hdr.h.a: exact; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply {
        if (hdr.h.b == 8w1) {
            switch (t.apply().action_run) {
                set: { meta.n = 8w1; }
                missing: { meta.n = 8w2; }
                default: { }
            }
        }
    }
}
Pipeline(P(), C()) main;
"""


class TestUnknownSwitchArm:
    """Rejected by the type check, before prune or analysis sees it."""

    def _assert_names_it(self, err):
        assert isinstance(err, TypeCheckError) and not isinstance(err, KeyError)
        for name in ("'C'", "'t'", "'missing'"):
            assert name in err.message

    def test_the_engine_rejects_it_at_typecheck(self):
        with pytest.raises(TypeCheckError) as err:
            Flay(parse_program(UNKNOWN_SWITCH_ARM), FlayOptions(target="none"))
        self._assert_names_it(err.value)
        assert err.value.stage == "typecheck"

    @pytest.mark.parametrize("layer", ["analyze", "prune", "interpret", "bmv2"])
    def test_every_layer_rejects_it(self, layer):
        from repro.analysis import analyze
        from repro.analysis.dataflow import AbstractInterpreter, prune_program
        from repro.targets.bmv2 import Interpreter

        build = {
            "analyze": analyze,
            "prune": prune_program,
            "interpret": AbstractInterpreter,
            "bmv2": Interpreter,
        }[layer]
        with pytest.raises(TypeCheckError) as err:
            build(parse_program(UNKNOWN_SWITCH_ARM))
        self._assert_names_it(err.value)

    def test_the_cli_reports_it(self, tmp_path, capsys):
        source = tmp_path / "bad.p4"
        source.write_text(UNKNOWN_SWITCH_ARM)
        assert main(["specialize", str(source), "--target", "none"]) == 2
        err = capsys.readouterr().err
        assert "[typecheck]" in err and "'missing'" in err

    def test_the_default_action_is_a_listed_arm(self):
        source = UNKNOWN_SWITCH_ARM.replace("actions = { set; noop; }", "actions = { set; }")
        source = source.replace("missing:", "noop:")
        flay = Flay(parse_program(source), FlayOptions(target="none"))
        # The empty table always runs its default: the `noop` arm is inlined.
        assert "meta.n = 8w2;" in flay.specialized_source()


FULL_MASK = (1 << 48) - 1


def _fig3_entry(value, port, priority=10):
    return TableEntry((TernaryMatch(value, FULL_MASK),), "set", (port,), priority)


def _observable(flay, sent):
    """Everything a failed batch must leave as it found it; ``sent`` holds
    the writes the engine's target handed the device."""
    state = flay.runtime.state
    return {
        "entries": {
            name: table.entries() for name, table in state.tables.items()
        },
        "value_sets": dict(state.value_sets),
        "update_count": state.update_count,
        "point_verdicts": dict(flay.runtime.point_verdicts),
        "table_verdicts": dict(flay.runtime.table_verdicts),
        "source": flay.specialized_source(),
        "lowered": list(sent),
    }


class TestBatchAllOrNothing:
    """A batch with one bad update — bad only against pre-batch state or
    its entry's schema, so the coalescer cannot see it — must not apply
    the good ones either."""

    E1 = Update("eth_table", INSERT, _fig3_entry(0x2, 0x900))
    ABSENT = Update("eth_table", DELETE, _fig3_entry(0x7, 0x100))
    INSTALLED = Update("eth_table", INSERT, _fig3_entry(0x1, 0x800))
    MALFORMED = Update("eth_table", INSERT, _fig3_entry(1 << 48, 0x100))
    BAD = {
        "absent": (ABSENT,),
        "installed": (INSTALLED,),
        "malformed": (MALFORMED,),
        # The coalescer cancels an insert and its delete; the insert must
        # still be checked, as sequential application checks it.
        "installed_then_deleted": (
            INSTALLED,
            Update("eth_table", DELETE, INSTALLED.entry),
        ),
        "malformed_then_deleted": (
            MALFORMED,
            Update("eth_table", DELETE, MALFORMED.entry),
        ),
        # Only the last of two modifies survives the fold.
        "malformed_modify_overwritten": (
            Update("eth_table", MODIFY, _fig3_entry(0x1, 1 << 16)),
            Update("eth_table", MODIFY, _fig3_entry(0x1, 0x86DD)),
        ),
    }

    @staticmethod
    def _pair():
        from repro.programs.fig3 import source

        pair = []
        for _ in range(2):
            flay = Flay.from_source(source(), FlayOptions(target="tofino"))
            sent = record_sends(flay)
            flay.decide(TestBatchAllOrNothing.INSTALLED)
            pair.append((flay, sent))
        return pair

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_failed_batch_leaves_no_trace(self, bad):
        (flay, sent), (untouched, untouched_sent) = self._pair()
        with pytest.raises(EntryError):
            flay.decide([self.E1, *self.BAD[bad]])
        assert _observable(flay, sent) == _observable(untouched, untouched_sent)
        # The batch minus the bad ops then succeeds, as on the twin that
        # never saw the failed one.
        untouched.decide([self.E1])
        flay.decide([self.E1])
        assert _observable(flay, sent) == _observable(untouched, untouched_sent)
        assert flay.runtime.state.update_count == 2
