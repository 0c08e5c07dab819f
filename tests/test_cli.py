"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.__main__ import main


def test_stats(capsys):
    assert main(["stats", "corpus:fig3"]) == 0
    out = capsys.readouterr().out
    assert "statements:     5" in out
    assert "tables:         1" in out


def test_analyze(capsys):
    assert main(["analyze", "corpus:fig5"]) == 0
    out = capsys.readouterr().out
    assert "program points:" in out
    assert "analysis time:" in out


def test_analyze_dump_points(capsys):
    assert main(["analyze", "corpus:fig5", "--dump-points"]) == 0
    out = capsys.readouterr().out
    assert "|Fig5Ingress.port_table.action|" in out


def test_specialize_without_config_removes_empty_table(capsys):
    assert main(["specialize", "corpus:fig3"]) == 0
    captured = capsys.readouterr()
    assert "eth_table" not in captured.out
    assert "specializations" in captured.err


def test_specialize_with_config(tmp_path, capsys):
    config = {
        "tables": {
            "Fig3Ingress.eth_table": [
                {
                    "match": [{"ternary": ["0x2", "0xFFFFFFFFFFFF"]}],
                    "action": "set",
                    "args": ["0x900"],
                    "priority": 10,
                }
            ]
        }
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp_path / "specialized.p4"
    assert main([
        "specialize", "corpus:fig3",
        "--config", str(config_path),
        "--output", str(out_path),
    ]) == 0
    text = out_path.read_text()
    assert "hdr.eth.dst: exact;" in text  # narrowed by the full mask
    assert "drop" not in text

    # The emitted program must parse.
    from repro.p4.parser import parse_program

    parse_program(text)


def test_specialize_stats_prints_cache_counters(tmp_path, capsys):
    config = {
        "tables": {
            "Fig3Ingress.eth_table": [
                {
                    "match": [{"ternary": ["0x2", "0xFFFFFFFFFFFF"]}],
                    "action": "set",
                    "args": ["0x900"],
                    "priority": 10,
                }
            ]
        }
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    assert main([
        "specialize", "corpus:fig3", "--config", str(config_path), "--stats",
    ]) == 0
    err = capsys.readouterr().err
    # The config decision's record, then the three counter blocks.
    assert "# config: RECOMPILE: batch of 1 updates" in err
    assert "cache statistics" in err
    for layer in ("substitution", "solver-memo", "cnf-fragments", "active-entries"):
        assert layer in err
    assert "# solver statistics:" in err and "# gate statistics:" in err
    assert re.search(r"probes: \d+ \(mean \d+ us, total [\d.]+ ms\)", err)
    assert "pipeline events" not in err and "p50" not in err
    assert "# prune" not in err  # no cold pass reports beside the specializer


def test_specialize_config_is_decided_as_one_burst(tmp_path, capsys):
    """--config goes through the burst scheduler as one decision, and a
    second run writes the same program."""
    config = {
        "tables": {
            "Fig3Ingress.eth_table": [
                {
                    "match": [{"ternary": ["0x2", "0xFFFFFFFFFFFF"]}],
                    "action": "set",
                    "args": ["0x900"],
                    "priority": 10,
                }
            ]
        }
    }
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for _ in range(2):
        out_path = tmp_path / "specialized.p4"
        assert main([
            "specialize", "corpus:fig3",
            "--config", str(config_path),
            "--output", str(out_path),
        ]) == 0
        outputs.append(out_path.read_text())
        err = capsys.readouterr().err
        assert "batch of 1 updates (1 after coalescing, 1 conflict groups)" in err
    assert outputs[0] == outputs[1]


def test_specialize_effort_none(capsys):
    assert main(["specialize", "corpus:fig3", "--effort", "none"]) == 0
    out = capsys.readouterr().out
    assert "eth_table" in out  # untouched


def test_compile_tofino(capsys):
    assert main(["compile", "corpus:fig5", "--target", "tofino", "--stages"]) == 0
    out = capsys.readouterr().out
    assert "modeled" in out
    assert "stage  0" in out


def test_compile_bmv2(capsys):
    assert main(["compile", "corpus:fig5", "--target", "bmv2"]) == 0
    assert "bmv2" in capsys.readouterr().out


def test_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    for name in ("scion", "switch", "middleblock", "dash"):
        assert name in out


def test_program_from_file(tmp_path, capsys):
    from repro.programs.fig3 import source

    path = tmp_path / "prog.p4"
    path.write_text(source())
    assert main(["stats", str(path)]) == 0
    assert "statements" in capsys.readouterr().out


def test_lint_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", "corpus:scion"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", ["--no-fdd-gate", "--no-table-verdict-cache", "--no-prune"]
)
def test_removed_ablation_flags_are_rejected_by_argparse(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["specialize", "corpus:fig3", flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
