"""The benchmark-artifact validator, and the committed artifacts themselves."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

from check_bench import SPECS, check_file, main  # noqa: E402


def _write(tmp_path: Path, name: str, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _good_bench9(tmp_path: Path) -> dict:
    payload = {key: 1.0 for key in SPECS["BENCH_9.json"]["required"]}
    payload["restore_speedup_vs_cold"] = 5.0
    payload["restore_speedup_vs_cold_floor"] = 3.0
    return payload


class TestCheckFile:
    def test_accepts_valid_artifact(self, tmp_path):
        path = _write(tmp_path, "BENCH_9.json", _good_bench9(tmp_path))
        assert check_file(path) == []

    def test_missing_required_key(self, tmp_path):
        payload = _good_bench9(tmp_path)
        del payload["storm_p99_ms"]
        path = _write(tmp_path, "BENCH_9.json", payload)
        assert any("storm_p99_ms" in p for p in check_file(path))

    def test_metric_below_floor(self, tmp_path):
        payload = _good_bench9(tmp_path)
        payload["restore_speedup_vs_cold"] = 2.0  # floor is 3.0
        path = _write(tmp_path, "BENCH_9.json", payload)
        assert any("below its floor" in p for p in check_file(path))

    def test_floor_without_metric(self, tmp_path):
        payload = _good_bench9(tmp_path)
        payload["orphan_floor"] = 1.0
        path = _write(tmp_path, "BENCH_9.json", payload)
        assert any("no matching metric" in p for p in check_file(path))

    def test_non_numeric_metric(self, tmp_path):
        payload = _good_bench9(tmp_path)
        payload["storm_p99_ms"] = "fast"
        path = _write(tmp_path, "BENCH_9.json", payload)
        assert any("should be numeric" in p for p in check_file(path))

    def test_false_parity_flag(self, tmp_path):
        payload = {key: 1.0 for key in SPECS["BENCH_8.json"]["required"]}
        payload["scion_strict_refines"] = True
        payload["switch_strict_refines"] = False
        path = _write(tmp_path, "BENCH_8.json", payload)
        assert any("must be true" in p for p in check_file(path))

    def test_unregistered_artifact(self, tmp_path):
        path = _write(tmp_path, "BENCH_99.json", {"x": 1})
        assert any("no spec registered" in p for p in check_file(path))

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "BENCH_9.json"
        path.write_text("{not json")
        assert any("unreadable" in p for p in check_file(str(path)))


class TestMain:
    def test_exit_codes(self, tmp_path):
        good = _write(tmp_path, "BENCH_9.json", _good_bench9(tmp_path))
        assert main([good]) == 0
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        bad_payload = _good_bench9(tmp_path)
        bad_payload["restore_speedup_vs_cold"] = 0.5
        bad = _write(bad_dir, "BENCH_9.json", bad_payload)
        assert main([bad]) == 1

    def test_no_artifacts_fails(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([]) == 1


class TestCommittedArtifacts:
    def test_committed_artifacts_validate(self):
        # The real gate CI runs: every committed BENCH_*.json must meet
        # its own schema and embedded floors.
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_bench.py")],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stdout + result.stderr
