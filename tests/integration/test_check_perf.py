"""The perf-regression gate: compares timings, fails on >2x slowdowns."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "check_perf.py"


def run_gate(baseline_dir, fresh_dir, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--baseline", str(baseline_dir),
         "--fresh", str(fresh_dir), *extra],
        capture_output=True, text=True,
    )


def write(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


BASE = {
    "results": [
        {"n": 1000, "serial_s": 1.0, "engine_seconds": {"build": 2.0},
         "peak_resident_bytes": 123456}
    ]
}


class TestCheckPerf:
    def test_clean_pass(self, tmp_path):
        write(tmp_path / "base" / "x_perf.json", BASE)
        write(tmp_path / "fresh" / "x_perf.json", BASE)
        proc = run_gate(tmp_path / "base", tmp_path / "fresh")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 regression(s)" in proc.stdout

    def test_regression_fails(self, tmp_path):
        slow = json.loads(json.dumps(BASE))
        slow["results"][0]["serial_s"] = 2.5  # 2.5x the 1.0s baseline
        write(tmp_path / "base" / "x_perf.json", BASE)
        write(tmp_path / "fresh" / "x_perf.json", slow)
        proc = run_gate(tmp_path / "base", tmp_path / "fresh")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout and "serial_s" in proc.stdout

    def test_non_timing_fields_ignored(self, tmp_path):
        changed = json.loads(json.dumps(BASE))
        changed["results"][0]["peak_resident_bytes"] = 10**9  # not a timing
        write(tmp_path / "base" / "x_perf.json", BASE)
        write(tmp_path / "fresh" / "x_perf.json", changed)
        proc = run_gate(tmp_path / "base", tmp_path / "fresh")
        assert proc.returncode == 0

    def test_absolute_floor_masks_micro_jitter(self, tmp_path):
        tiny = {"results": [{"serial_s": 0.001}]}
        jitter = {"results": [{"serial_s": 0.004}]}  # 4x but only +3ms
        write(tmp_path / "base" / "x_perf.json", tiny)
        write(tmp_path / "fresh" / "x_perf.json", jitter)
        proc = run_gate(tmp_path / "base", tmp_path / "fresh")
        assert proc.returncode == 0

    def test_nested_seconds_dict_gated(self, tmp_path):
        slow = json.loads(json.dumps(BASE))
        slow["results"][0]["engine_seconds"]["build"] = 10.0
        write(tmp_path / "base" / "x_perf.json", BASE)
        write(tmp_path / "fresh" / "x_perf.json", slow)
        proc = run_gate(tmp_path / "base", tmp_path / "fresh")
        assert proc.returncode == 1
        assert "engine_seconds.build" in proc.stdout

    def test_missing_timing_fails(self, tmp_path):
        dropped = json.loads(json.dumps(BASE))
        del dropped["results"][0]["engine_seconds"]
        write(tmp_path / "base" / "x_perf.json", BASE)
        write(tmp_path / "fresh" / "x_perf.json", dropped)
        proc = run_gate(tmp_path / "base", tmp_path / "fresh")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "engine_seconds.build missing" in proc.stdout
        assert "1 missing, 0 regression(s)" in proc.stdout

    def test_empty_fresh_dir_errors(self, tmp_path):
        write(tmp_path / "base" / "x_perf.json", BASE)
        (tmp_path / "fresh").mkdir()
        proc = run_gate(tmp_path / "base", tmp_path / "fresh")
        assert proc.returncode == 2

    def test_committed_baselines_self_compare(self, tmp_path):
        """The real committed baselines pass the gate against themselves."""
        results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
        proc = run_gate(results, results)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_zero_baseline_reports_instead_of_crashing(self, tmp_path):
        write(tmp_path / "base" / "x_perf.json", {"results": [{"query_s": 0.0}]})
        write(tmp_path / "fresh" / "x_perf.json", {"results": [{"query_s": 0.2}]})
        proc = run_gate(tmp_path / "base", tmp_path / "fresh")
        assert proc.returncode == 1
        assert "inf" in proc.stdout and "Traceback" not in proc.stderr
