"""Unit tests for the perf-history ledger and regression gate."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.tools.perf_history import (
    DEFAULT_TOLERANCE,
    TRACKED,
    check,
    extract_metrics,
    last_entry,
    missing,
    record,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _gateway_payload(baseline_qps=1000.0, best_qps=2500.0):
    return {
        "bench": "gateway",
        "points": [
            {"max_batch": 1, "throughput_qps": baseline_qps},
            {"max_batch": 64, "throughput_qps": best_qps * 0.8},
            {"max_batch": 64, "throughput_qps": best_qps},
        ],
    }


def _write_artifact(results: Path, bench: str, payload: dict) -> None:
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{bench}.json").write_text(json.dumps(payload))


def _write_every_tracked_artifact(results: Path) -> None:
    """Minimal artifacts for the whole manifest (a complete ledger)."""
    payloads = {
        "gateway": _gateway_payload(),
        "streaming": {"ticks": [
            {"rebuild_seconds": 3.0, "incremental_seconds": 0.25},
            {"rebuild_seconds": 1.0, "incremental_seconds": 0.25}]},
        "fine_core": {"speedup_vs_dict": 8.0},
        "cluster_recovery": {"availability": 1.0, "chaos_seconds": 1.5,
                             "control_seconds": 1.0},
    }
    assert set(payloads) == set(TRACKED)
    for bench, payload in payloads.items():
        _write_artifact(results, bench, payload)


class TestExtraction:
    def test_gateway_speedup_is_best_over_baseline(self):
        metrics = extract_metrics("gateway", _gateway_payload())
        assert metrics == {"coalescing_speedup": 2.5}

    def test_every_tracked_metric_extracts_from_real_artifacts(self):
        # The manifest must stay in sync with what the benchmarks
        # actually emit: every committed artifact must extract cleanly.
        results = REPO_ROOT / "results"
        covered = 0
        for bench in TRACKED:
            path = results / f"BENCH_{bench}.json"
            if not path.exists():
                continue
            metrics = extract_metrics(bench,
                                      json.loads(path.read_text()))
            assert all(v > 0 for v in metrics.values()), (bench, metrics)
            covered += 1
        assert covered >= 3  # the ledger genuinely tracks this repo


class TestRecord:
    def test_record_appends_jsonl_entries(self, tmp_path):
        results = tmp_path / "results"
        history = results / "history"
        _write_artifact(results, "gateway", _gateway_payload())
        first = record(results, history, label="pr1")
        assert first["gateway"]["coalescing_speedup"] == 2.5
        _write_artifact(results, "gateway",
                        _gateway_payload(best_qps=3000.0))
        record(results, history, label="pr2")
        lines = (history / "gateway.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["label"] == "pr1"
        latest = last_entry(history, "gateway")
        assert latest["label"] == "pr2"
        assert latest["metrics"]["coalescing_speedup"] == 3.0

    def test_record_skips_missing_artifacts(self, tmp_path):
        recorded = record(tmp_path / "results", tmp_path / "history")
        assert recorded == {}
        assert not (tmp_path / "history").exists() or \
            not list((tmp_path / "history").glob("*.jsonl"))


class TestCheck:
    def _seed(self, tmp_path, baseline_qps=1000.0, best_qps=2500.0):
        results = tmp_path / "results"
        history = results / "history"
        _write_artifact(results, "gateway",
                        _gateway_payload(baseline_qps, best_qps))
        record(results, history, label="seed")
        return results, history

    def test_within_tolerance_passes(self, tmp_path):
        results, history = self._seed(tmp_path)
        # 2.5 -> 2.1: a 16% drop, inside the 20% band.
        _write_artifact(results, "gateway",
                        _gateway_payload(best_qps=2100.0))
        assert check(results, history) == []

    def test_regression_past_tolerance_fails(self, tmp_path):
        results, history = self._seed(tmp_path)
        # 2.5 -> 1.8: a 28% drop on a higher-is-better metric.
        _write_artifact(results, "gateway",
                        _gateway_payload(best_qps=1800.0))
        regressions = check(results, history)
        assert len(regressions) == 1
        assert regressions[0].bench == "gateway"
        assert regressions[0].metric == "coalescing_speedup"
        assert "dropped" in regressions[0].render()

    def test_improvement_always_passes(self, tmp_path):
        results, history = self._seed(tmp_path)
        _write_artifact(results, "gateway",
                        _gateway_payload(best_qps=9000.0))
        assert check(results, history) == []

    def test_lower_is_better_direction(self, tmp_path):
        results = tmp_path / "results"
        history = results / "history"
        payload = {"availability": 1.0, "chaos_seconds": 1.0,
                   "control_seconds": 1.0}
        _write_artifact(results, "cluster_recovery", payload)
        record(results, history)
        worse = dict(payload, chaos_seconds=1.5)  # ratio 1.0 -> 1.5
        _write_artifact(results, "cluster_recovery", worse)
        regressions = check(results, history)
        assert [r.metric for r in regressions] == ["chaos_over_control"]
        assert "rose" in regressions[0].render()

    def test_no_history_is_reported_missing(self, tmp_path):
        # Nothing to compare against, so no regression — but the gate
        # must still fail: missing() names the benchmark.
        results = tmp_path / "results"
        _write_every_tracked_artifact(results)
        assert check(results, results / "history") == []
        assert missing(results, results / "history") == [
            f"{bench}: no history entry in {results / 'history'}"
            for bench in sorted(TRACKED)]

    def test_missing_artifact_is_reported(self, tmp_path):
        results = tmp_path / "results"
        history = results / "history"
        _write_every_tracked_artifact(results)
        record(results, history, label="seed")
        assert missing(results, history) == []
        (results / "BENCH_streaming.json").unlink()
        gaps = missing(results, history)
        assert len(gaps) == 1
        assert gaps[0].startswith("streaming: no artifact")

    def test_custom_tolerance(self, tmp_path):
        results, history = self._seed(tmp_path)
        _write_artifact(results, "gateway",
                        _gateway_payload(best_qps=2300.0))  # -8%
        assert check(results, history, tolerance=0.05) != []
        assert check(results, history,
                     tolerance=DEFAULT_TOLERANCE) == []


class TestCli:
    def _run(self, tmp_path, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.tools.perf_history",
             "--results", str(tmp_path / "results"),
             "--history", str(tmp_path / "results" / "history"),
             *argv],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PATH": "/usr/bin:/bin"})

    def test_record_then_check_gate(self, tmp_path):
        results = tmp_path / "results"
        _write_every_tracked_artifact(results)
        recorded = self._run(tmp_path, "record", "--label", "pr-test")
        assert recorded.returncode == 0
        assert "recorded gateway" in recorded.stdout

        clean = self._run(tmp_path, "check")
        assert clean.returncode == 0
        assert "no regressions" in clean.stdout

        _write_artifact(results, "gateway",
                        _gateway_payload(best_qps=1500.0))
        gated = self._run(tmp_path, "check")
        assert gated.returncode == 1
        assert "coalescing_speedup" in gated.stdout

    def test_check_fails_on_missing_artifact(self, tmp_path):
        results = tmp_path / "results"
        _write_every_tracked_artifact(results)
        assert self._run(tmp_path, "record").returncode == 0
        (results / "BENCH_streaming.json").unlink()
        gated = self._run(tmp_path, "check")
        assert gated.returncode == 1
        assert "missing streaming: no artifact" in gated.stdout
        assert "1 tracked benchmark(s) missing" in gated.stderr
