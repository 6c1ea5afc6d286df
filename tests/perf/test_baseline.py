"""Unit tests for the BENCH_throughput.json schema and regression gate.

These run on synthetic reports (no timing), so they belong to tier-1;
the measured suite lives in ``benchmarks/perf``.
"""

from __future__ import annotations

import copy
from pathlib import Path

import pytest

from repro.perf import (
    SCHEMA_VERSION,
    compare_reports,
    format_report,
    load_report,
    save_report,
)
from repro.perf.baseline import METRICS, Regression, coverage_drift
from repro.perf.profiles import PERF_PROFILES, perf_profile

REPO_ROOT = Path(__file__).resolve().parents[2]


def _record(scale: float) -> dict:
    record = {"servers": 16, "batch_words": 8_192, "config": {}}
    for rank, metric in enumerate(METRICS, start=1):
        record[metric.section] = {
            metric.rate: 1e6 * rank * scale,
            "normalized": 0.2 * rank * scale,
        }
    return record


def _report(**scales) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "repro-throughput",
        "profile": "fast",
        "seed": 0,
        "python": "3.11",
        "numpy": "2.0",
        "calibration": {"xor_popcount_gbps": 5.0},
        "algorithms": {name: _record(scale) for name, scale in scales.items()},
    }


class TestArtifactIO:
    def test_roundtrip(self, tmp_path):
        report = _report(hd=1.0, modular=1.0)
        path = str(tmp_path / "BENCH_throughput.json")
        save_report(report, path)
        assert load_report(path) == report

    def test_schema_mismatch_rejected(self, tmp_path):
        report = _report(hd=1.0)
        report["schema"] = SCHEMA_VERSION + 1
        path = str(tmp_path / "bad.json")
        save_report(report, path)
        with pytest.raises(ValueError):
            load_report(path)

    def test_missing_algorithms_rejected(self, tmp_path):
        path = str(tmp_path / "empty.json")
        save_report({"schema": SCHEMA_VERSION}, path)
        with pytest.raises(ValueError):
            load_report(path)


class TestRegressionGate:
    def test_identical_reports_pass(self):
        report = _report(hd=1.0, jump=1.0)
        assert compare_reports(report, report) == []

    def test_drop_beyond_tolerance_flagged_per_metric(self):
        baseline = _report(hd=1.0, jump=1.0)
        current = copy.deepcopy(baseline)
        current["algorithms"]["hd"] = _record(0.4)  # -60 % on all metrics
        regressions = compare_reports(current, baseline, tolerance=0.30)
        assert {(r.algorithm, r.metric) for r in regressions} == {
            ("hd", metric.section) for metric in METRICS
        }
        for regression in regressions:
            assert regression.ratio == pytest.approx(0.4)
            assert "hd/" in regression.describe()

    @pytest.mark.parametrize(
        "metric",
        [metric for metric in METRICS if metric.wide],
        ids=lambda metric: metric.section,
    )
    def test_wide_tier_gets_a_wider_tolerance(self, metric):
        # Wide-tier blocks scatter ~2x run to run; a -45 % drop is
        # noise (within CHURN_TOLERANCE), -55 % is a regression.
        baseline = _report(hd=1.0)
        noisy = copy.deepcopy(baseline)
        noisy["algorithms"]["hd"][metric.section]["normalized"] *= 0.55
        assert compare_reports(noisy, baseline, tolerance=0.30) == []
        broken = copy.deepcopy(baseline)
        broken["algorithms"]["hd"][metric.section]["normalized"] *= 0.45
        regressions = compare_reports(broken, baseline, tolerance=0.30)
        assert [(r.algorithm, r.metric) for r in regressions] == [
            ("hd", metric.section)
        ]

    @pytest.mark.parametrize(
        "metric",
        [metric for metric in METRICS if not metric.wide],
        ids=lambda metric: metric.section,
    )
    def test_other_metrics_get_the_given_tolerance(self, metric):
        baseline = _report(hd=1.0)
        current = copy.deepcopy(baseline)
        current["algorithms"]["hd"][metric.section]["normalized"] *= 0.65
        regressions = compare_reports(current, baseline, tolerance=0.30)
        assert [(r.algorithm, r.metric) for r in regressions] == [
            ("hd", metric.section)
        ]

    def test_drop_within_tolerance_passes(self):
        baseline = _report(hd=1.0)
        current = _report(hd=0.75)  # -25 % < 30 % tolerance
        assert compare_reports(current, baseline, tolerance=0.30) == []

    def test_improvement_never_flags(self):
        baseline = _report(hd=1.0)
        current = _report(hd=5.0)
        assert compare_reports(current, baseline) == []

    def test_profile_mismatch_rejected(self):
        baseline = _report(hd=1.0)
        current = copy.deepcopy(baseline)
        current["profile"] = "bench"
        with pytest.raises(ValueError):
            compare_reports(current, baseline)

    def test_bad_tolerance_rejected(self):
        report = _report(hd=1.0)
        with pytest.raises(ValueError):
            compare_reports(report, report, tolerance=1.5)

    def test_missing_algorithm_is_drift_not_regression(self):
        baseline = _report(hd=1.0, jump=1.0)
        current = _report(hd=1.0)
        assert compare_reports(current, baseline) == []
        missing, added = coverage_drift(current, baseline)
        assert missing == ("jump",)
        assert added == ()

    def test_ratio_of_zero_baseline(self):
        regression = Regression("hd", "route", baseline=0.0, current=1.0)
        assert regression.ratio == float("inf")


class TestMetricTable:
    def test_committed_baseline_has_exactly_the_table(self):
        baseline = load_report(str(REPO_ROOT / "BENCH_throughput.json"))
        for name, record in baseline["algorithms"].items():
            sections = set(record) - {"servers", "batch_words", "config"}
            assert sections == {metric.section for metric in METRICS}, name
            for metric in METRICS:
                keys = set(record[metric.section])
                assert keys == {metric.rate, "normalized"}, (name, metric)


class TestProfilesAndFormatting:
    def test_profiles_scale_monotonically(self):
        fast, bench, full = (
            PERF_PROFILES["fast"],
            PERF_PROFILES["bench"],
            PERF_PROFILES["full"],
        )
        assert fast.servers < bench.servers < full.servers
        assert fast.batch_words < bench.batch_words < full.batch_words

    def test_unknown_profile_names_the_options(self):
        with pytest.raises(KeyError, match="fast"):
            perf_profile("warp")

    def test_config_for_returns_copy(self):
        profile = perf_profile("fast")
        config = profile.config_for("hd")
        config["dim"] = 1
        assert profile.config_for("hd")["dim"] != 1

    def test_format_report_mentions_rates(self):
        text = format_report(_report(hd=1.0))
        header, row = text.splitlines()[1:]
        assert header.split()[0] == "algorithm"
        for metric in METRICS:
            assert metric.column in header
        assert row.split() == ["hd"] + [
            "{:,.0f}".format(_record(1.0)[metric.section][metric.rate])
            for metric in METRICS
        ]
