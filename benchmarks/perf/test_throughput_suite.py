"""The throughput suite covers every algorithm and feeds the CI gate."""

from __future__ import annotations

import copy

import pytest

from repro.hashing import registered_algorithms
from repro.perf import (
    SCHEMA_VERSION,
    compare_reports,
    format_report,
    load_report,
    save_report,
)
from repro.perf.baseline import METRICS, coverage_drift


class TestSuiteCoverage:
    def test_every_registered_algorithm_is_measured(self, fast_report):
        assert set(fast_report["algorithms"]) == set(registered_algorithms())
        assert len(fast_report["algorithms"]) >= 10

    def test_report_schema(self, fast_report):
        assert fast_report["schema"] == SCHEMA_VERSION
        assert fast_report["kind"] == "repro-throughput"
        assert fast_report["profile"] == "fast"
        assert fast_report["calibration"]["xor_popcount_gbps"] > 0
        for name, record in fast_report["algorithms"].items():
            assert record["servers"] > 0
            assert record["batch_words"] > 0
            for metric in METRICS:
                section = record[metric.section]
                assert 0 < section[metric.rate] < float("inf"), (name, metric)
                assert section["normalized"] > 0, (name, metric)

    def test_format_report_lists_every_algorithm(self, fast_report):
        text = format_report(fast_report)
        for name in fast_report["algorithms"]:
            assert name in text


class TestBaselineArtifact:
    def test_save_load_roundtrip(self, fast_report, tmp_path):
        path = str(tmp_path / "BENCH_throughput.json")
        save_report(fast_report, path)
        assert load_report(path) == fast_report

    def test_load_rejects_wrong_schema(self, fast_report, tmp_path):
        path = str(tmp_path / "bad.json")
        broken = copy.deepcopy(fast_report)
        broken["schema"] = 99
        save_report(broken, path)
        with pytest.raises(ValueError):
            load_report(path)


class TestRegressionGate:
    def test_self_comparison_is_clean(self, fast_report):
        assert compare_reports(fast_report, fast_report) == []

    def test_detects_regression_beyond_tolerance(self, fast_report):
        inflated = copy.deepcopy(fast_report)
        record = inflated["algorithms"]["hd"]["route"]
        record["normalized"] *= 2.0  # baseline twice as fast -> -50 %
        regressions = compare_reports(fast_report, inflated, tolerance=0.30)
        assert [(r.algorithm, r.metric) for r in regressions] == [("hd", "route")]
        assert regressions[0].ratio == pytest.approx(0.5)

    def test_tolerates_drop_within_tolerance(self, fast_report):
        inflated = copy.deepcopy(fast_report)
        inflated["algorithms"]["hd"]["route"]["normalized"] *= 1.2  # -17 %
        assert compare_reports(fast_report, inflated, tolerance=0.30) == []

    def test_profile_mismatch_rejected(self, fast_report):
        other = copy.deepcopy(fast_report)
        other["profile"] = "bench"
        with pytest.raises(ValueError):
            compare_reports(fast_report, other)

    def test_coverage_drift_reported(self, fast_report):
        shrunk = copy.deepcopy(fast_report)
        del shrunk["algorithms"]["jump"]
        missing, added = coverage_drift(shrunk, fast_report)
        assert missing == ("jump",)
        assert added == ()
        # A vanished algorithm is drift, not a crash, in the comparison.
        assert compare_reports(shrunk, fast_report) == []
