"""Tests for chi-squared and load summaries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    chi_squared_statistic,
    chi_squared_test,
    remap_fraction,
    summarize_loads,
    uniformity_chi2,
)


class TestChiSquared:
    def test_uniform_counts_zero(self):
        assert chi_squared_statistic(np.full(10, 7.0)) == 0.0

    def test_paper_formula(self):
        counts = np.asarray([12, 8, 10, 10])
        expected = 10.0  # |R| / |S| = 40 / 4
        manual = sum((c - expected) ** 2 / expected for c in counts)
        assert chi_squared_statistic(counts) == pytest.approx(manual)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1_000), min_size=2, max_size=40
        ).filter(lambda counts: sum(counts) > 0)
    )
    def test_matches_scipy(self, counts):
        from scipy.stats import chisquare

        ours = chi_squared_statistic(np.asarray(counts, dtype=float))
        scipy_stat, scipy_p = chisquare(counts)
        assert ours == pytest.approx(scipy_stat)
        __, our_p = chi_squared_test(np.asarray(counts, dtype=float))
        assert our_p == pytest.approx(scipy_p, abs=1e-9)

    def test_explicit_expected(self):
        stat = chi_squared_statistic(
            np.asarray([5.0, 15.0]), np.asarray([10.0, 10.0])
        )
        assert stat == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            chi_squared_statistic(np.asarray([-1.0, 2.0]))
        with pytest.raises(ValueError):
            chi_squared_statistic(np.empty(0))
        with pytest.raises(ValueError):
            chi_squared_statistic(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            chi_squared_statistic(np.ones(2), np.zeros(2))

    def test_uniformity_from_slots(self):
        slots = np.asarray([0, 0, 1, 2])
        manual = chi_squared_statistic(np.asarray([2.0, 1.0, 1.0, 0.0]))
        assert uniformity_chi2(slots, 4) == pytest.approx(manual)

    def test_uniformity_out_of_range(self):
        with pytest.raises(ValueError):
            uniformity_chi2(np.asarray([5]), 3)


class TestLoads:
    def test_summary_fields(self):
        summary = summarize_loads(np.asarray([1, 2, 3, 6]))
        assert summary.n_servers == 4
        assert summary.total_requests == 12
        assert summary.mean == 3.0
        assert summary.minimum == 1 and summary.maximum == 6
        assert summary.max_to_mean == pytest.approx(2.0)

    def test_remap_fraction(self):
        before = np.asarray(["a", "b", "c"], dtype=object)
        after = np.asarray(["a", "x", "c"], dtype=object)
        assert remap_fraction(before, after) == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_loads(np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            remap_fraction(np.zeros(2), np.zeros(3))
