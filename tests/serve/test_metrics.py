"""Tests for the serving metrics accumulator and snapshot."""

from collections import deque

import numpy as np
import pytest

from repro.serve import ServingMetrics


class TestOps:
    def test_requests_sums_verbs(self):
        metrics = ServingMetrics()
        metrics.observe_ops(gets=3, puts=2, deletes=1)
        assert metrics.requests == 6
        assert (metrics.gets, metrics.puts, metrics.deletes) == (3, 2, 1)


class TestBatches:
    def test_histogram_buckets_are_powers_of_two(self):
        metrics = ServingMetrics()
        for size in (1, 2, 3, 4, 5, 200, 256):
            metrics.observe_batch(size)
        histogram = metrics.batch_histogram()
        # bucket 2**b counts sizes in (2**(b-1), 2**b]
        assert histogram[1] == 1
        assert histogram[2] == 1
        assert histogram[4] == 2
        assert histogram[8] == 1
        assert histogram[256] == 2

    def test_zero_size_batches_ignored(self):
        metrics = ServingMetrics()
        metrics.observe_batch(0)
        assert metrics.batches == 0

    def test_mean_and_max(self):
        metrics = ServingMetrics()
        metrics.observe_batch(10, busy_seconds=0.5)
        metrics.observe_batch(30, busy_seconds=0.5)
        snapshot = metrics.snapshot()
        assert snapshot.mean_batch == 20.0
        assert snapshot.max_batch == 30


class TestLatencies:
    def test_percentiles_in_seconds(self):
        metrics = ServingMetrics()
        metrics.observe_latencies([0.001] * 99 + [0.1])
        p50, p99 = metrics.latency_percentiles(50.0, 99.0)
        assert p50 == pytest.approx(0.001)
        assert p99 >= 0.001

    def test_no_samples_is_zero(self):
        metrics = ServingMetrics()
        assert metrics.latency_percentiles(50.0, 99.0) == (0.0, 0.0)

    def test_sample_pool_is_capped_and_keeps_the_newest(self):
        metrics = ServingMetrics(max_samples=10)
        metrics.observe_latencies([1.0] * 8)
        metrics.observe_latencies([2.0] * 8)  # wraps: the oldest 6 go
        assert metrics._samples == 10
        assert metrics.latency_percentiles(0.0, 50.0) == (1.0, 2.0)
        # A late shift in latency moves p50 once it fills half the pool.
        metrics.observe_latencies([3.0] * 6)
        assert metrics._samples == 10
        assert metrics.latency_percentiles(50.0) == (3.0,)

    def test_pool_is_the_newest_samples_across_wraps(self):
        rng = np.random.default_rng(5)
        metrics = ServingMetrics(max_samples=37)
        newest = deque(maxlen=37)
        for __ in range(200):
            # Up to 59 samples: some calls alone overflow the pool.
            batch = rng.random(int(rng.integers(0, 60)))
            metrics.observe_latencies(batch)
            newest.extend(batch.tolist())
            expected = [float(np.percentile(list(newest), q)) for q in (0, 50, 100)]
            assert metrics.latency_percentiles(0.0, 50.0, 100.0) == tuple(expected)


class TestSnapshot:
    def test_throughput_is_requests_per_busy_second(self):
        metrics = ServingMetrics()
        metrics.observe_ops(gets=100)
        metrics.observe_batch(100, busy_seconds=0.5)
        assert metrics.snapshot().throughput_rps == pytest.approx(200.0)

    def test_hit_rate_and_invalidation_accounting(self):
        metrics = ServingMetrics()
        metrics.observe_cache(hits=3, misses=1)
        metrics.observe_invalidation(5)
        metrics.observe_invalidation(7, flush=True)
        snapshot = metrics.snapshot()
        assert snapshot.hit_rate == pytest.approx(0.75)
        assert snapshot.invalidated_keys == 12
        assert snapshot.cache_flushes == 1

    def test_describe_mentions_the_headline_numbers(self):
        metrics = ServingMetrics()
        metrics.observe_ops(gets=4)
        metrics.observe_batch(4, busy_seconds=0.001)
        text = metrics.snapshot().describe()
        assert "4 requests" in text and "p99" in text
