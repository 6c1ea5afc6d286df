"""The serving scenario's acceptance properties: speedup, zero stale."""

import pytest

from repro.emulator import ServingScenarioConfig, run_serving_scenario
from repro.hashing import make_table

#: Small but honest shape: enough requests for stable rates and a
#: meaningful churn epoch, small enough for CI.
FAST = ServingScenarioConfig(
    requests=4_000,
    preload=2_000,
    initial_servers=6,
    seed=2,
)


@pytest.fixture(scope="module")
def result():
    return run_serving_scenario(lambda: make_table("rendezvous", seed=5), FAST)


class TestThroughput:
    def test_batched_sustains_5x_over_scalar(self, result):
        assert result.speedup >= 5.0

    def test_latency_percentiles_populated(self, result):
        snapshot = result.snapshot
        assert 0.0 < snapshot.p50_ms <= snapshot.p99_ms
        assert snapshot.batches > 0
        assert snapshot.mean_batch > 1.0

    def test_scalar_pass_measured(self, result):
        assert result.scalar_throughput_rps > 0
        assert 0.0 < result.scalar_p50_ms <= result.scalar_p99_ms


class TestCorrectness:
    def test_zero_stale_reads_batched_and_scalar(self, result):
        assert result.stale_reads == 0
        assert result.scalar_stale_reads == 0
        assert result.zero_stale

    def test_churn_invalidation_exact_no_flush(self, result):
        churn = result.churn
        assert churn is not None
        assert churn.flushes == 0
        assert churn.evicted == churn.overlap
        assert churn.exact and churn.coherent
        assert result.invalidation_exact

    def test_churn_epoch_moved_something(self, result):
        # a join over a tracked population must remap a nonzero subset
        assert result.churn.moved_keys > 0
        assert 0 < result.churn.cached_before

    def test_hit_rate_recovers_after_churn(self, result):
        assert len(result.hit_rate_windows) >= 2
        assert result.hit_rate_recovered

    def test_describe_summarises(self, result):
        text = result.describe()
        assert "speedup" in text and "churn" in text


class TestConfigVariants:
    def test_no_churn_run(self):
        config = ServingScenarioConfig(
            requests=600, preload=300, initial_servers=4, churn_at=None, seed=3
        )
        result = run_serving_scenario(lambda: make_table("consistent", seed=4), config)
        assert result.churn is None
        assert result.invalidation_exact  # vacuously
        assert result.stale_reads == 0

    def test_same_seed_same_churn(self):
        # Batches close on the emulated arrival clock, not on measured
        # service time, so the seed alone fixes what the cache holds
        # when the epoch lands and what it evicts.
        config = ServingScenarioConfig(
            requests=600, preload=300, initial_servers=4, seed=3
        )
        runs = [
            run_serving_scenario(lambda: make_table("consistent", seed=4), config)
            for __ in range(2)
        ]
        assert runs[0].churn is not None and runs[0].churn.moved_keys > 0
        assert runs[0].churn == runs[1].churn
        assert runs[0].hit_rate_windows == runs[1].hit_rate_windows

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one request"):
            run_serving_scenario(
                lambda: make_table("consistent", seed=4),
                ServingScenarioConfig(requests=0),
            )
