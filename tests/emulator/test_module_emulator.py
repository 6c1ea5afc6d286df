"""End-to-end tests for the hash-table module and emulator."""

import numpy as np
import pytest

from repro.emulator import (
    Emulator,
    HashTableModule,
    LookupRequest,
    RequestGenerator,
    TimingStats,
    UniformKeys,
)
from repro.hashing import (
    ConsistentHashTable,
    HDHashTable,
    make_table,
    registered_algorithms,
)
from repro.service import Router, RouterObserver

#: Light configs so every algorithm serves a stream in milliseconds.
LIGHT_CONFIG = {
    "hd": {"dim": 1_024, "codebook_size": 128},
    "maglev": {"table_size": 251},
}


def _hd():
    return HDHashTable(seed=1, dim=1_024, codebook_size=128)


def _factory(name):
    return lambda: make_table(name, seed=3, **LIGHT_CONFIG.get(name, {}))


def _mixed_stream(seed):
    """Every request type the buffer dispatches: joins, lookup bursts
    split across batches, join/leave churn between lookups, and a
    single lookup."""
    generator = RequestGenerator(seed=seed)
    active = ["a", "b", "c", "d", "e"]
    stream = list(generator.joins(active))
    stream += list(generator.lookups(500, burst_size=128))
    stream += list(
        generator.churn(active, ["f", "g"], events=4, lookups_between=100)
    )
    stream.append(LookupRequest(12345))
    return stream


class TestModule:
    def test_processes_standard_workload(self):
        table = ConsistentHashTable(seed=1)
        module = HashTableModule(table, batch_size=64)
        generator = RequestGenerator(seed=0)
        report = module.process(generator.standard_workload(range(8), 500))
        assert table.server_count == 8
        assert report.n_lookups == 500
        assert report.timing.n_membership_events == 8
        assert report.assignment_array.shape == (500,)
        assert set(report.assignment_array.tolist()) <= set(range(8))

    def test_vectorized_and_scalar_paths_agree(self):
        generator_a = RequestGenerator(seed=3)
        generator_b = RequestGenerator(seed=3)
        vec = HashTableModule(_hd(), batch_size=64, vectorized=True)
        scl = HashTableModule(_hd(), batch_size=64, vectorized=False)
        report_vec = vec.process(generator_a.standard_workload(range(6), 300))
        report_scl = scl.process(generator_b.standard_workload(range(6), 300))
        assert np.array_equal(
            report_vec.assignment_array, report_scl.assignment_array
        )

    def test_timing_recorded(self):
        module = HashTableModule(ConsistentHashTable(seed=1), batch_size=32)
        generator = RequestGenerator(seed=0)
        report = module.process(generator.standard_workload(range(4), 200))
        assert report.timing.lookup_seconds > 0
        assert report.timing.mean_lookup_micros > 0
        assert len(report.timing.batch_durations) == -(-200 // 32)

    def test_load_stats_sum_to_lookups(self):
        module = HashTableModule(ConsistentHashTable(seed=1), batch_size=32)
        generator = RequestGenerator(seed=0)
        report = module.process(generator.standard_workload(range(4), 200))
        assert report.load.total == 200
        assert report.load.imbalance() >= 1.0

    def test_assignment_recording_optional(self):
        module = HashTableModule(
            ConsistentHashTable(seed=1), record_assignments=False
        )
        generator = RequestGenerator(seed=0)
        report = module.process(generator.standard_workload(range(4), 100))
        assert report.assignment_array.size == 0
        assert report.n_lookups == 100

    def test_leave_requests_processed(self):
        table = ConsistentHashTable(seed=1)
        module = HashTableModule(table)
        generator = RequestGenerator(seed=0)
        stream = list(generator.joins(range(8))) + list(generator.leaves([3]))
        module.process(stream)
        assert table.server_count == 7

    @pytest.mark.parametrize("name", registered_algorithms())
    def test_paths_agree_under_churn(self, name):
        """The batch path and the one-key-at-a-time path assign every
        lookup of a churning stream to the same server."""
        vectorized = Emulator(_factory(name), batch_size=64, vectorized=True)
        scalar = Emulator(_factory(name), batch_size=64, vectorized=False)
        batch = vectorized.run_stream(_mixed_stream(seed=7))
        one_by_one = scalar.run_stream(_mixed_stream(seed=7))
        assert batch.n_lookups == one_by_one.n_lookups == 500 + 4 * 100 + 1
        assert np.array_equal(
            batch.assignment_array, one_by_one.assignment_array
        )

    def test_membership_requests_reach_router_observers(self):
        """Each join or leave request closes one router epoch, which
        the router's history records and its observers receive."""
        events = []

        class Recorder(RouterObserver):
            def on_epoch(self, result):
                record = result.record
                events.append((record.joined, record.left, record.epoch))

        router = Router(ConsistentHashTable(seed=1), observers=[Recorder()])
        module = HashTableModule(router, batch_size=32)
        generator = RequestGenerator(seed=4)
        stream = list(generator.joins(["a", "b", "c"]))
        stream += list(generator.lookups(100))
        stream += list(generator.leaves(["b"]))
        report = module.process(stream)
        assert events == [
            (("a",), (), 1),
            (("b",), (), 2),
            (("c",), (), 3),
            ((), ("b",), 4),
        ]
        assert [
            (record.joined, record.left, record.epoch)
            for record in router.history
        ] == events
        assert report.timing.n_membership_events == 4
        assert router.server_ids == ("a", "c")


class TestEmulator:
    def test_run_standard(self):
        emulator = Emulator(lambda: ConsistentHashTable(seed=2), seed=1)
        report = emulator.run_standard(range(10), 400)
        assert report.n_lookups == 400
        assert report.table_name == "consistent"

    def test_fresh_table_per_run(self):
        emulator = Emulator(lambda: ConsistentHashTable(seed=2), seed=1)
        first = emulator.run_standard(range(4), 50)
        second = emulator.run_standard(range(4), 50)
        assert np.array_equal(
            first.assignment_array, second.assignment_array
        )

    def test_run_stream_with_churn(self):
        emulator = Emulator(lambda: ConsistentHashTable(seed=2), seed=1)
        generator = RequestGenerator(seed=4)
        stream = (
            list(generator.joins(range(8)))
            + list(
                generator.churn(
                    list(range(8)), ["spare-1", "spare-2"],
                    events=6, lookups_between=25,
                )
            )
        )
        report = emulator.run_stream(stream)
        assert report.n_lookups == 150
        assert report.timing.n_membership_events == 8 + 6

    def test_distribution_plumbs_through(self):
        emulator = Emulator(lambda: ConsistentHashTable(seed=2), seed=1)
        report = emulator.run_standard(
            range(4), 300, distribution=UniformKeys(space=17)
        )
        assert report.n_lookups == 300

    @pytest.mark.parametrize("name", registered_algorithms())
    def test_seeded_stream_replays_identically(self, name):
        """Regenerating a stream from its seed and running it on a fresh
        table reproduces every assignment: the seed is the record."""
        emulator = Emulator(_factory(name), batch_size=64)
        first = emulator.run_stream(_mixed_stream(seed=11))
        replay = emulator.run_stream(_mixed_stream(seed=11))
        assert replay.n_lookups == first.n_lookups == 500 + 4 * 100 + 1
        assert (
            replay.timing.n_membership_events
            == first.timing.n_membership_events
            == 5 + 4
        )
        assert np.array_equal(first.assignment_array, replay.assignment_array)
        assert replay.load.counts == first.load.counts


class TestTimingPercentiles:
    def test_percentiles_available(self):
        module = HashTableModule(ConsistentHashTable(seed=1), batch_size=32)
        generator = RequestGenerator(seed=0)
        report = module.process(generator.standard_workload(range(4), 400))
        p50 = report.timing.batch_percentile_seconds(50)
        p99 = report.timing.batch_percentile_seconds(99)
        assert 0 < p50 <= p99

    def test_empty_timing(self):
        assert TimingStats().batch_percentile_seconds(99) == 0.0
