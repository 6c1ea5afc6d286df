"""The sharded cluster layer: partitioning, fleet sync, failover,
snapshot/restore."""

import numpy as np
import pytest

from repro.errors import StateError
from repro.hashing import make_table
from repro.service import (
    ClusterRouter,
    MembershipUpdate,
    Router,
    RouterObserver,
    dumps_state,
    loads_state,
)

HD_SPEC = {"algorithm": "hd", "config": {"dim": 1_024, "codebook_size": 128}}
FLEET = tuple("srv-{:02d}".format(index) for index in range(12))
PROBE = np.arange(10_000, dtype=np.int64)


def build(spec="consistent", n_shards=4, seed=3, probe=False):
    cluster = ClusterRouter(
        spec, n_shards=n_shards, seed=seed,
        probe_keys=PROBE if probe else None,
    )
    cluster.sync(FLEET)
    return cluster


class TestConstruction:
    def test_spec_and_factory_agree(self):
        by_spec = build("consistent")
        by_factory = ClusterRouter(
            lambda: make_table("consistent", seed=3), n_shards=4
        )
        by_factory.sync(FLEET)
        keys = np.arange(2_000)
        assert list(by_spec.route_batch(keys)) == list(
            by_factory.route_batch(keys)
        )

    def test_mismatched_factory_seeds_rejected(self):
        seeds = iter([1, 2, 3, 4])
        with pytest.raises(ValueError, match="seed"):
            ClusterRouter(
                lambda: make_table("modular", seed=next(seeds)), n_shards=4
            )

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ClusterRouter("modular", n_shards=0)

    def test_repr_names_algorithm_and_shards(self):
        cluster = build()
        assert "consistent" in repr(cluster)
        assert "shards=4" in repr(cluster)


class TestShardPartitioning:
    def test_every_shard_owns_traffic(self):
        cluster = build()
        owners = cluster.shards_of_words(
            cluster.words_of_keys(np.arange(5_000))
        )
        assert set(np.unique(owners).tolist()) == set(range(4))

    def test_scalar_and_vector_shard_assignment_agree(self):
        cluster = build()
        keys = np.arange(500)
        owners = cluster.shards_of_words(cluster.words_of_keys(keys))
        for index in range(0, 500, 61):
            assert cluster.shard_of(int(keys[index])) == owners[index]

    def test_route_batch_matches_scalar_route(self):
        cluster = build(HD_SPEC)
        keys = np.arange(1_000)
        batch = cluster.route_batch(keys)
        for index in range(0, 1_000, 103):
            assert cluster.route(int(keys[index])) == batch[index]

    def test_replica_batch_matches_scalar(self):
        cluster = build()
        keys = np.arange(300)
        batch = cluster.route_replicas_batch(keys, 3)
        assert batch.shape == (300, 3)
        for index in (0, 150, 299):
            assert tuple(batch[index]) == cluster.route_replicas(
                int(keys[index]), 3
            )
        assert list(batch[:, 0]) == list(cluster.route_batch(keys))


class TestFleetMembership:
    def test_sync_advances_every_shard_epoch(self):
        cluster = build()
        assert cluster.epochs == (1, 1, 1, 1)
        cluster.sync(FLEET[:10])
        assert cluster.epochs == (2, 2, 2, 2)
        assert cluster.server_counts == (10, 10, 10, 10)
        assert len(cluster) == 10

    def test_noop_sync_keeps_epochs(self):
        cluster = build()
        record, plan = cluster.sync(FLEET)
        assert cluster.epochs == (1, 1, 1, 1)
        assert record.records == (None, None, None, None)
        assert plan.is_empty

    def test_join_leave_apply_fleet_wide(self):
        cluster = build()
        cluster.join("late")
        assert all(count == 13 for count in cluster.server_counts)
        cluster.leave("late")
        assert all(count == 12 for count in cluster.server_counts)
        cluster.apply(MembershipUpdate(joins=("a", "b"), leaves=(FLEET[0],)))
        assert all(count == 13 for count in cluster.server_counts)

    def test_cluster_remap_accounting_aggregates_shards(self):
        cluster = build(probe=True)
        record, plan = cluster.sync(FLEET[:11])
        per_shard = sum(
            r.probes_moved for r in record.records if r is not None
        )
        assert record.probes_moved == per_shard > 0
        assert record.remapped == pytest.approx(per_shard / PROBE.size)
        assert 0 < record.remapped < 1
        assert cluster.history[-1] is record
        # the fleet-level plan merges the shard plans, one diff each
        assert plan.total_keys == record.probes_moved
        assert plan.tracked == PROBE.size
        assert all(
            move.source != move.destination for move in plan.moves
        )

    def test_untouched_shards_skip_epoch_close(self):
        # Declarative sync must not bill shards whose membership
        # already matches: their diff is empty, so the epoch close (a
        # full tracked-slice re-route on algorithms without the
        # delta-scoped fast path) is provably an empty delta -- skip it.
        cluster = build(probe=True)
        cluster.shards[2].sync(FLEET[:6])  # diverge one shard
        closes = [0] * cluster.n_shards
        for index in range(cluster.n_shards):
            tracker = cluster.shards[index].delta_tracker
            original = tracker.close

            def spy(*args, _original=original, _index=index, **kwargs):
                closes[_index] += 1
                return _original(*args, **kwargs)

            tracker.close = spy
        record, plan = cluster.sync(FLEET)
        # Only the diverged shard closed an epoch; its peers were
        # skipped entirely, epochs included.
        assert closes == [0, 0, 1, 0]
        assert cluster.epochs == (1, 1, 3, 1)
        assert record.records[0] is None
        assert record.records[2] is not None
        # ...and the fleet-level bill is exactly the touched shard's.
        assert record.probes_moved == record.records[2].probes_moved > 0
        assert record.remapped == pytest.approx(
            record.probes_moved / PROBE.size
        )
        assert plan.total_keys == record.probes_moved
        assert plan.tracked == PROBE.size

    def test_noop_sync_closes_nothing(self):
        cluster = build(probe=True)
        closes = [0] * cluster.n_shards
        for index in range(cluster.n_shards):
            tracker = cluster.shards[index].delta_tracker
            original = tracker.close

            def spy(*args, _original=original, _index=index, **kwargs):
                closes[_index] += 1
                return _original(*args, **kwargs)

            tracker.close = spy
        record, plan = cluster.sync(FLEET)
        assert closes == [0, 0, 0, 0]
        assert record.probes_moved == 0
        assert plan.is_empty

    def test_per_shard_divergence_is_allowed(self):
        # Draining one shard is a per-shard operation; its peers (and
        # their epochs) stay untouched.
        cluster = build()
        cluster.shards[2].sync(FLEET[:6])
        assert cluster.epochs == (1, 1, 2, 1)
        assert cluster.server_counts == (12, 12, 6, 12)
        assert len(cluster) == 12  # union still sees the whole fleet


class TestClusterSnapshot:
    def test_round_trip_is_bit_exact_on_10k_probe(self):
        # Acceptance: per-shard assignments identical before/after
        # restore, through the JSON codec, on a 10k-key probe set.
        cluster = build(HD_SPEC, probe=True)
        cluster.sync(FLEET[:11])  # some churn first
        reference = cluster.route_batch(PROBE)
        blob = dumps_state(cluster.snapshot())
        restored = ClusterRouter.restore(loads_state(blob))
        assert restored.epochs == cluster.epochs
        assert restored.n_shards == cluster.n_shards
        assert list(restored.route_batch(PROBE)) == list(reference)

    def test_restored_shards_keep_history(self):
        cluster = build(probe=True)
        cluster.sync(FLEET[:10])
        restored = ClusterRouter.restore(cluster.snapshot())
        for index in range(cluster.n_shards):
            assert (
                restored.shards[index].history
                == cluster.shards[index].history
            )

    def test_single_shard_restore_in_place(self):
        cluster = build(probe=True)
        reference = cluster.route_batch(PROBE)
        saved = cluster.snapshot_shard(1)
        cluster.shards[1].sync(FLEET[:3])  # the shard diverges...
        assert list(cluster.route_batch(PROBE)) != list(reference)
        __, plan = cluster.restore_shard(1, saved)  # ...swapped back
        assert list(cluster.route_batch(PROBE)) == list(reference)
        # the swap emits the rescue plan for the keys it rerouted --
        # exactly the shard's probes that moved when it diverged and
        # now move back.
        assert not plan.is_empty
        assert {move.key for move in plan.moves} <= set(PROBE.tolist())

    def test_restored_shard_keeps_its_observers(self):
        cluster = build(probe=True)
        epochs = []

        class Recorder(RouterObserver):
            def on_epoch(self, result):
                epochs.append(result.record.epoch)

        cluster.subscribe(Recorder())
        cluster.restore_shard(0, cluster.snapshot_shard(0))
        cluster.sync(FLEET + ("srv-new",))
        # one join epoch, closed by every shard -- the restored one too
        assert len(epochs) == cluster.n_shards

    def test_restore_shard_rejects_foreign_seed(self):
        cluster = build(seed=3)
        foreign = Router(make_table("consistent", seed=99))
        foreign.sync(FLEET)
        with pytest.raises(StateError):
            cluster.restore_shard(0, foreign.snapshot())

    def test_restore_rejects_bad_format(self):
        snapshot = build().snapshot()
        snapshot["cluster"]["format"] = 99
        with pytest.raises(StateError):
            ClusterRouter.restore(snapshot)

    def test_restore_rejects_mixed_shard_seeds(self):
        # A snapshot stitched together from clusters with different
        # hash-family seeds would silently misroute (the cluster hashes
        # with shard 0's family); restore must refuse it.
        snapshot = build(seed=3).snapshot()
        foreign = build(seed=99).snapshot()
        snapshot["shards"][1] = foreign["shards"][1]
        with pytest.raises(StateError, match="seed"):
            ClusterRouter.restore(snapshot)

    def test_cluster_history_survives_round_trip(self):
        cluster = build(probe=True)
        cluster.sync(FLEET[:10])
        cluster.sync(FLEET)
        restored = ClusterRouter.restore(
            loads_state(dumps_state(cluster.snapshot()))
        )
        assert restored.history == cluster.history
        assert restored.history[1].probes_moved > 0
