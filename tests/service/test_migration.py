"""The migration engine: delta planning, throttled execution, resume."""

import numpy as np
import pytest

from repro.errors import MigrationError
from repro.hashing import make_table, registered_algorithms
from repro.service import (
    ClusterRouter,
    MigrationExecutor,
    MigrationPlan,
    Router,
)
from repro.store import DataPlane

#: Constructor overrides keeping the expensive tables test-sized.
LIGHT_CONFIGS = {
    "hd": {"dim": 1_024, "codebook_size": 128},
    "maglev": {"table_size": 509},
}


def light_table(name, seed=5):
    return make_table(name, seed=seed, **LIGHT_CONFIGS.get(name, {}))


def populated_plane(algorithm="modular", servers=12, keys=3_000, seed=5):
    router = Router(light_table(algorithm, seed=seed))
    router.sync("srv-{:02d}".format(i) for i in range(servers))
    plane = DataPlane(router)
    key_array = np.arange(keys, dtype=np.int64)
    plane.put_many(key_array, ["value-{}".format(k) for k in key_array])
    plane.track()
    return plane, key_array


class TestPlanAccountingAgreement:
    """The plan and the epoch record must come from one diff."""

    @pytest.mark.parametrize("name", registered_algorithms())
    def test_plan_matches_record_bit_exactly(self, name):
        probe = np.arange(2_000, dtype=np.int64)
        router = Router(light_table(name), probe_keys=probe)
        router.sync("srv-{:02d}".format(i) for i in range(12))
        for target in (13, 10):  # one grow epoch, one shrink epoch
            record, plan = router.sync(
                "srv-{:02d}".format(i) for i in range(target)
            )
            assert plan.total_keys == record.probes_moved
            assert len(plan.moves) == record.probes_moved
            assert plan.tracked == probe.size
            assert (
                len(plan.moves) / plan.tracked == record.remap_fraction
            )
            assert plan.moved_fraction == record.remap_fraction
            assert plan.epoch == record.epoch
            # every move names two distinct, real endpoints
            for move in plan.moves:
                assert move.source != move.destination

    def test_grow_moves_land_on_newcomers_for_minimal_algorithms(self):
        probe = np.arange(2_000, dtype=np.int64)
        router = Router(light_table("consistent"), probe_keys=probe)
        router.sync("srv-{:02d}".format(i) for i in range(12))
        __, plan = router.sync(
            ["srv-{:02d}".format(i) for i in range(12)] + ["newcomer"]
        )
        assert not plan.is_empty
        assert {move.destination for move in plan.moves} == {"newcomer"}

    def test_untracked_router_emits_empty_plan(self):
        router = Router(light_table("modular"))
        record, plan = router.sync(["a", "b"])
        assert plan.is_empty
        assert plan.tracked == 0
        assert plan.moved_fraction == 0.0


class TestMigrationPlan:
    def test_batches_group_by_source_destination(self):
        plane, keys = populated_plane("modular", servers=8)
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(9))
        pairs = list(plan.pair_counts())
        assert len(pairs) == len(set(pairs))  # one batch per pair
        assert sum(plan.pair_counts().values()) == plan.total_keys
        for batch in plan.batches:
            assert batch.source != batch.destination
            assert len(batch) == len(set(batch.keys))

    def test_merge_concatenates_and_sums_tracked(self):
        a = MigrationPlan(tracked=10, batches=(), epoch=1)
        b = MigrationPlan(tracked=5, batches=(), epoch=2)
        merged = MigrationPlan.merge([a, b])
        assert merged.tracked == 15
        assert merged.epoch is None
        assert MigrationPlan.merge([a, b], tracked=100).tracked == 100


class TestMigrationExecutor:
    def test_executes_to_completion_and_verifies(self):
        plane, keys = populated_plane("consistent")
        record, plan = plane.router.sync(
            "srv-{:02d}".format(i) for i in range(13)
        )
        executor = MigrationExecutor(plan, plane, max_keys_per_tick=128)
        status = executor.run()
        assert status.done
        assert status.committed == plan.total_keys == record.probes_moved
        assert executor.verify() == status.committed
        __, found = plane.get_many(keys)
        assert found.all()

    def test_throttle_bounds_keys_per_tick(self):
        plane, __ = populated_plane("modular")
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(13))
        executor = MigrationExecutor(plan, plane, max_keys_per_tick=100)
        before = executor.status.committed
        status = executor.tick()
        assert status.committed - before <= 100
        assert not status.done

    def test_byte_throttle_admits_at_least_one_key(self):
        plane, __ = populated_plane("consistent", keys=500)
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(13))
        executor = MigrationExecutor(
            plan, plane, max_keys_per_tick=1_000, max_bytes_per_tick=1
        )
        status = executor.tick()
        assert status.committed == 1  # progress is guaranteed
        assert executor.run().done

    def test_byte_throttle_bounds_each_tick(self):
        # When every item fits the budget, a tick must not exceed it
        # (the >= 1 key escape hatch is only for oversized items).
        plane, __ = populated_plane("consistent", keys=500)
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(13))
        per_item = plane.store(plan.batches[0].source).item_bytes(
            plan.batches[0].keys[0]
        )
        executor = MigrationExecutor(
            plan,
            plane,
            max_keys_per_tick=1_000,
            max_bytes_per_tick=3 * per_item,
        )
        before = executor.status.bytes_copied
        status = executor.tick()
        assert status.bytes_copied - before <= 3 * per_item

    def test_mixed_type_keys_migrate_without_loss(self):
        # np.asarray would coerce a mixed int/str population to
        # strings; the plan would then name keys the stores never held
        # (all skipped) and the real keys would strand at old owners.
        router = Router(light_table("modular"))
        router.sync("srv-{:02d}".format(i) for i in range(12))
        plane = DataPlane(router)
        mixed = ["user:{}".format(i) if i % 2 else i for i in range(200)]
        for key in mixed:
            plane.put(key, repr(key))
        plane.track()
        __, plan = router.sync("srv-{:02d}".format(i) for i in range(6))
        assert plan.total_keys > 50  # the resize genuinely moved keys
        assert {type(move.key) for move in plan.moves} == {int, str}
        status = MigrationExecutor(plan, plane).run()
        assert status.skipped == 0
        assert status.committed == plan.total_keys
        for key in mixed:
            assert plane.get(key) == repr(key)

    def test_deleted_keys_are_skipped_not_lost(self):
        plane, __ = populated_plane("consistent", keys=800)
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(13))
        victim = plan.moves[0]
        plane.store(victim.source).delete(victim.key)
        status = MigrationExecutor(plan, plane).run()
        assert status.done
        assert status.skipped == 1
        assert status.committed == plan.total_keys - 1

    def test_interrupt_and_resume_with_fresh_executor(self):
        # Acceptance: interrupt mid-plan, resume from the exported
        # remainder, final ownership verified.
        plane, keys = populated_plane("modular")
        record, plan = plane.router.sync(
            "srv-{:02d}".format(i) for i in range(14)
        )
        assert plan.total_keys > 300
        first = MigrationExecutor(plan, plane, max_keys_per_tick=75)
        for __ in range(3):  # ...interrupted after three ticks
            first.tick()
        assert not first.status.done
        remainder = first.remaining_plan()
        assert (
            remainder.total_keys
            == plan.total_keys - first.status.committed
        )
        second = MigrationExecutor(remainder, plane, max_keys_per_tick=75)
        status = second.run()
        assert status.done
        assert (
            first.status.committed + status.committed == plan.total_keys
        )
        assert first.verify() == first.status.committed
        assert second.verify() == status.committed
        __, found = plane.get_many(keys)
        assert found.all()

    def test_resume_same_executor_after_pause(self):
        plane, keys = populated_plane("consistent")
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(13))
        executor = MigrationExecutor(plan, plane, max_keys_per_tick=60)
        executor.run(max_ticks=2)  # paused
        paused = executor.status
        assert 0 < paused.committed < plan.total_keys
        assert executor.run().done  # resumed on the same cursor
        __, found = plane.get_many(keys)
        assert found.all()

    def test_rerunning_a_committed_plan_only_skips(self):
        plane, __ = populated_plane("consistent", keys=600)
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(13))
        MigrationExecutor(plan, plane).run()
        again = MigrationExecutor(plan, plane).run()
        assert again.done
        assert again.committed == 0
        assert again.skipped == plan.total_keys

    def test_ownership_verification_catches_stale_plan(self):
        plane, __ = populated_plane("consistent", keys=600)
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(13))
        executor = MigrationExecutor(plan, plane)
        executor.run()
        # A later epoch reroutes keys; the executed plan's destinations
        # are no longer current owners for (at least some) moved keys.
        plane.router.sync("srv-{:02d}".format(i) for i in range(8))
        with pytest.raises(MigrationError):
            executor.verify()

    @pytest.mark.parametrize("name", registered_algorithms())
    def test_verification_ignores_the_avoid_set(self, name):
        # Ownership is where writes land: a destination flagged
        # suspect after the move still owns the keys it received.
        plane, __ = populated_plane(name, keys=1_500)
        __, plan = plane.router.sync("srv-{:02d}".format(i) for i in range(13))
        executor = MigrationExecutor(plan, plane)
        status = executor.run()
        assert status.committed == plan.total_keys > 0
        plane.router.avoid(plan.batches[0].destination)
        assert executor.verify() == status.committed

    def test_invalid_throttles_rejected(self):
        plane, __ = populated_plane("consistent", keys=10)
        plan = MigrationPlan(tracked=0, batches=())
        with pytest.raises(ValueError):
            MigrationExecutor(plan, plane, max_keys_per_tick=0)
        with pytest.raises(ValueError):
            MigrationExecutor(plan, plane, max_bytes_per_tick=0)


class TestClusterMigration:
    def test_10k_key_round_trip_through_grow_and_shrink(self):
        # Acceptance: a 10k-key DataPlane over a ClusterRouter survives
        # a grow and a shrink with every key readable afterwards.
        cluster = ClusterRouter("consistent", n_shards=4, seed=9)
        cluster.sync("srv-{:02d}".format(i) for i in range(12))
        plane = DataPlane(cluster)
        keys = np.arange(10_000, dtype=np.int64)
        plane.put_many(keys, keys)
        plane.track()
        for target in (16, 10):
            result = cluster.sync(
                "srv-{:02d}".format(i) for i in range(target)
            )
            assert result.plan.total_keys == result.record.probes_moved > 0
            status = MigrationExecutor(
                result.plan, plane, max_keys_per_tick=512
            ).run()
            assert status.done
            assert status.committed == result.plan.total_keys
            __, found = plane.get_many(keys)
            assert found.all()
        assert plane.key_count == keys.size

    def test_restore_shard_plan_rescues_stranded_keys(self):
        cluster = ClusterRouter("modular", n_shards=3, seed=9)
        cluster.sync("srv-{:02d}".format(i) for i in range(10))
        plane = DataPlane(cluster)
        keys = np.arange(4_000, dtype=np.int64)
        plane.put_many(keys, keys)
        plane.track()
        saved = cluster.snapshot_shard(1)
        # The shard diverges *and its data follows*: executing the
        # divergence epoch's plan moves shard-1 keys to the new owners.
        result = cluster.shards[1].sync("srv-{:02d}".format(i) for i in range(6))
        MigrationExecutor(result.plan, plane).run()
        __, found = plane.get_many(keys)
        assert found.all()
        # Swapping the snapshot back reroutes those keys again; the
        # emitted plan is exactly the rescue migration.
        __, plan = cluster.restore_shard(1, saved)
        assert plan.total_keys == result.plan.total_keys
        status = MigrationExecutor(plan, plane).run()
        assert status.done
        __, found = plane.get_many(keys)
        assert found.all()
