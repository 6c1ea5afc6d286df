"""Tests for the Router facade: bulk membership, epochs, observers."""

import numpy as np
import pytest

from repro.errors import CapacityError, DuplicateServerError, UnknownServerError
from repro.hashing import make_table
from repro.service import MembershipUpdate, Router, RouterObserver


def consistent_router(**kwargs):
    return Router(make_table("consistent", seed=1), **kwargs)


class TestMembershipUpdate:
    def test_normalises_to_tuples(self):
        update = MembershipUpdate(joins=["a", "b"], leaves=["c"])
        assert update.joins == ("a", "b")
        assert update.leaves == ("c",)

    def test_dedups_preserving_order(self):
        update = MembershipUpdate(joins=["b", "a", "b"])
        assert update.joins == ("b", "a")

    def test_join_leave_overlap_rejected(self):
        with pytest.raises(ValueError, match="one update"):
            MembershipUpdate(joins=["a"], leaves=["a"])

    def test_is_empty(self):
        assert MembershipUpdate().is_empty
        assert not MembershipUpdate(joins=("a",)).is_empty


class TestApply:
    def test_batch_bumps_epoch_exactly_once(self):
        router = consistent_router()
        record, plan = router.apply(MembershipUpdate(joins=("a", "b", "c")))
        assert router.epoch == 1
        assert record.epoch == 1
        assert record.joined == ("a", "b", "c")
        assert router.server_ids == ("a", "b", "c")

    def test_empty_update_is_epochless_noop(self):
        router = consistent_router()
        assert router.apply(MembershipUpdate()) is None
        assert router.epoch == 0
        assert router.history == ()

    def test_mixed_batch(self):
        router = consistent_router()
        router.apply(MembershipUpdate(joins=("a", "b")))
        record, __ = router.apply(
            MembershipUpdate(joins=("c",), leaves=("a",))
        )
        assert router.epoch == 2
        assert record.left == ("a",)
        assert router.server_ids == ("b", "c")

    def test_invalid_batch_raises_without_side_effects(self):
        router = consistent_router()
        router.apply(MembershipUpdate(joins=("a",)))
        with pytest.raises(DuplicateServerError):
            router.apply(MembershipUpdate(joins=("b", "a")))
        with pytest.raises(UnknownServerError):
            router.apply(MembershipUpdate(joins=("c",), leaves=("ghost",)))
        # nothing mutated, no epoch consumed
        assert router.server_ids == ("a",)
        assert router.epoch == 1
        assert len(router.history) == 1

    def test_mid_batch_capacity_failure_rolls_back_atomically(self):
        # A 4-node circle can hold at most 4 servers, so the fifth join
        # of the batch fails *after* earlier joins already mutated.
        router = Router(make_table("hd", seed=1, dim=64, codebook_size=4))
        router.sync(["a", "b"])
        reference = router.route_batch(np.arange(500, dtype=np.uint64))
        with pytest.raises(CapacityError):
            router.sync(["a", "b", "c", "d", "e", "f"])
        assert router.server_ids == ("a", "b")
        assert router.epoch == 1
        assert len(router.history) == 1
        assert np.array_equal(
            router.route_batch(np.arange(500, dtype=np.uint64)), reference
        )
        # and the router still works after the rollback
        record = router.sync(["a", "b", "c"]).record
        assert record.epoch == 2

    def test_records_mutation_time(self):
        router = consistent_router()
        record = router.apply(MembershipUpdate(joins=("a", "b"))).record
        assert record.mutate_seconds >= 0.0

    def test_single_server_conveniences(self):
        router = consistent_router()
        router.join("a")
        router.join("b")
        router.leave("a")
        assert router.server_ids == ("b",)
        assert router.epoch == 3


class TestSync:
    def test_reaches_target_from_empty(self):
        router = consistent_router()
        record, plan = router.sync(["a", "b", "c"])
        assert router.server_ids == ("a", "b", "c")
        assert record.joined == ("a", "b", "c")
        assert record.left == ()
        assert plan.is_empty  # nothing tracked, nothing to move

    def test_minimal_diff(self):
        router = consistent_router()
        router.sync(["a", "b", "c", "d"])
        record = router.sync(["b", "c", "e"]).record
        # Only the difference moved: one join, two leaves, one epoch.
        assert record.joined == ("e",)
        assert set(record.left) == {"a", "d"}
        assert router.epoch == 2
        assert set(router.server_ids) == {"b", "c", "e"}

    def test_noop_sync_does_not_bump_epoch(self):
        router = consistent_router()
        router.sync(["a", "b"])
        assert router.sync(["a", "b"]) is None
        assert router.sync(["b", "a"]) is None  # order is not membership
        assert router.epoch == 1

    def test_sync_to_empty_drains_pool(self):
        router = consistent_router()
        router.sync(["a", "b"])
        record = router.sync([]).record
        assert router.server_count == 0
        assert set(record.left) == {"a", "b"}

    def test_diff_is_pure(self):
        router = consistent_router()
        router.sync(["a", "b"])
        update = router.diff(["b", "c"])
        assert update.joins == ("c",)
        assert update.leaves == ("a",)
        assert router.server_ids == ("a", "b")  # not applied

    def test_sync_fuzz_reaches_arbitrary_targets(self, rng):
        router = consistent_router()
        universe = list(range(40))
        for __ in range(25):
            target = [
                server_id for server_id in universe if rng.random() < 0.4
            ]
            before = router.epoch
            result = router.sync(target)
            assert set(router.server_ids) == set(target)
            if result is None:
                assert router.epoch == before
            else:
                assert router.epoch == before + 1
                # minimality: every event was strictly necessary
                record = result.record
                assert not (set(record.joined) & set(record.left))


class TestObservers:
    def test_events_fire_with_epoch(self):
        events = []

        class Recorder(RouterObserver):
            def on_epoch(self, result):
                record = result.record
                events.append(
                    (record.joined, record.left, record.epoch, record.server_count)
                )

        router = consistent_router(observers=[Recorder()])
        router.sync(["a", "b"])
        router.sync(["b", "c"])
        assert events == [
            (("a", "b"), (), 1, 2),
            (("c",), ("a",), 2, 2),
        ]

    def test_subscribe_unsubscribe(self):
        seen = []

        class Counter(RouterObserver):
            def on_epoch(self, result):
                seen.append(result.record.epoch)

        router = consistent_router()
        observer = router.subscribe(Counter())
        router.sync(["a"])
        router.unsubscribe(observer)
        router.sync(["a", "b"])
        assert seen == [1]

    def test_observer_receives_the_result_apply_returns(self):
        seen = []

        class Recorder(RouterObserver):
            def on_epoch(self, result):
                seen.append(result)

        probe = np.arange(2_000, dtype=np.uint64)
        router = consistent_router(probe_keys=probe, observers=[Recorder()])
        first = router.sync(["a", "b", "c"])
        second = router.apply(MembershipUpdate(joins=("d",), leaves=("a",)))
        assert len(seen) == 2
        assert seen[0] is first and seen[1] is second
        assert second.plan.total_keys == second.record.probes_moved > 0

    def test_every_observer_once_per_epoch_in_order(self):
        calls = []

        class Tagged(RouterObserver):
            def __init__(self, tag):
                self.tag = tag

            def on_epoch(self, result):
                calls.append((self.tag, result.record.epoch))

        router = consistent_router(observers=[Tagged("first")])
        router.subscribe(Tagged("second"))
        router.apply(MembershipUpdate(joins=("a", "b", "c")))
        router.apply(MembershipUpdate(joins=("d",), leaves=("a", "b")))
        assert calls == [
            ("first", 1),
            ("second", 1),
            ("first", 2),
            ("second", 2),
        ]

    def test_no_epoch_no_event(self):
        seen = []

        class Counter(RouterObserver):
            def on_epoch(self, result):
                seen.append(result.record.epoch)

        router = consistent_router(observers=[Counter()])
        router.sync(["a", "b"])
        assert router.sync(["b", "a"]) is None
        assert router.apply(MembershipUpdate()) is None
        with pytest.raises(UnknownServerError):
            router.apply(MembershipUpdate(leaves=("ghost",)))
        with pytest.raises(DuplicateServerError):
            router.apply(MembershipUpdate(joins=("a",)))
        assert seen == [1]
        assert router.epoch == 1

    def test_rolled_back_batch_fires_nothing(self):
        """A batch that fails mid-mutation rolls back without an event."""
        seen = []

        class Counter(RouterObserver):
            def on_epoch(self, result):
                seen.append(result.record.epoch)

        table = make_table("hd", seed=1, dim=256, codebook_size=4)
        router = Router(table, observers=[Counter()])
        router.sync(["a", "b", "c"])
        with pytest.raises(CapacityError):
            router.apply(MembershipUpdate(joins=("d", "e")))
        assert seen == [1]
        assert router.epoch == 1
        assert router.server_ids == ("a", "b", "c")

    def test_restored_router_notifies_its_observers(self):
        seen = []

        class Recorder(RouterObserver):
            def on_epoch(self, result):
                seen.append((result.record.epoch, result.record.joined))

        router = consistent_router()
        router.sync(["a", "b"])
        restored = Router.restore(router.snapshot(), observers=[Recorder()])
        restored.sync(["a", "b", "c"])
        assert seen == [(2, ("c",))]


class TestRemapAccounting:
    def test_probe_fractions_recorded_per_epoch(self):
        probe = np.arange(4_000, dtype=np.uint64)
        router = consistent_router(probe_keys=probe)
        first, first_plan = router.sync(["a", "b", "c", "d"])
        assert first.remapped == 0.0  # no previous assignment to move from
        assert first_plan.is_empty
        record, plan = router.sync(["a", "b", "c", "d", "e"])
        # consistent hashing: the newcomer claims ~1/k of the keys
        assert 0.0 < record.remapped < 0.8
        assert record.probes_moved == int(record.remapped * probe.size)
        # the plan and the accounting come from the same diff
        assert plan.total_keys == record.probes_moved
        assert len(plan.moves) / plan.tracked == record.remap_fraction
        assert all(move.destination == "e" for move in plan.moves)

    def test_modular_remaps_more_than_consistent(self):
        probe = np.arange(4_000, dtype=np.uint64)
        # A grow, and the removal of one server from the middle.
        resizes = ((range(8), range(9)), (range(12), [*range(5), *range(6, 12)]))
        for before, after in resizes:
            results = {}
            for name in ("modular", "consistent"):
                router = Router(make_table(name, seed=1), probe_keys=probe)
                router.sync(before)
                results[name] = router.sync(after).record.remapped
            assert results["modular"] > 2 * results["consistent"]

    def test_remap_accounting_ignores_avoid(self):
        """The avoid set is routing-level failover; the epoch bill and
        migration plans stay on the table's raw assignment."""
        router = Router(make_table("rendezvous", seed=8))
        router.sync(["a", "b", "c", "d"])
        router.track(list(range(1_000)))
        router.avoid("a")
        result = router.join("e")
        assert result is not None
        # The epoch's delta compares raw table assignments, so the
        # moved keys are exactly what the table rerouted -- flagged
        # servers do not inflate the bill.
        assert 0.0 < result.record.remapped < 0.5

    def test_no_probes_means_zero_accounting(self):
        router = consistent_router()
        record, plan = router.sync(["a", "b"])
        assert record.remapped == 0.0
        assert record.probes_moved == 0
        assert plan.is_empty and plan.tracked == 0

    def test_routing_passthrough(self):
        router = consistent_router()
        router.sync(["a", "b", "c"])
        assert router.route("key") in router.server_ids
        batch = router.route_batch(np.arange(50, dtype=np.uint64))
        assert set(batch.tolist()) <= set(router.server_ids)
        assert len(router) == 3
        assert "a" in router
        assert "consistent" in repr(router)


class TestRouterSnapshot:
    def test_restore_preserves_epoch_and_routing(self):
        probe = np.arange(2_000, dtype=np.uint64)
        router = Router(
            make_table("hd", seed=2, dim=1_024, codebook_size=128),
            probe_keys=probe,
        )
        router.sync(["a", "b", "c"])
        router.sync(["a", "c", "d"])
        reference = router.route_batch(probe)
        restored = Router.restore(router.snapshot())
        assert restored.epoch == router.epoch
        assert restored.server_ids == router.server_ids
        assert np.array_equal(restored.route_batch(probe), reference)
