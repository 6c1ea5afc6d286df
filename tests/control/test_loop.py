"""ControlLoop: reconciliation ticks, graceful drains, dead rescue."""

import numpy as np
import pytest

from repro.control import (
    Autoscaler,
    ControlLoop,
    FleetState,
    Health,
    HealthMonitor,
    ServerSpec,
    UtilizationPolicy,
)
from repro.errors import StateError
from repro.hashing import make_table, registered_algorithms, weighted_table
from repro.service import Router
from repro.store import DataPlane


def _stack(weights=(1.0, 2.0, 4.0, 1.0), algorithm="rendezvous", n_keys=2_000):
    fleet = FleetState(
        ServerSpec("s{}".format(index), weight=weight)
        for index, weight in enumerate(weights)
    )
    router = Router(weighted_table(algorithm, seed=9))
    plane = DataPlane(router)
    loop = ControlLoop(router, plane, fleet, max_keys_per_tick=500)
    loop.bootstrap()
    keys = np.arange(n_keys, dtype=np.int64)
    plane.put_many(keys, ["value-{}".format(key) for key in keys])
    plane.track()
    return loop, keys


class TestConstruction:
    def test_plane_must_share_router(self):
        fleet = FleetState([ServerSpec("a")])
        router = Router(make_table("modular"))
        other = Router(make_table("modular"))
        with pytest.raises(ValueError):
            ControlLoop(router, DataPlane(other), fleet)

    def test_monitor_must_share_fleet(self):
        fleet = FleetState([ServerSpec("a")])
        router = Router(make_table("modular"))
        with pytest.raises(ValueError):
            ControlLoop(
                router,
                DataPlane(router),
                fleet,
                monitor=HealthMonitor(FleetState()),
            )

    def test_bootstrap_threads_weights(self):
        loop, __ = _stack(algorithm="weighted")
        assert loop.router.table.weight_of("s2") == 4.0
        assert set(loop.router.server_ids) == {"s0", "s1", "s2", "s3"}


class TestGracefulDrain:
    def test_drain_invariants(self):
        loop, keys = _stack()
        plane = loop.plane
        misses = []

        def on_tick(status):
            sample = np.random.default_rng(0).choice(keys, 300)
            __, found = plane.get_many(sample)
            misses.append(int(np.sum(~found)))

        report = loop.drain("s2", on_tick=on_tick)
        # Zero read misses at any point during the drain.
        assert sum(misses) == 0 and len(misses) >= 1
        # The epoch billed exactly the executed plan.
        assert report.record.probes_moved == report.plan.total_keys
        # The drained server is gone everywhere.
        assert "s2" not in loop.router.table
        assert "s2" not in loop.fleet
        assert "s2" not in plane.stores
        # Every key reads at its routed owner.
        __, found = plane.get_many(keys)
        assert bool(np.all(found))

    def test_drain_plan_preview_is_pure(self):
        loop, __ = _stack()
        before = loop.router.epoch
        plan = loop.drain_plan("s2")
        assert plan.total_keys > 0
        assert loop.router.epoch == before
        assert "s2" in loop.router.table

    def test_cannot_drain_last_server(self):
        fleet = FleetState([ServerSpec("only")])
        router = Router(make_table("modular"))
        plane = DataPlane(router)
        loop = ControlLoop(router, plane, fleet)
        loop.bootstrap()
        with pytest.raises(StateError):
            loop.drain("only")

    def test_scale_down_via_tick_uses_graceful_drain(self):
        """An under-utilized fleet drains (copy-first), never hard-leaves."""
        loop, keys = _stack(weights=(1.0, 1.0, 1.0, 1.0))
        plane = loop.plane
        used = plane.total_bytes
        loop._autoscaler = Autoscaler(
            UtilizationPolicy(
                capacity_bytes_per_weight=int(used / (0.05 * 4)),
                min_servers=3,
            )
        )
        misses = []

        def on_tick(status):
            sample = np.random.default_rng(1).choice(keys, 200)
            __, found = plane.get_many(sample)
            misses.append(int(np.sum(~found)))

        report = loop.tick(on_migration_tick=on_tick)
        assert report.decision is not None and report.decision.drain
        assert len(report.drains) == 1
        assert sum(misses) == 0
        assert loop.router.server_count == 3
        __, found = plane.get_many(keys)
        assert bool(np.all(found))


class TestTick:
    def test_steady_state_is_noop(self):
        loop, __ = _stack()
        report = loop.tick()
        assert report.is_noop
        assert report.epochs == ()
        assert "steady state" in report.describe()

    def test_scale_up_admits_and_migrates(self):
        loop, keys = _stack(weights=(1.0, 1.0))
        plane = loop.plane
        used = plane.total_bytes
        loop._autoscaler = Autoscaler(
            UtilizationPolicy(
                capacity_bytes_per_weight=int(used / (2.0 * 2)),
                max_servers=16,
            )
        )
        report = loop.tick()
        assert report.admitted
        assert report.moved_keys > 0
        assert loop.router.server_count > 2
        __, found = plane.get_many(keys)
        assert bool(np.all(found))
        # Admitted servers joined the fleet directory too.
        for server_id in report.admitted:
            assert server_id in loop.fleet

    @staticmethod
    def _load_curve(algorithm):
        """Two unit servers in band, a write burst, then most data gone.

        Returns the burst tick's report, the server count after it, the
        reports of the ticks that drained the fleet back down (one
        drain per tick) with the reads that missed during those drains,
        and the loop with the keys still stored.
        """
        fleet = FleetState([ServerSpec("a"), ServerSpec("b")])
        router = Router(make_table(algorithm, seed=9))
        plane = DataPlane(router)
        loop = ControlLoop(router, plane, fleet, max_keys_per_tick=500)
        loop.bootstrap()
        base = np.arange(1_000, dtype=np.int64)
        burst = np.arange(1_000, 4_000, dtype=np.int64)
        plane.put_many(base, ["value-{:04d}".format(key) for key in base])
        plane.track()
        loop._autoscaler = Autoscaler(
            UtilizationPolicy.sized_for(plane.total_bytes, 2.0, max_servers=16)
        )
        assert loop.tick().is_noop
        plane.put_many(burst, ["value-{:04d}".format(key) for key in burst])
        grown = loop.tick()
        peak = router.server_count
        kept = base[:250]
        plane.delete_many(np.concatenate([base[250:], burst]))
        misses = []

        def on_tick(status):
            __, found = plane.get_many(kept)
            misses.append(int(np.sum(~found)))

        shrunk = []
        for __ in range(peak):
            shrunk.append(loop.tick(on_migration_tick=on_tick))
            if not shrunk[-1].pending_drains:
                break
        return grown, peak, shrunk, misses, loop, kept

    @pytest.mark.parametrize("algorithm", registered_algorithms())
    def test_fleet_follows_load_up_and_down(self, algorithm):
        """On every registered table at unit weights, a burst admits
        servers and deleting it drains them."""
        grown, peak, shrunk, misses, loop, kept = self._load_curve(algorithm)
        assert grown.admitted and grown.moved_keys > 0
        assert peak == 2 + len(grown.admitted)
        assert sum(len(report.drains) for report in shrunk) == peak - 2
        assert not shrunk[-1].pending_drains
        assert loop.router.server_count == 2
        # Drains copy before they cut over: no read misses meanwhile.
        assert misses and sum(misses) == 0
        __, found = loop.plane.get_many(kept)
        assert bool(np.all(found))
        assert loop.plane.key_count == kept.size

    def test_same_load_curve_same_decisions(self):
        ticks, owners = [], []
        for __ in range(2):
            grown, __, shrunk, __, loop, kept = self._load_curve(
                "weighted-rendezvous"
            )
            ticks.append(
                [
                    (
                        report.admitted,
                        [drain.spec for drain in report.drains],
                        report.moved_keys,
                    )
                    for report in (grown, *shrunk)
                ]
            )
            owners.append(loop.router.route_batch(kept))
        assert ticks[0] == ticks[1]
        assert np.array_equal(owners[0], owners[1])

    def test_dead_server_removed_and_data_rescued(self):
        fleet = FleetState(
            [ServerSpec("a"), ServerSpec("b"), ServerSpec("c")]
        )
        router = Router(make_table("rendezvous", seed=4))
        plane = DataPlane(router)
        monitor = HealthMonitor(fleet, clock=lambda: 0.0)
        loop = ControlLoop(
            router, plane, fleet, monitor=monitor, max_keys_per_tick=500
        )
        loop.bootstrap()
        keys = np.arange(1_500, dtype=np.int64)
        plane.put_many(keys, ["v{}".format(key) for key in keys])
        plane.track()
        for server_id in ("a", "b", "c"):
            monitor.heartbeat(server_id, now=0.0)
        monitor.heartbeat("a", now=50.0)
        monitor.heartbeat("b", now=50.0)
        report = loop.tick(now=50.0)
        transitions = {
            (t.server_id, t.current) for t in report.transitions
        }
        assert ("c", Health.DEAD) in transitions
        assert report.removed == ("c",)
        assert "c" not in router.table
        assert "c" not in fleet
        # The dead server's keys were rescued to their new owners.
        __, found = plane.get_many(keys)
        assert bool(np.all(found))
        assert "c" not in plane.stores

    def test_suspect_flagged_into_avoid_and_recovered(self):
        fleet = FleetState([ServerSpec("a"), ServerSpec("b"), ServerSpec("c")])
        router = Router(make_table("rendezvous", seed=4))
        plane = DataPlane(router)
        monitor = HealthMonitor(fleet, clock=lambda: 0.0)
        loop = ControlLoop(router, plane, fleet, monitor=monitor)
        loop.bootstrap()
        for server_id in ("a", "b", "c"):
            monitor.heartbeat(server_id, now=0.0)
        monitor.heartbeat("a", now=5.0)
        monitor.heartbeat("b", now=5.0)
        report = loop.tick(now=5.0)
        assert router.avoided == frozenset({"c"})
        assert fleet.get("c").health is Health.SUSPECT
        # No epoch: failover is routing-level only.
        assert report.epochs == ()
        # Traffic routes around the suspect.
        owners = {router.route(key) for key in range(200)}
        assert "c" not in owners
        # Recovery lifts the flag at the next tick.
        monitor.heartbeat("c", now=6.0)
        assert fleet.get("c").health is Health.HEALTHY
        loop.tick(now=6.0)
        assert router.avoided == frozenset()

    def test_dead_removal_verifies_while_another_server_is_suspect(self):
        # The epoch removing s05 moves keys onto s03 too; the suspect
        # s03 is served around but still owns them, so the post-epoch
        # ownership check must pass and every key sits at its assignment.
        fleet = FleetState(ServerSpec("s{:02d}".format(i)) for i in range(16))
        router = Router(make_table("hd", seed=1))
        plane = DataPlane(router)
        loop = ControlLoop(router, plane, fleet)
        loop.bootstrap()
        keys = np.arange(20_000, dtype=np.int64)
        plane.put_many(keys, keys)
        plane.track()
        fleet.mark_suspect("s03")
        fleet.mark_dead("s05")
        report = loop.tick()
        assert report.removed == ("s05",)
        assert router.avoided == frozenset({"s03"})
        owners = router.assign_batch(keys)
        assert "s03" in set(owners.tolist())
        for owner in set(owners.tolist()):
            __, found = plane.store(owner).get_many(keys[owners == owner])
            assert found.all()

    def test_plan_only_mutates_nothing(self):
        loop, __ = _stack()
        loop.fleet.mark_draining("s2")
        used = loop.plane.total_bytes
        loop._autoscaler = Autoscaler(
            UtilizationPolicy(
                capacity_bytes_per_weight=int(used / (2.0 * 8)),
                max_servers=32,
            )
        )
        epoch = loop.router.epoch
        key_count = loop.plane.key_count
        report = loop.tick(plan_only=True)
        assert report.plan_only
        assert loop.router.epoch == epoch
        assert loop.plane.key_count == key_count
        assert "s2" in loop.router.table
        assert report.decision is not None and report.decision.add
        assert dict(report.pending_drain_keys)["s2"] > 0
        assert "would" in report.describe()


class TestDrainEdgeCases:
    def test_mid_drain_delete_stays_deleted(self):
        """A key deleted while its pre-copy sits at the destination must
        not resurrect at cutover (the source was authoritative)."""
        loop, keys = _stack()
        plane = loop.plane
        deleted = []

        def on_tick(status):
            # Delete a handful of already-copied keys at their
            # (still-authoritative) source, through the data plane.
            for store in list(plane.stores.values()):
                for key in store.keys()[:1]:
                    key = int(key)
                    if key not in deleted:
                        plane.delete(key)
                        deleted.append(key)
                        break

        loop.drain("s2", on_tick=on_tick)
        assert deleted
        for key in deleted:
            with pytest.raises(KeyError):
                plane.get(key)
            # Gone from every store, not just the routed one.
            assert all(key not in store for store in plane.stores.values())
        # Everything not deleted is intact.
        survivors = np.asarray(sorted(set(keys.tolist()) - set(deleted)))
        __, found = plane.get_many(survivors)
        assert bool(np.all(found))
        assert plane.key_count == survivors.size

    def test_mid_drain_write_is_not_stranded(self):
        loop, keys = _stack()
        plane = loop.plane
        fresh = []

        def on_tick(status):
            if not fresh:
                plane.put(999_999, "late-write")
                fresh.append(999_999)

        loop.drain("s2", on_tick=on_tick)
        assert plane.get(999_999) == "late-write"
        owner = loop.router.route(999_999)
        assert 999_999 in plane.store(owner)

    def test_tick_leaves_undrainable_last_server_pending(self):
        """Marking every server draining must not wedge the loop."""
        fleet = FleetState([ServerSpec("a"), ServerSpec("b")])
        router = Router(make_table("modular", seed=1))
        plane = DataPlane(router)
        loop = ControlLoop(router, plane, fleet)
        loop.bootstrap()
        plane.put_many(np.arange(50, dtype=np.int64), list(range(50)))
        plane.track()
        fleet.mark_draining("a")
        fleet.mark_draining("b")
        report = loop.tick()
        assert len(report.drains) == 1
        # The survivor cannot drain (last server); the loop reports it
        # pending instead of raising, tick after tick.
        report = loop.tick()
        assert report.drains == ()
        assert report.pending_drains != ()
        loop.tick()  # still no crash
        assert router.server_count == 1
        __, found = plane.get_many(np.arange(50, dtype=np.int64))
        assert bool(np.all(found))

    def test_plan_only_preserves_custom_probe_population(self):
        """A plan-only tick (and drain_plan) must not replace the
        router's installed probe set with the stored keys."""
        loop, __ = _stack()
        custom = np.arange(100_000, 100_500, dtype=np.int64)
        loop.router.track(custom)
        loop.fleet.mark_draining("s2")
        loop.tick(plan_only=True)
        assert loop.router.delta_tracker.tracked == custom.size
        loop.drain_plan("s0")
        assert loop.router.delta_tracker.tracked == custom.size

    def test_write_during_suspect_survives_recovery(self):
        """Writes stay at the assigned owner while it is suspect, so a
        transient health blip can never strand data on a replica."""
        fleet = FleetState([ServerSpec("a"), ServerSpec("b"), ServerSpec("c")])
        router = Router(make_table("rendezvous", seed=4))
        plane = DataPlane(router)
        monitor = HealthMonitor(fleet, clock=lambda: 0.0)
        loop = ControlLoop(router, plane, fleet, monitor=monitor)
        loop.bootstrap()
        for server_id in ("a", "b", "c"):
            monitor.heartbeat(server_id, now=0.0)
        monitor.heartbeat("a", now=5.0)
        monitor.heartbeat("b", now=5.0)
        loop.tick(now=5.0)
        assert router.avoided == frozenset({"c"})
        # Find a key whose *assignment* is the suspect and write it.
        key = next(k for k in range(10_000) if router.assign(k) == "c")
        plane.put(key, "flap-proof")
        assert key in plane.store("c")
        # Mid-suspect the read fails over and misses (transient).
        assert plane.get(key, default=None) is None
        # Recovery: the key reads back at its assigned owner.
        monitor.heartbeat("c", now=6.0)
        loop.tick(now=6.0)
        assert router.avoided == frozenset()
        assert plane.get(key) == "flap-proof"

    def test_readmitted_server_gets_fresh_grace_period(self):
        """A machine re-admitted under its old id starts a fresh
        deadline clock instead of inheriting the dead one."""
        fleet = FleetState([ServerSpec("a"), ServerSpec("b"), ServerSpec("c")])
        router = Router(make_table("rendezvous", seed=4))
        plane = DataPlane(router)
        monitor = HealthMonitor(fleet, clock=lambda: 0.0)
        loop = ControlLoop(router, plane, fleet, monitor=monitor)
        loop.bootstrap()
        plane.put_many(np.arange(200, dtype=np.int64), list(range(200)))
        plane.track()
        for server_id in ("a", "b", "c"):
            monitor.heartbeat(server_id, now=0.0)
        monitor.heartbeat("a", now=50.0)
        monitor.heartbeat("b", now=50.0)
        loop.tick(now=50.0)
        assert "c" not in fleet
        # The machine recovers and re-joins as a fresh spec.
        fleet.add(ServerSpec("c"))
        report = loop.tick(now=51.0)
        assert fleet.get("c").health is Health.HEALTHY
        assert "c" in router.table
        assert not any(t.server_id == "c" for t in report.transitions)
        # It only goes suspect again after a *fresh* deadline expires.
        loop.tick(now=52.0)
        assert fleet.get("c").health is Health.HEALTHY
        monitor.poll(now=51.0 + monitor.suspect_after)
        assert fleet.get("c").health is Health.SUSPECT

    def test_drain_never_deletes_inflight_backlog(self):
        """Keys assigned to the drained server but physically still at
        an old owner (unfinished earlier migration) must survive the
        drain untouched -- the reconcile must not misread them as
        mid-drain deletes and destroy their only copy."""
        from repro.service import MigrationExecutor

        fleet = FleetState([ServerSpec("a"), ServerSpec("b"), ServerSpec("c")])
        router = Router(make_table("rendezvous", seed=21))
        plane = DataPlane(router)
        loop = ControlLoop(router, plane, fleet, max_keys_per_tick=100)
        loop.bootstrap()
        keys = np.arange(500, dtype=np.int64)
        plane.put_many(keys, ["v{}".format(key) for key in keys])
        plane.track()
        # Admit d and execute its migration plan only partially: part
        # of d's keys stay in flight at their old owners.
        fleet.add(ServerSpec("d"))
        result = router.sync(fleet.members())
        executor = MigrationExecutor(
            result.plan, plane, max_keys_per_tick=40
        )
        executor.tick()  # one tick only -- the rest stays in flight
        in_flight = result.plan.total_keys - executor.status.committed
        assert in_flight > 0
        # Now gracefully drain d.  Its drain plan includes the
        # in-flight keys (assigned to d, never physically there).
        fleet.mark_draining("d")
        loop.tick()
        assert "d" not in router.table
        # Nothing was destroyed: every key is still stored somewhere
        # and readable at its routed owner.
        assert plane.key_count == keys.size
        __, found = plane.get_many(keys)
        assert bool(np.all(found))

    def test_read_only_drain_copies_each_key_once(self):
        """With read-only mid-drain traffic the catch-up pass is
        skipped: every moving key is copied exactly once."""
        loop, keys = _stack()
        plane = loop.plane

        def on_tick(status):
            plane.get_many(keys[:100])  # reads only

        report = loop.drain("s2", on_tick=on_tick)
        assert report.copied == report.plan.total_keys
