"""Integration tests across the whole stack.

These exercise the paths the paper's evaluation depends on: replica
equivalence (the premise of every mismatch measurement), the full
emulator pipeline under churn, and a miniature Figure-5 campaign with
the expected algorithm ordering.
"""

import numpy as np
import pytest

from repro import (
    ConsistentHashTable,
    HDHashTable,
    MismatchCampaign,
    RendezvousHashTable,
    SingleBitFlips,
)
from repro.analysis import uniformity_chi2
from repro.hashing import make_table, registered_algorithms
from repro.emulator import Emulator, HashTableModule, RequestGenerator, ZipfKeys

from ..conftest import populate


class TestReplicaEquivalence:
    """A pristine replica must agree bit-for-bit with the original --
    otherwise mismatch percentages would measure implementation noise."""

    _CONFIGS = {
        "hd": {"dim": 2_048, "codebook_size": 512},
        "maglev": {"table_size": 251},
    }

    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_replay_equivalence_after_churn(self, name, request_words):
        def factory():
            return make_table(name, seed=11, **self._CONFIGS.get(name, {}))

        def build(table):
            populate(table, 24)
            for victim in (3, 11, 17):
                table.leave(victim)
            table.join("late-a")
            table.join("late-b")
            return table

        original = build(factory())
        replica = build(factory())
        a = original.route_batch(request_words)
        b = replica.route_batch(request_words)
        assert np.array_equal(a, b)


class TestEmulatorPipeline:
    def test_full_pipeline_with_churn_and_zipf(self):
        generator = RequestGenerator(seed=21)
        table = HDHashTable(seed=11, dim=2_048, codebook_size=512)
        module = HashTableModule(table, batch_size=128)
        stream = list(generator.joins(range(16)))
        stream += list(
            generator.churn(
                list(range(16)),
                ["standby-{}".format(i) for i in range(4)],
                events=8,
                lookups_between=200,
                distribution=ZipfKeys(universe=5_000, exponent=1.1),
            )
        )
        report = module.process(stream)
        assert report.n_lookups == 8 * 200
        assert report.load.total == report.n_lookups
        assert table.server_count >= 1
        chi2 = uniformity_chi2(
            np.asarray(
                [table.server_ids.index(s) for s in report.assignment_array[-200:]]
            ),
            table.server_count,
        )
        assert np.isfinite(chi2)

    def test_emulator_timing_shape_rendezvous_vs_consistent(self):
        """Rendezvous per-request cost grows with k; consistent's doesn't
        (the Figure 4 shape at miniature scale)."""
        def timed(factory, k):
            emulator = Emulator(factory, vectorized=False, seed=3)
            report = emulator.run_standard(range(k), 400,
                                           record_assignments=False)
            return report.timing.mean_lookup_seconds

        slow_growth = timed(lambda: ConsistentHashTable(seed=5), 256) / timed(
            lambda: ConsistentHashTable(seed=5), 8
        )
        fast_growth = timed(lambda: RendezvousHashTable(seed=5), 256) / timed(
            lambda: RendezvousHashTable(seed=5), 8
        )
        assert fast_growth > 4 * slow_growth


class TestMiniatureFigure5:
    def test_algorithm_ordering_under_noise(self, request_words):
        """consistent >> rendezvous >> hd, at k=256 with 10 flips.

        Consistent hashing's mismatch is heavy-tailed (it depends on
        which bit of a ring position an upset hits), so the ordering is
        asserted on means over 8 seeded trials at a pool size where the
        gap is wide (paper Figure 5: consistent ~12-25%, rendezvous
        ~2*flips/k, hd ~0)."""
        k = 256
        rng = np.random.default_rng(31)
        factories = {
            "consistent": lambda: ConsistentHashTable(seed=11),
            "rendezvous": lambda: RendezvousHashTable(seed=11),
            "hd": lambda: HDHashTable(seed=11, dim=2_048, codebook_size=1_024),
        }
        mismatch = {}
        for name, factory in factories.items():
            table = populate(factory(), k)
            campaign = MismatchCampaign(table, request_words)
            outcome = campaign.run(SingleBitFlips(10), trials=8, rng=rng)
            mismatch[name] = outcome.mean_mismatch
        assert mismatch["hd"] < 0.02
        assert mismatch["hd"] < mismatch["rendezvous"]
        assert mismatch["rendezvous"] < mismatch["consistent"]

    def test_hd_robustness_headline_at_scale(self, request_words):
        """HD hashing with the paper's d=10000: a 10-bit upset leaves
        essentially every request on its pristine server."""
        table = populate(
            HDHashTable(seed=11, dim=10_000, codebook_size=1_024), 128
        )
        campaign = MismatchCampaign(table, request_words)
        outcome = campaign.run(
            SingleBitFlips(10), trials=3, rng=np.random.default_rng(41)
        )
        assert outcome.mean_mismatch < 0.005


class TestLiveMigrationInvariant:
    """The PR-4 acceptance invariant: after any ``sync()`` on a tracked
    DataPlane, executing the emitted MigrationPlan leaves every key
    readable at ``route(key)``, moves exactly the epoch's remap count,
    misses a live read only for a key whose move has not committed yet,
    and HD's moved fraction on a +1-server resize stays near the
    minimal-movement ideal while modular's does not."""

    N_SERVERS = 16
    N_KEYS = 10_000

    #: Constructor overrides keeping the expensive tables test-sized.
    _CONFIGS = {
        "hd": {"dim": 2_048, "codebook_size": 256},
        "maglev": {"table_size": 509},
    }

    def _table(self, name):
        return make_table(name, seed=13, **self._CONFIGS.get(name, {}))

    def _grow(self, table):
        """A tracked plane on ``N_SERVERS`` servers, grown by one."""
        from repro.service import Router
        from repro.store import DataPlane

        router = Router(table)
        fleet = ["node-{:02d}".format(i) for i in range(self.N_SERVERS)]
        router.sync(fleet)
        plane = DataPlane(router)
        keys = np.arange(self.N_KEYS, dtype=np.int64)
        plane.put_many(keys, keys)
        plane.track()
        record, plan = router.sync(fleet + ["node-new"])
        return record, plan, plane, keys

    def _resize_once(self, table):
        from repro.service import MigrationExecutor

        record, plan, plane, keys = self._grow(table)
        status = MigrationExecutor(plan, plane, max_keys_per_tick=777).run()
        return record, plan, status, plane, keys

    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_every_key_readable_after_executing_the_plan(self, name):
        record, plan, status, plane, keys = self._resize_once(
            self._table(name)
        )
        # keys moved equals the epoch's remap count, bit-exactly
        assert status.done and status.skipped == 0
        assert status.committed == plan.total_keys == record.probes_moved
        assert plan.moved_fraction == record.remap_fraction
        # every key readable at route(key)
        values, found = plane.get_many(keys)
        assert found.all()
        # and sitting in the store the router currently names
        owners = plane.router.route_batch(keys)
        for key, owner in zip(keys[::97], owners[::97]):
            assert plane.store(owner).get(int(key)) == int(key)

    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_only_uncommitted_moves_miss_between_ticks(self, name):
        from repro.service import MigrationExecutor

        __, plan, plane, keys = self._grow(self._table(name))
        moved = np.fromiter(
            (move.key for move in plan.moves), dtype=np.int64
        )
        # About a quarter of the plan per tick, whatever it moves.
        executor = MigrationExecutor(
            plan, plane, max_keys_per_tick=max(1, plan.total_keys // 4)
        )
        committed = []
        while not executor.status.done:
            status = executor.tick()
            committed.append(status.committed)
            # A read routes to the new owner at once; the value gets
            # there when its move commits.  Keys the plan leaves in
            # place keep their owner and never miss.
            __, found = plane.get_many(keys)
            missed = keys[~found]
            assert bool(np.isin(missed, moved).all())
            assert missed.size == plan.total_keys - status.committed
        # The throttle spread the plan over several ticks, each
        # committing more of it, and the last one drained it.
        assert len(committed) >= 2
        assert committed == sorted(set(committed))
        assert committed[-1] == plan.total_keys
        assert found.all()

    def test_hd_moves_near_minimal_fraction_and_modular_does_not(self):
        ideal = 1.0 / (self.N_SERVERS + 1)
        __, hd_plan, __, __, __ = self._resize_once(self._table("hd"))
        __, mod_plan, __, __, __ = self._resize_once(self._table("modular"))
        assert 0 < hd_plan.moved_fraction <= 2 * ideal
        assert mod_plan.moved_fraction > 2 * ideal


class TestWeightedDrainInvariant:
    """The PR-5 acceptance invariant, on a heterogeneous fleet.

    For every registered algorithm but the wrapper itself (rendezvous
    and weighted-rendezvous weighted natively, the other six through
    the virtual-multiplicity wrapper): on a fleet with weights
    {1, 2, 4}, gracefully draining the heaviest server through the
    ControlLoop

    * moves exactly the keys the leave epoch remaps (plan size ==
      epoch remap count, bit-exact),
    * never misses a read mid-drain and leaves every key readable at
      ``route(key)`` afterwards,
    * leaves zero keys on the drained server,
    * and leaves post-drain ownership tracking the remaining weights
      within chi-squared tolerance.
    """

    N_KEYS = 1_500
    WEIGHTS = {"w1": 1.0, "w2": 2.0, "w4": 4.0}

    #: 99.9% chi-squared critical value at dof=1 (two survivors),
    #: slackened for vnode-granular placements.
    CHI2_LIMIT = 10.83 * 8

    #: Virtual members per unit weight for the wrapper path: ring
    #: algorithms need fine granularity for ownership to track weights.
    VIRTUAL_BASE = 32

    #: Sized for 7 weight-units x 32 = 224 virtual members.
    _CONFIGS = {
        "hd": {"dim": 1_024, "codebook_size": 512},
        "maglev": {"table_size": 1_021},
    }

    @pytest.mark.parametrize(
        "name", sorted(set(registered_algorithms()) - {"weighted"})
    )
    def test_drain_heaviest_moves_exactly_its_keys(self, name):
        from repro.analysis import chi_squared_statistic
        from repro.control import ControlLoop, FleetState, ServerSpec
        from repro.hashing import weighted_table
        from repro.service import Router
        from repro.store import DataPlane

        table = weighted_table(
            name,
            seed=13,
            virtual_base=self.VIRTUAL_BASE,
            **self._CONFIGS.get(name, {})
        )
        fleet = FleetState(
            ServerSpec(server_id, weight=weight)
            for server_id, weight in self.WEIGHTS.items()
        )
        router = Router(table)
        plane = DataPlane(router)
        loop = ControlLoop(router, plane, fleet, max_keys_per_tick=400)
        loop.bootstrap()
        keys = np.arange(self.N_KEYS, dtype=np.int64)
        plane.put_many(keys, ["value-{}".format(key) for key in keys])

        drained_keys = len(plane.store("w4"))
        misses = []

        def on_tick(status):
            sample = np.random.default_rng(7).choice(keys, 250)
            __, found = plane.get_many(sample)
            misses.append(int(np.sum(~found)))

        report = loop.drain("w4", on_tick=on_tick)

        # Plan size == epoch remap count, bit-exact.
        assert report.record.probes_moved == report.plan.total_keys
        # The drained server's keys all had to move; minimally
        # disruptive algorithms move nothing else (the wrapper keeps
        # their property), so the plan is at least the drained load.
        assert report.plan.total_keys >= drained_keys
        # Zero read misses at every sampled point mid-drain.
        assert sum(misses) == 0 and misses
        # Zero keys remain on the drained server, which is gone.
        assert "w4" not in router.table
        assert "w4" not in plane.stores
        # Every key reads back at its routed owner.
        __, found = plane.get_many(keys)
        assert bool(np.all(found))
        owners = router.route_batch(keys)
        for key, owner in zip(keys[:200].tolist(), owners[:200]):
            assert plane.store(owner).get(key) == "value-{}".format(key)
        # Post-drain ownership tracks the surviving weights {1, 2}.
        counts = {"w1": 0, "w2": 0}
        for owner in owners:
            counts[owner] += 1
        expected = np.asarray([self.N_KEYS / 3.0, 2.0 * self.N_KEYS / 3.0])
        statistic = chi_squared_statistic(
            np.asarray([counts["w1"], counts["w2"]]), expected
        )
        assert statistic < self.CHI2_LIMIT, (name, counts)

    def test_minimally_disruptive_drain_is_minimal(self):
        """For rendezvous, weighted natively or wrapped, the drain plan
        is exactly the drained server's keys -- no collateral movement."""
        from repro.control import ControlLoop, FleetState, ServerSpec
        from repro.hashing import make_table, weighted_table
        from repro.service import Router
        from repro.store import DataPlane

        for table in (
            weighted_table("rendezvous", seed=13),
            make_table("weighted", algorithm="rendezvous", seed=13),
        ):
            fleet = FleetState(
                ServerSpec(server_id, weight=weight)
                for server_id, weight in self.WEIGHTS.items()
            )
            router = Router(table)
            plane = DataPlane(router)
            loop = ControlLoop(router, plane, fleet)
            loop.bootstrap()
            keys = np.arange(self.N_KEYS, dtype=np.int64)
            plane.put_many(keys, keys)
            drained_keys = len(plane.store("w4"))
            report = loop.drain("w4")
            assert report.plan.total_keys == drained_keys, table.name
