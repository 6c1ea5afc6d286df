"""Delta-scoped epoch close: the fast path must be bit-exact.

A :class:`~repro.service.migration.DeltaTracker` constructed with its
table closes *named* epochs (``close(joined=..., left=...)``) from
cached winning scores when the algorithm exposes the delta-score
kernels: join epochs sweep each joiner's challenge column against the
cached winners, leave epochs re-route only the departing servers' keys.
That is a promise of bit-exactness, not approximation -- every test
here compares the fast path against a table-less tracker over the same
lookup (which always takes the full tracked-slice re-route) and
requires identical :class:`~repro.service.migration.EpochDelta`
contents: same keys, same sources, same destinations, same order.
"""

import numpy as np
import pytest

from repro.hashing import RendezvousHashTable, make_table
from repro.hashing.base import DynamicHashTable
from repro.hashing.registry import algorithm_entry, registered_algorithms
from repro.memory import BurstError, FaultInjector, SingleBitFlips
from repro.service import Router
from repro.service.migration import DeltaTracker

#: Constructor overrides keeping the expensive tables test-sized.
LIGHT_CONFIGS = {
    "hd": {"dim": 1_024, "codebook_size": 128},
    "maglev": {"table_size": 509},
}

#: Every algorithm advertising the delta-scoped close kernels -- driven
#: off the registry flag so a new delta-native algorithm is covered the
#: moment it lands.
DELTA_ALGORITHMS = [
    name
    for name in registered_algorithms()
    if "delta-close" in algorithm_entry(name).capabilities
]

#: Delta-native algorithms whose routing is a pure function of a fixed
#: position set: their tracker closes every epoch by diffing position
#: owners instead of re-routing anything.
POSITION_ALGORITHMS = [
    name
    for name in DELTA_ALGORITHMS
    if algorithm_entry(name).cls._route_positions
    is not DynamicHashTable._route_positions
]

#: Delta-native algorithms whose ``join`` takes a capacity weight.
WEIGHTED_DELTA_ALGORITHMS = [
    name
    for name in DELTA_ALGORITHMS
    if "weighted" in algorithm_entry(name).capabilities
]


def light_table(name, seed=5):
    return make_table(name, seed=seed, **LIGHT_CONFIGS.get(name, {}))


def tracker_pair(table, keys=4_096):
    """(fast, full) trackers over the same table and probe population.

    The fast tracker knows its table (and so caches winning scores);
    the full tracker does not, which forces the re-route-everything
    path on every close -- the oracle the fast path is checked against.
    """
    key_array = np.arange(keys, dtype=np.int64)
    words = table.words_of_keys(key_array)
    fast = DeltaTracker(table.lookup_words, table=table)
    full = DeltaTracker(table.lookup_words)
    fast.track(key_array, words)
    full.track(key_array.copy(), words.copy())
    return fast, full


def assert_deltas_identical(fast_delta, full_delta):
    assert fast_delta.tracked == full_delta.tracked
    assert np.array_equal(fast_delta.keys, full_delta.keys)
    assert np.array_equal(fast_delta.sources, full_delta.sources)
    assert np.array_equal(fast_delta.destinations, full_delta.destinations)


def fill(table, servers=12):
    ids = ["srv-{:02d}".format(index) for index in range(servers)]
    for server_id in ids:
        table.join(server_id)
    return ids


class TestScopedCloseExactness:
    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_grow_epoch_bit_identical(self, name):
        table = light_table(name)
        fill(table)
        fast, full = tracker_pair(table)
        # The fast path is armed: position owners or winning scores.
        assert fast._owners is not None or fast._scores is not None
        table.join("newcomer")
        fast_delta = fast.close(joined=["newcomer"])
        full_delta = full.close(joined=["newcomer"])
        assert_deltas_identical(fast_delta, full_delta)
        assert fast_delta.moved > 0
        assert set(fast_delta.destinations) == {"newcomer"}

    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_shrink_epoch_bit_identical(self, name):
        table = light_table(name)
        ids = fill(table)
        fast, full = tracker_pair(table)
        table.leave(ids[0])
        fast_delta = fast.close(left=[ids[0]])
        full_delta = full.close(left=[ids[0]])
        assert_deltas_identical(fast_delta, full_delta)
        assert fast_delta.moved > 0
        assert set(fast_delta.sources) == {ids[0]}

    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_multi_event_epochs_bit_identical(self, name):
        table = light_table(name)
        ids = fill(table)
        fast, full = tracker_pair(table)
        table.join_many(["alpha", "beta"])
        assert_deltas_identical(
            fast.close(joined=["alpha", "beta"]),
            full.close(joined=["alpha", "beta"]),
        )
        table.leave_many([ids[1], "alpha"])
        assert_deltas_identical(
            fast.close(left=[ids[1], "alpha"]),
            full.close(left=[ids[1], "alpha"]),
        )

    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_mixed_leave_and_join_epoch_bit_identical(self, name):
        table = light_table(name)
        ids = fill(table)
        fast, full = tracker_pair(table)
        table.leave(ids[2])
        table.join("replacement")
        fast_delta = fast.close(joined=["replacement"], left=[ids[2]])
        full_delta = full.close(joined=["replacement"], left=[ids[2]])
        assert_deltas_identical(fast_delta, full_delta)

    @pytest.mark.parametrize("name", WEIGHTED_DELTA_ALGORITHMS)
    def test_weight_change_epochs_bit_identical(self, name):
        # A weight change is two epochs (the router forbids one id in
        # both sides of a batch): drain the member, re-admit it heavier.
        table = light_table(name)
        ids = fill(table)
        fast, full = tracker_pair(table)
        table.leave(ids[3])
        assert_deltas_identical(
            fast.close(left=[ids[3]]), full.close(left=[ids[3]])
        )
        table.join(ids[3], weight=4.0)
        fast_delta = fast.close(joined=[ids[3]])
        full_delta = full.close(joined=[ids[3]])
        assert_deltas_identical(fast_delta, full_delta)
        assert fast_delta.moved > 0  # 4x the capacity pulls keys in

    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_random_epoch_sequences_bit_identical(self, name):
        # Random grow/shrink schedules: the cached-score baseline must
        # stay exact across *chains* of scoped closes, not just one.
        rng = np.random.default_rng(17)
        table = light_table(name)
        ids = fill(table, servers=10)
        pool = list(ids)
        fast, full = tracker_pair(table, keys=2_048)
        next_id = 0
        for __ in range(16):
            if len(pool) <= 3 or rng.random() < 0.5:
                joiner = "dyn-{:03d}".format(next_id)
                next_id += 1
                table.join(joiner)
                pool.append(joiner)
                events = {"joined": [joiner]}
            else:
                leaver = pool.pop(int(rng.integers(len(pool))))
                table.leave(leaver)
                events = {"left": [leaver]}
            assert_deltas_identical(fast.close(**events), full.close(**events))


class TestScopedCloseIsActuallyScoped:
    """Exactness alone could be satisfied by silently recomputing --
    pin down that the fast path does delta-sized work."""

    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_join_close_never_reroutes(self, name):
        table = light_table(name)
        fill(table)
        calls = []

        def counting_lookup(words):
            calls.append(words.size)
            return table.lookup_words(words)

        keys = np.arange(2_048, dtype=np.int64)
        tracker = DeltaTracker(counting_lookup, table=table)
        tracker.track(keys, table.words_of_keys(keys))
        calls.clear()
        table.join("newcomer")
        delta = tracker.close(joined=["newcomer"])
        assert delta.moved > 0
        assert calls == []  # one challenge column, zero re-routes

    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_leave_close_reroutes_only_stranded_keys(self, name):
        table = light_table(name)
        ids = fill(table)
        calls = []

        def counting_lookup(words):
            calls.append(words.size)
            return table.lookup_words(words)

        keys = np.arange(2_048, dtype=np.int64)
        tracker = DeltaTracker(counting_lookup, table=table)
        tracker.track(keys, table.words_of_keys(keys))
        calls.clear()
        table.leave(ids[0])
        delta = tracker.close(left=[ids[0]])
        assert delta.moved > 0
        if name in POSITION_ALGORITHMS:
            assert calls == []  # position owners diffed, zero re-routes
        else:
            assert calls == [delta.moved]  # exactly the departed slice

    def test_opted_out_algorithm_falls_back_to_full_recompute(self):
        # The kernels may return ``None`` mid-epoch: a table that caches
        # winning scores but declines the joiner's challenge column must
        # make a named close quietly take the full path, bit-exact.
        class DecliningRendezvous(RendezvousHashTable):
            def _delta_challenge(self, server_id, words):
                return None

        table = DecliningRendezvous(seed=5)
        fill(table)
        calls = []

        def counting_lookup(words):
            calls.append(words.size)
            return table.lookup_words(words)

        keys = np.arange(4_096, dtype=np.int64)
        words = table.words_of_keys(keys)
        fast = DeltaTracker(counting_lookup, table=table)
        full = DeltaTracker(table.lookup_words)
        fast.track(keys, words)
        full.track(keys.copy(), words.copy())
        assert fast._scores is not None  # the score path is armed
        calls.clear()
        table.join("newcomer")
        delta = fast.close(joined=["newcomer"])
        assert delta.moved > 0
        assert calls == [keys.size]  # the whole tracked slice re-routed
        assert_deltas_identical(delta, full.close(joined=["newcomer"]))

    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_anonymous_close_still_full_and_exact(self, name):
        # close() without named events must not trust stale scores.
        table = light_table(name)
        fill(table)
        fast, full = tracker_pair(table)
        table.join("newcomer")
        assert_deltas_identical(fast.close(), full.close())


class TestPositionGroupedClose:
    """HD closes every epoch by diffing its position owners.

    The diff reads the owners the table routes by *now*, so it must
    stay bit-exact through memory faults as well as membership changes
    -- the case the cached-score path cannot cover.
    """

    @pytest.mark.parametrize("expose_codebook", [False, True])
    def test_random_epochs_with_bursts_bit_identical(self, expose_codebook):
        rng = np.random.default_rng(31)
        table = make_table(
            "hd",
            seed=5,
            expose_codebook=expose_codebook,
            **LIGHT_CONFIGS["hd"],
        )
        pool = fill(table, servers=10)
        calls = []

        def counting_lookup(words):
            calls.append(words.size)
            return table.lookup_words(words)

        keys = np.arange(4_096, dtype=np.int64)
        words = table.words_of_keys(keys)
        fast = DeltaTracker(counting_lookup, table=table)
        full = DeltaTracker(table.lookup_words)
        fast.track(keys, words)
        full.track(keys.copy(), words.copy())
        calls.clear()
        next_id = 0
        moved_by_faults = 0
        for step in range(30):
            kind = ("join", "leave", "mixed", "burst", "flips")[step % 5]
            events = {}
            if kind in ("join", "mixed") or len(pool) <= 3:
                joiner = "dyn-{:03d}".format(next_id)
                next_id += 1
                table.join(joiner)
                pool.append(joiner)
                events["joined"] = [joiner]
            if kind in ("leave", "mixed") and len(pool) > 3:
                leaver = pool.pop(int(rng.integers(len(pool) - 1)))
                table.leave(leaver)
                events["left"] = [leaver]
            if kind == "burst":
                FaultInjector(table.memory_regions()).inject(
                    BurstError(length=int(rng.integers(64, 256))), rng
                )
            elif kind == "flips":
                FaultInjector(table.memory_regions()).inject(
                    SingleBitFlips(int(rng.integers(100, 400))), rng
                )
            fast_delta = fast.close(**events)
            assert_deltas_identical(fast_delta, full.close(**events))
            if kind in ("burst", "flips"):
                moved_by_faults += fast_delta.moved
        assert calls == []  # every close diffed position owners
        assert moved_by_faults > 0  # the faults did move keys

    def test_tracker_keeps_owners_not_scores(self):
        # Position owners are the whole baseline: no score array is
        # computed at track() or refreshed by a close.
        table = light_table("hd")
        ids = fill(table)
        fast, full = tracker_pair(table)
        assert fast._owners is not None
        assert fast._scores is None
        table.join("newcomer")
        assert_deltas_identical(
            fast.close(joined=["newcomer"]), full.close(joined=["newcomer"])
        )
        table.leave(ids[0])
        assert_deltas_identical(fast.close(), full.close())
        assert fast._scores is None

    def test_restore_behind_the_table_is_exact(self):
        # Put the clean memory back after a burst, as the serving
        # benchmark's misroute probe does: the keys return exactly.
        rng = np.random.default_rng(8)
        table = light_table("hd")
        fill(table)
        fast, full = tracker_pair(table)
        injector = FaultInjector(table.memory_regions())
        clean = injector.snapshot()
        injector.inject(BurstError(length=400), rng)
        assert_deltas_identical(fast.close(), full.close())
        injector.restore(clean)
        assert_deltas_identical(fast.close(), full.close())


class TestRouterAccountingOnBothPaths:
    """``plan.total_keys == record.probes_moved`` holds bit-exactly on
    the delta-scoped path exactly as it always has on the full path."""

    @pytest.mark.parametrize("name", DELTA_ALGORITHMS)
    def test_random_sync_schedules_keep_plan_record_agreement(self, name):
        rng = np.random.default_rng(29)
        probe = np.arange(2_000, dtype=np.int64)
        router = Router(light_table(name), probe_keys=probe)
        shadow = DeltaTracker(router.table.lookup_words)
        fleet = ["srv-{:02d}".format(index) for index in range(8)]
        router.sync(fleet)
        shadow.track(probe.copy(), router.table.words_of_keys(probe))
        next_id = 0
        for __ in range(12):
            if len(fleet) <= 4 or rng.random() < 0.5:
                fleet = fleet + ["dyn-{:03d}".format(next_id)]
                next_id += 1
            else:
                fleet = fleet[1:]
            record, plan = router.sync(fleet)
            assert plan.total_keys == record.probes_moved
            assert plan.moved_fraction == record.remap_fraction
            # The router's (fast-path) bill agrees with a full-path
            # shadow tracker watching the same table.
            shadow_delta = shadow.close()
            assert shadow_delta.moved == record.probes_moved
