"""Oracle properties for the membership hooks.

Every table implements membership once: algorithms advertising
``churn-incremental`` override
:meth:`~repro.hashing.base.DynamicHashTable._join_many` /
:meth:`~repro.hashing.base.DynamicHashTable._leave_many` with one
structural operation per membership *event*; the rest implement the
per-member ``_join``/``_leave`` hooks that the default bulk hooks loop
over.  The documented contract is bit-exactness: a bulk batch must
leave the table routing identically to joining/leaving the same ids
one at a time, in order.  These properties replay random
join/leave/route schedules twice -- once as multi-member events, once
through a sequential shadow table that only ever sees singleton
events -- and require identical assignments after every event
(mirroring ``tests/hashing/test_maglev_incremental.py``, which pins
Maglev's deferred fill to its sequential oracle the same way).  A
mid-sequence ``state_dict`` round-trip rides along: restored tables
must keep taking their membership path without drifting.

Scalar ``join``/``leave`` are one-member bulk calls, so the shadow runs
the same kernel as the table under test.  An independent reference
therefore rides along too: after every event, a fresh table that joins
the current ``server_ids`` in slot order, at the weights the schedule
gave them, must route identically -- for every algorithm whose state
is a function of its current members alone.
"""

import numpy as np
import pytest

from repro.errors import CapacityError
from repro.hashing import DynamicHashTable, make_table
from repro.hashing.registry import algorithm_entry, registered_algorithms

#: Constructor overrides keeping the expensive tables test-sized.
LIGHT_CONFIGS = {
    "hd": {"dim": 1_024, "codebook_size": 128},
    "maglev": {"table_size": 131},
}

#: Registry-driven coverage: bulk kernels and the default per-member
#: loops alike, so a new algorithm is picked up the moment it registers.
ALGORITHMS = list(registered_algorithms())

#: Algorithms whose routing depends on membership history, not only on
#: the current members, by design: HD probes a joiner past the circle
#: positions held when it joined, and jump's swap-remove leave moves
#: the last bucket's server into the hole.  No fresh-table reference.
HISTORY_DEPENDENT = {"hd", "jump"}


def build(name, seed):
    return make_table(name, seed=seed, **LIGHT_CONFIGS.get(name, {}))


def assert_same_routing(table, shadow, words):
    assert list(table.server_ids) == list(shadow.server_ids)
    assert np.array_equal(
        table.lookup_words(words), shadow.lookup_words(words)
    )


def assert_routes_like_fresh(name, seed, table, words, weights):
    """Compare ``table`` with a new table of its current members.

    The fresh table joins ``table.server_ids`` one at a time in slot
    order, each at its scheduled weight (1.0 unless ``weights`` says
    otherwise), so its state owes nothing to the history under test.
    """
    if name in HISTORY_DEPENDENT:
        return
    fresh = build(name, seed)
    for server_id in table.server_ids:
        if fresh.supports_weights:
            fresh.join(server_id, weight=weights.get(server_id, 1.0))
        else:
            fresh.join(server_id)
    assert_same_routing(table, fresh, words)
    # The state the fault injector corrupts must match as well: a stale
    # entry no route reads still changes where bit flips land.
    assert [
        (region.name, region.snapshot()) for region in table.memory_regions()
    ] == [
        (region.name, region.snapshot()) for region in fresh.memory_regions()
    ]


def apply_event(table, shadow, kind, ids):
    """One schedule event: a bulk call on ``table``, singletons on
    ``shadow``."""
    if kind == "join":
        table.join_many(ids)
        for server_id in ids:
            shadow.join(server_id)
    else:
        table.leave_many(ids)
        for server_id in ids:
            shadow.leave(server_id)


def random_schedule(rng, universe=40, steps=10):
    """Yield (kind, ids) events over a bounded server universe.

    Joins arrive in batches of 1-3 fresh ids; leaves retire random
    batches of current members.  The pool is kept non-empty so routing
    comparisons are always possible.
    """
    pool = []
    next_id = 0
    for __ in range(steps):
        if not pool or (next_id < universe and rng.random() < 0.6):
            width = int(rng.integers(1, 4))
            ids = ["srv-{:03d}".format(next_id + i) for i in range(width)]
            next_id += width
            pool.extend(ids)
            yield "join", ids
        else:
            width = int(rng.integers(1, min(3, len(pool)) + 1))
            if width >= len(pool):
                width = len(pool) - 1 or 1
            picks = rng.choice(len(pool), size=width, replace=False)
            ids = [pool[int(index)] for index in sorted(picks)]
            for server_id in ids:
                pool.remove(server_id)
            if not pool:
                pool.extend(ids[:1])
                ids = ids[1:]
            if ids:
                yield "leave", ids


class TestBulkKernelsMatchScalarOracle:
    @pytest.mark.parametrize("name", ALGORITHMS)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_schedules_route_identically(self, name, seed):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, 256, dtype=np.uint64)
        table = build(name, seed)
        shadow = build(name, seed)
        for kind, ids in random_schedule(rng):
            apply_event(table, shadow, kind, ids)
            # Route after *every* event so lazily-deferred state is
            # forced at arbitrary points of the history, not just once
            # at the end.
            assert_same_routing(table, shadow, words)
            assert_routes_like_fresh(name, seed, table, words, {})

    @pytest.mark.parametrize(
        "name",
        [
            name
            for name in ALGORITHMS
            if "weighted" in algorithm_entry(name).capabilities
        ],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_schedules_route_identically(self, name, seed):
        # Interleave non-unit-weight scalar admissions with bulk events:
        # the bulk kernels must stay exact over weighted owner state.
        rng = np.random.default_rng(1_000 + seed)
        words = rng.integers(0, 2**64, 256, dtype=np.uint64)
        table = build(name, seed)
        shadow = build(name, seed)
        weights = {}
        heavy = 0
        for kind, ids in random_schedule(rng):
            apply_event(table, shadow, kind, ids)
            if rng.random() < 0.4:
                weight = float(rng.integers(2, 6))
                server_id = "heavy-{:03d}".format(heavy)
                heavy += 1
                table.join(server_id, weight=weight)
                shadow.join(server_id, weight=weight)
                weights[server_id] = weight
            assert_same_routing(table, shadow, words)
            assert_routes_like_fresh(name, seed, table, words, weights)

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_mid_sequence_snapshot_roundtrip(self, name):
        rng = np.random.default_rng(777)
        words = rng.integers(0, 2**64, 256, dtype=np.uint64)
        table = build(name, 3)
        shadow = build(name, 3)
        events = list(random_schedule(rng, steps=12))
        midpoint = len(events) // 2
        for step, (kind, ids) in enumerate(events):
            apply_event(table, shadow, kind, ids)
            if step == midpoint:
                # Swap the bulk-path table for its snapshot restore and
                # keep going: the restored instance must route like the
                # original *and* keep the incremental path exact.
                table = DynamicHashTable.from_state(table.state_dict())
                assert_same_routing(table, shadow, words)
            assert_routes_like_fresh(name, 3, table, words, {})
        assert_same_routing(table, shadow, words)


class TestPartialFailure:
    def test_weighted_join_many_keeps_servers_before_the_overflow(self):
        # Eight virtual members per server over a 16-position HD circle:
        # the third server overflows it.  The wrapper admits servers one
        # at a time, so the two before it stay joined -- exactly where a
        # sequential shadow that raised at the same server stands.
        config = {
            "algorithm": "hd",
            "virtual_base": 8,
            "config": {"dim": 1_024, "codebook_size": 16},
        }
        words = np.random.default_rng(5).integers(
            0, 2**64, 256, dtype=np.uint64
        )
        table = make_table("weighted", **config)
        shadow = make_table("weighted", **config)
        with pytest.raises(CapacityError):
            table.join_many(["a", "b", "c"])
        shadow.join("a")
        shadow.join("b")
        with pytest.raises(CapacityError):
            shadow.join("c")
        assert table.server_ids == ("a", "b")
        assert table.inner.server_count == 16
        assert_same_routing(table, shadow, words)
        # The failed admission left no stray virtual member behind:
        # freeing one server's block makes room for the third.
        for side in (table, shadow):
            side.leave("a")
            side.join("c")
        assert_same_routing(table, shadow, words)
