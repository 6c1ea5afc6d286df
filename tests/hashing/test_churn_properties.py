"""Property tests: invariants that must hold under arbitrary churn.

Hypothesis drives random join/leave/lookup schedules against every
registered algorithm and checks the invariants the experiments rely
on: replicas stay bit-identical, lookups always land on live members,
and re-building from scratch matches incremental mutation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import make_table, registered_algorithms

#: Light configs so the suite stays fast.
LIGHT_CONFIG = {
    "hd": {"dim": 512, "codebook_size": 128},
    "maglev": {"table_size": 251},
}


def _build(name):
    return make_table(name, seed=9, **LIGHT_CONFIG.get(name, {}))


# A churn schedule: each element joins (True) or leaves (False) a server
# index from a bounded universe, skipping no-ops.
churn_schedules = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=15)),
    min_size=1,
    max_size=24,
)


def _apply(table, schedule):
    """Apply a schedule, skipping invalid operations; return live set."""
    live = set()
    for join, server in schedule:
        if join and server not in live:
            table.join(server)
            live.add(server)
        elif not join and server in live and len(live) > 1:
            table.leave(server)
            live.remove(server)
    return live


@pytest.mark.parametrize("name", sorted(registered_algorithms()))
class TestChurnInvariants:
    @settings(max_examples=15, deadline=None)
    @given(schedule=churn_schedules)
    def test_lookup_always_hits_live_member(self, name, schedule):
        table = _build(name)
        live = _apply(table, schedule)
        if not live:
            return
        assert set(table.server_ids) == live
        words = np.random.default_rng(1).integers(0, 2 ** 64, 64, dtype=np.uint64)
        slots = table.route_batch(words)
        chosen = {table.server_ids[slot] for slot in slots.tolist()}
        assert chosen <= live

    @settings(max_examples=15, deadline=None)
    @given(schedule=churn_schedules)
    def test_replicas_bit_identical_under_churn(self, name, schedule):
        first = _build(name)
        second = _build(name)
        live_a = _apply(first, schedule)
        live_b = _apply(second, schedule)
        assert live_a == live_b
        if not live_a:
            return
        words = np.random.default_rng(2).integers(0, 2 ** 64, 64, dtype=np.uint64)
        assert np.array_equal(
            first.route_batch(words), second.route_batch(words)
        )

    @settings(max_examples=10, deadline=None)
    @given(schedule=churn_schedules)
    def test_state_independent_algorithms_forget_history(self, name, schedule):
        """For history-independent algorithms (all but jump's swap-remove
        bucket layout), churning down to a final membership must route
        like building that membership directly in slot-sorted order."""
        if name == "jump":
            pytest.skip("jump's bucket layout is deliberately historical")
        table = _build(name)
        live = _apply(table, schedule)
        if not live:
            return
        words = np.random.default_rng(3).integers(0, 2 ** 64, 64, dtype=np.uint64)
        ids = np.asarray(table.server_ids, dtype=object)
        churned = ids[table.route_batch(words)]

        fresh = _build(name)
        for server in table.server_ids:  # same final membership
            fresh.join(server)
        fresh_ids = np.asarray(fresh.server_ids, dtype=object)
        direct = fresh_ids[fresh.route_batch(words)]
        assert np.array_equal(churned, direct)