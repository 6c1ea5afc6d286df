"""Bit-exactness of Maglev's incremental churn path.

Membership events (:meth:`join` / :meth:`leave`) only update cached
per-server permutation state and mark the lookup table stale; the table
is refilled lazily by the next route, as one race over the cached
permutation rows.  These properties pin the whole scheme to the
sequential NSDI fill, :func:`_fill_reference` below:

* after ANY random join/leave/route interleaving, the materialized
  table is bit-identical to the reference fill run from scratch over
  the cached offsets/skips;
* it is also bit-identical to the table of a FRESH instance joined with
  the same servers in the surviving slot order -- the incremental path
  can never drift from a from-scratch build;
* a pool-size sweep, from one server to a full table and past the
  one-byte owner tags, agrees with the reference at every size;
* snapshot round-trips preserve the table verbatim, and a restore
  rejects a payload whose table or server words do not fit its pool.
"""

import numpy as np
import pytest

from repro.errors import StateError
from repro.hashing import MaglevHashTable


def _fill_reference(offsets: np.ndarray, skips: np.ndarray, size: int) -> np.ndarray:
    """The sequential NSDI fill: servers take turns claiming their next
    preferred empty slot."""
    count = offsets.size
    if count == 0:
        return np.empty(0, dtype=np.int64)
    table = np.full(size, -1, dtype=np.int64)
    next_index = np.zeros(count, dtype=np.int64)
    filled = 0
    while filled < size:
        for slot in range(count):
            position = (
                int(offsets[slot]) + int(skips[slot]) * int(next_index[slot])
            ) % size
            next_index[slot] += 1
            while table[position] >= 0:
                position = (
                    int(offsets[slot]) + int(skips[slot]) * int(next_index[slot])
                ) % size
                next_index[slot] += 1
            table[position] = slot
            filled += 1
            if filled == size:
                break
    return table


def materialize(table):
    return table._materialized().copy()


def reference_table(table):
    """From-scratch sequential fill over the table's cached state."""
    return _fill_reference(table._offsets, table._skips, table.table_size)


def fresh_rebuild(table, seed):
    """A new instance joined with the same servers, in slot order."""
    fresh = MaglevHashTable(seed=seed, table_size=table.table_size)
    for server_id in table.server_ids:
        fresh.join(server_id)
    return materialize(fresh)


class TestIncrementalMatchesRebuild:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_membership_sequences(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.choice([67, 131, 251]))
        table = MaglevHashTable(seed=seed, table_size=size)
        joined = 0
        for step in range(int(rng.integers(3, 12))):
            if table.server_count == 0 or (
                table.server_count < 40 and rng.random() < 0.65
            ):
                table.join("srv-{:04d}-{:04d}".format(seed, joined))
                joined += 1
            else:
                victim = str(rng.choice(np.asarray(table.server_ids, dtype=object)))
                table.leave(victim)
            # Occasionally route mid-sequence so materialization happens
            # at arbitrary points of the membership history, not only at
            # the end.
            if table.server_count and rng.random() < 0.4:
                table.route_word(int(rng.integers(0, 2**64, dtype=np.uint64)))
        if table.server_count == 0:
            table.join("srv-{:04d}-last".format(seed))
        got = materialize(table)
        assert np.array_equal(got, reference_table(table))
        assert np.array_equal(got, fresh_rebuild(table, seed))

    @pytest.mark.parametrize(
        "count, size",
        [(count, 131) for count in (1, 2, 31, 32, 33, 40, 65, 130, 131)]
        + [(count, 1021) for count in (255, 256, 300)],
    )
    def test_pool_size_sweep(self, count, size):
        # From one server to a full table (131 servers on 131 slots),
        # and past the one-byte owner tags (255 and more servers).
        table = MaglevHashTable(seed=17, table_size=size)
        table.join_many(["srv-{:04d}".format(index) for index in range(count)])
        got = materialize(table)
        assert np.array_equal(got, reference_table(table))
        assert set(got.tolist()) == set(range(count))

    def test_leave_then_rejoin_converges(self):
        table = MaglevHashTable(seed=5, table_size=131)
        for index in range(8):
            table.join("srv-{:04d}".format(index))
        before = materialize(table)
        table.leave("srv-0003")
        table.join("srv-0003")
        # Maglev placement depends only on the (offset, skip) pairs in
        # slot order; rejoining moves the server to the last slot, so
        # the table matches a fresh build in that order, not ``before``.
        assert np.array_equal(materialize(table), reference_table(table))
        assert before.shape == materialize(table).shape

    def test_snapshot_roundtrip_preserves_table(self):
        table = MaglevHashTable(seed=9, table_size=131)
        for index in range(13):
            table.join("srv-{:04d}".format(index))
        snapshot = table.state_dict()
        restored = MaglevHashTable.from_state(snapshot)
        assert np.array_equal(materialize(restored), materialize(table))
        # ...and the restored instance keeps filling incrementally.
        restored.join("srv-after-restore")
        assert np.array_equal(materialize(restored), reference_table(restored))


class TestRestoreRejectsMalformedPayloads:
    @staticmethod
    def _snapshot(count):
        table = MaglevHashTable(seed=3, table_size=131)
        table.join_many(["srv-{:04d}".format(index) for index in range(count)])
        return table.state_dict()

    def test_short_table_raises(self):
        snapshot = self._snapshot(3)
        snapshot["payload"]["table"] = snapshot["payload"]["table"][:50]
        with pytest.raises(StateError):
            MaglevHashTable.from_state(snapshot)

    def test_missing_server_word_raises(self):
        snapshot = self._snapshot(3)
        snapshot["payload"]["server_words"] = snapshot["payload"]["server_words"][:2]
        with pytest.raises(StateError):
            MaglevHashTable.from_state(snapshot)

    def test_empty_table_roundtrips_then_joins(self):
        snapshot = self._snapshot(0)
        assert snapshot["payload"]["table"].size == 0
        restored = MaglevHashTable.from_state(snapshot)
        assert restored.server_count == 0
        restored.join_many(["a", "b"])
        assert np.array_equal(materialize(restored), reference_table(restored))
        assert restored.route_word(12345) in (0, 1)
