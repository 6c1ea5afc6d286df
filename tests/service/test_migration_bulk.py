"""Bulk executor vs. scalar reference: bit-exact equivalence.

The migration executor's hot path is array-at-a-time (grouped bulk
reads, one priced put per destination, one bulk evict per source).
These tests pin it to a per-key scalar reference executor -- a faithful
copy of the pre-bulk implementation, driven only through the scalar
``ServerStore`` API -- and assert the two leave *identical* state
behind: the same :class:`MigrationStatus` counts, the same
``copied_keys``, the same ``bytes_copied``, and byte-for-byte identical
stores, insertion order included.

Covered across every registered algorithm: full runs, mid-plan resume
through ``remaining_plan``, keys deleted before execution, retained
sources (``delete_source=False``), byte-budget throttling, and
mixed-type values (strings, bytes, None, arrays) exercising the exact
pricing path.
"""

import numpy as np
import pytest

from repro.hashing import make_table, registered_algorithms
from repro.service import MigrationExecutor, Router
from repro.service.migration import MigrationPlan, MoveBatch
from repro.store import DataPlane

#: Constructor overrides keeping the expensive tables test-sized.
#: Private absence sentinel for the reference executor (the store's
#: public ``MISSING`` means "no default" to the scalar ``get``).
_ABSENT = object()

LIGHT_CONFIGS = {
    "hd": {"dim": 1_024, "codebook_size": 128},
    "maglev": {"table_size": 509},
}


class ScalarExecutor:
    """Per-key reference executor (the pre-bulk implementation).

    Identical phase order -- copy, read-back verify, commit -- driven
    one key at a time through the scalar store API.  The bulk executor
    must be indistinguishable from this, state-wise, on every success
    path.
    """

    def __init__(
        self,
        plan,
        plane,
        max_keys_per_tick=1_024,
        max_bytes_per_tick=None,
        delete_source=True,
    ):
        self._plan = plan
        self._plane = plane
        self._max_keys = max_keys_per_tick
        self._max_bytes = max_bytes_per_tick
        self._delete_source = delete_source
        self._planned = plan.total_keys
        self._batch_index = 0
        self._offset = 0
        self._copied = 0
        self._copied_keys = set()
        self._committed = 0
        self._skipped = 0
        self._bytes_copied = 0
        self._ticks = 0

    @property
    def copied_keys(self):
        return frozenset(self._copied_keys)

    @property
    def status(self):
        from repro.service.migration import MigrationStatus

        return MigrationStatus(
            planned=self._planned,
            copied=self._copied,
            committed=self._committed,
            skipped=self._skipped,
            bytes_copied=self._bytes_copied,
            ticks=self._ticks,
        )

    def _next_chunk(self):
        chunk = []
        budget_bytes = self._max_bytes
        batches = self._plan.batches
        while len(chunk) < self._max_keys and self._batch_index < len(batches):
            batch = batches[self._batch_index]
            if self._offset >= len(batch.keys):
                self._batch_index += 1
                self._offset = 0
                continue
            key = batch.keys[self._offset]
            if budget_bytes is not None:
                cost = self._plane.store(batch.source).item_bytes(key)
                if chunk and cost > budget_bytes:
                    break
                budget_bytes -= cost
            chunk.append((batch, key))
            self._offset += 1
        return chunk

    def tick(self):
        chunk = self._next_chunk()
        staged = []
        for batch, key in chunk:
            value = self._plane.store(batch.source).get(key, _ABSENT)
            if value is _ABSENT:
                self._skipped += 1
                continue
            self._bytes_copied += self._plane.store(batch.destination).put(
                key, value
            )
            self._copied += 1
            self._copied_keys.add(key)
            staged.append((batch, key, value))
        for batch, key, value in staged:
            readback = self._plane.store(batch.destination).get(key, _ABSENT)
            assert readback is value or readback == value
        for batch, key, __ in staged:
            if self._delete_source:
                self._plane.store(batch.source).delete(key)
            self._committed += 1
        self._ticks += 1
        return self.status

    def run(self):
        while not self.status.done:
            self.tick()
        return self.status

    def remaining_plan(self):
        batches = []
        for index in range(self._batch_index, len(self._plan.batches)):
            batch = self._plan.batches[index]
            keys = (
                batch.keys[self._offset :]
                if index == self._batch_index
                else batch.keys
            )
            if keys:
                batches.append(
                    MoveBatch(
                        source=batch.source,
                        destination=batch.destination,
                        keys=keys,
                    )
                )
        return MigrationPlan(
            tracked=self._plan.tracked,
            batches=tuple(batches),
            epoch=self._plan.epoch,
        )


def light_table(name, seed=5):
    return make_table(name, seed=seed, **LIGHT_CONFIGS.get(name, {}))


def grown_pair(name, servers=12, keys=2_000, seed=5, values=None):
    """Two identical planes plus the +1-server grow plan over them."""
    router = Router(light_table(name, seed=seed))
    fleet = ["srv-{:02d}".format(i) for i in range(servers)]
    router.sync(fleet)
    plane = DataPlane(router)
    key_array = np.arange(keys, dtype=np.int64)
    if values is None:
        values = ["value-{}".format(k) for k in key_array]
    plane.put_many(key_array, values)
    plane.track()
    plan = router.sync(fleet + ["srv-spare"]).plan
    return plane.clone(), plane.clone(), plan


def assert_planes_identical(scalar_plane, bulk_plane):
    """Stores must match byte-for-byte, insertion order included."""
    ids = set(scalar_plane.stores) | set(bulk_plane.stores)
    for server_id in ids:
        scalar_store = scalar_plane.store(server_id)
        bulk_store = bulk_plane.store(server_id)
        assert scalar_store.keys() == bulk_store.keys(), server_id
        assert scalar_store.nbytes == bulk_store.nbytes, server_id
        for key, value in scalar_store.items():
            seen = bulk_store.get(key)
            assert seen is value or seen == value, (server_id, key)


def assert_executors_identical(scalar, bulk):
    assert scalar.status == bulk.status
    assert scalar.copied_keys == bulk.copied_keys


@pytest.mark.parametrize("name", registered_algorithms())
class TestBulkMatchesScalar:
    def test_full_run(self, name):
        scalar_plane, bulk_plane, plan = grown_pair(name)
        scalar = ScalarExecutor(plan, scalar_plane)
        bulk = MigrationExecutor(plan, bulk_plane)
        scalar.run()
        bulk.run()
        assert_executors_identical(scalar, bulk)
        assert_planes_identical(scalar_plane, bulk_plane)
        assert bulk.verify() == bulk.status.copied

    def test_byte_throttled_run(self, name):
        scalar_plane, bulk_plane, plan = grown_pair(name)
        scalar = ScalarExecutor(
            plan, scalar_plane, max_keys_per_tick=96, max_bytes_per_tick=512
        )
        bulk = MigrationExecutor(
            plan, bulk_plane, max_keys_per_tick=96, max_bytes_per_tick=512
        )
        scalar.run()
        bulk.run()
        # Identical tick boundaries prove the prefix-summed cursor
        # admits exactly the keys the per-key budget loop did.
        assert_executors_identical(scalar, bulk)
        assert_planes_identical(scalar_plane, bulk_plane)

    def test_mid_plan_resume(self, name):
        scalar_plane, bulk_plane, plan = grown_pair(name)
        if plan.total_keys < 2:
            pytest.skip("plan too small to split")
        scalar = ScalarExecutor(plan, scalar_plane, max_keys_per_tick=37)
        bulk = MigrationExecutor(plan, bulk_plane, max_keys_per_tick=37)
        for __ in range(3):
            scalar.tick()
            bulk.tick()
        assert_executors_identical(scalar, bulk)
        scalar_tail = scalar.remaining_plan()
        bulk_tail = bulk.remaining_plan()
        assert scalar_tail.batches == bulk_tail.batches
        assert scalar_tail.tracked == bulk_tail.tracked
        # Fresh executors over the tails drain to identical state.
        ScalarExecutor(scalar_tail, scalar_plane).run()
        MigrationExecutor(bulk_tail, bulk_plane).run()
        assert_planes_identical(scalar_plane, bulk_plane)

    def test_pre_deleted_keys_are_skipped_identically(self, name):
        scalar_plane, bulk_plane, plan = grown_pair(name)
        doomed = list(plan.moves)[::3]
        if not doomed:
            pytest.skip("no moves planned")
        # Delete at the *source* store: post-epoch routing already
        # points at the destination, where the key never arrived.
        for move in doomed:
            scalar_plane.store(move.source).delete(move.key)
            bulk_plane.store(move.source).delete(move.key)
        scalar = ScalarExecutor(plan, scalar_plane)
        bulk = MigrationExecutor(plan, bulk_plane)
        scalar.run()
        bulk.run()
        assert bulk.status.skipped == len(doomed)
        assert_executors_identical(scalar, bulk)
        assert_planes_identical(scalar_plane, bulk_plane)

    def test_retained_sources(self, name):
        scalar_plane, bulk_plane, plan = grown_pair(name)
        scalar = ScalarExecutor(plan, scalar_plane, delete_source=False)
        bulk = MigrationExecutor(plan, bulk_plane, delete_source=False)
        scalar.run()
        bulk.run()
        assert_executors_identical(scalar, bulk)
        assert_planes_identical(scalar_plane, bulk_plane)
        # Sources kept every key: both copies readable.
        for move in plan.moves:
            assert move.key in scalar_plane.store(move.source)
            assert move.key in bulk_plane.store(move.destination)


class TestMixedValueBatches:
    """Non-numeric batches must take the exact pricing path."""

    def _values(self, keys):
        cycle = [
            b"blob-bytes",
            "a string value",
            None,
            np.arange(4, dtype=np.int64),
            3.5,
            {"nested": "dict"},
        ]
        return [cycle[int(k) % len(cycle)] for k in keys]

    @pytest.mark.parametrize("name", ["modular", "hd", "maglev"])
    def test_mixed_values_bit_exact(self, name):
        keys = np.arange(1_500, dtype=np.int64)
        scalar_plane, bulk_plane, plan = grown_pair(
            name, keys=1_500, values=self._values(keys)
        )
        scalar = ScalarExecutor(plan, scalar_plane, max_keys_per_tick=64)
        bulk = MigrationExecutor(plan, bulk_plane, max_keys_per_tick=64)
        scalar.run()
        bulk.run()
        assert_executors_identical(scalar, bulk)
        assert_planes_identical(scalar_plane, bulk_plane)

    def test_mixed_key_types_bit_exact(self):
        router = Router(light_table("modular"))
        fleet = ["srv-{:02d}".format(i) for i in range(8)]
        router.sync(fleet)
        plane = DataPlane(router)
        for index in range(400):
            key = index if index % 2 else "key:{}".format(index)
            plane.put(key, "value-{}".format(index))
        plane.track()
        plan = router.sync(fleet + ["srv-spare"]).plan
        scalar_plane, bulk_plane = plane.clone(), plane.clone()
        scalar = ScalarExecutor(plan, scalar_plane, max_keys_per_tick=50)
        bulk = MigrationExecutor(plan, bulk_plane, max_keys_per_tick=50)
        scalar.run()
        bulk.run()
        assert_executors_identical(scalar, bulk)
        assert_planes_identical(scalar_plane, bulk_plane)


class TestProcessedViews:
    """The flat cursor's views must match the scalar cursor's at every
    tick boundary, including mid-batch stops and empty batches."""

    def test_processed_and_remaining_partition_the_plan(self):
        scalar_plane, bulk_plane, plan = grown_pair("modular", keys=2_000)
        bulk = MigrationExecutor(plan, bulk_plane, max_keys_per_tick=53)
        seen = []
        while not bulk.status.done:
            bulk.tick()
            processed = [
                (batch.source, batch.destination, key)
                for batch, keys in bulk.processed_batches()
                for key in keys
            ]
            remaining = [
                (batch.source, batch.destination, key)
                for batch in bulk.remaining_plan().batches
                for key in batch.keys
            ]
            all_moves = [
                (move.source, move.destination, move.key)
                for move in plan.moves
            ]
            assert processed + remaining == all_moves
            seen.append(len(processed))
        assert seen[-1] == plan.total_keys

    def test_processed_batches_match_moves(self):
        __, bulk_plane, plan = grown_pair("rendezvous", keys=1_000)
        bulk = MigrationExecutor(plan, bulk_plane, max_keys_per_tick=41)
        bulk.tick()
        bulk.tick()
        flattened = [
            (batch.source, batch.destination, key)
            for batch, keys in bulk.processed_batches()
            for key in keys
        ]
        progress = bulk.status.planned - bulk.status.remaining
        assert 0 < progress < plan.total_keys
        assert flattened == [
            (move.source, move.destination, move.key)
            for move in plan.moves[:progress]
        ]
