"""Data-plane bulk ops vs scalar loops: bit-exact on every output.

``DataPlane.get_many`` / ``put_many`` / ``delete_many`` group a batch by
integer owner index (one stable sort) and scatter results back with one
fancy assignment.  This suite pins them to the scalar ``get`` / ``put``
/ ``delete`` loops on two identically built planes, comparing after
every step: the values and found mask, the returned owner ids, every
store's contents and insertion order, the order stores were opened in,
byte accounting and the mutation counter.

Covered for every registered algorithm, behind a ``Router`` and a
3-shard ``ClusterRouter``, with and without an avoided server: duplicate
keys inside one batch, absent keys, a departed server's stranded store,
mixed int/str/bytes keys as lists and as numpy batches, and tuple,
ndarray and ``None`` values (which a naive object-array scatter would
broadcast into).

``DataPlane.serve_batch`` -- a micro-batch's reads, deletes and puts in
one routing pass and one store pass -- is pinned the same way against
the documented scalar replay: every read on the pre-batch state, then
the deletes, then the puts, over random batches that repeat keys within
and across op classes, open new stores mid-batch and are large enough,
now and then, to be applied owner run by owner run.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.hashing import make_table, registered_algorithms
from repro.service import ClusterRouter, Router
from repro.store import DataPlane

#: Constructor overrides keeping the expensive tables test-sized.
LIGHT_CONFIGS = {
    "hd": {"dim": 1_024, "codebook_size": 128},
    "maglev": {"table_size": 509},
}

FLEET = tuple("srv-{}".format(index) for index in range(6))

_ABSENT = object()


def _plane(algorithm, sharded):
    def table():
        return make_table(algorithm, seed=5, **LIGHT_CONFIGS.get(algorithm, {}))

    router = ClusterRouter(table, n_shards=3) if sharded else Router(table())
    router.sync(FLEET)
    return DataPlane(router)


def _value(index):
    """A fresh value object of one of the awkward shapes, by index."""
    shape = index % 6
    if shape == 0:
        return (index, -index)
    if shape == 1:
        return np.arange(index % 4 + 1)
    if shape == 2:
        return None
    if shape == 3:
        return "v{}".format(index)
    if shape == 4:
        return index * 7
    return [index]


def _same(got, want):
    # Values are passed to both planes as the same objects; numpy key
    # or value batches may come back as builtins on one side and numpy
    # scalars on the other, which compare equal.  An array value must
    # come back as the object put, except a row of a 2-d value batch:
    # each side cuts its own view of that row, so the two must be views
    # of the same buffer at the same place (never a copy).
    if got is want:
        return True
    if isinstance(got, np.ndarray) and isinstance(want, np.ndarray):
        return (
            got.base is not None
            and got.base is want.base
            and got.__array_interface__ == want.__array_interface__
        )
    if isinstance(got, (np.ndarray, tuple, list)) or got is None:
        return False
    return got == want


def assert_same_state(bulk, scalar):
    assert bulk.mutation_count == scalar.mutation_count
    assert bulk.total_bytes == scalar.total_bytes
    assert list(bulk.stores) == list(scalar.stores)
    for server_id, store in scalar.stores.items():
        twin = bulk.stores[server_id]
        assert twin.nbytes == store.nbytes
        assert list(twin.keys()) == list(store.keys())
        for (__, got), (__, want) in zip(twin.items(), store.items()):
            assert _same(got, want)


def _builtins(batch):
    # The scalar API takes builtin keys; a 1-d numpy batch's elements
    # are numpy scalars until ``tolist``.  A 2-d value batch replays
    # row by row, as iterating it yields each row as an array.
    if isinstance(batch, np.ndarray) and batch.ndim == 1:
        return batch.tolist()
    return batch


def scalar_put(plane, keys, values):
    return [
        plane.put(key, value)
        for key, value in zip(_builtins(keys), _builtins(values))
    ]


def scalar_get(plane, keys):
    values, found = [], []
    for key in _builtins(keys):
        value = plane.get(key, _ABSENT)
        found.append(value is not _ABSENT)
        values.append(None if value is _ABSENT else value)
    return values, found


def scalar_delete(plane, keys):
    mask = []
    for key in _builtins(keys):
        try:
            plane.delete(key)
        except KeyError:
            mask.append(False)
        else:
            mask.append(True)
    return mask


def check_put(bulk, scalar, keys, values):
    owners = bulk.put_many(keys, values)
    assert owners.dtype == object
    assert list(owners) == scalar_put(scalar, keys, values)
    assert_same_state(bulk, scalar)


def check_get(bulk, scalar, keys):
    values, found = bulk.get_many(keys)
    want_values, want_found = scalar_get(scalar, keys)
    assert values.shape == found.shape == (len(keys),)
    assert found.dtype == bool
    assert found.tolist() == want_found
    for got, want in zip(values, want_values):
        assert _same(got, want)
    assert_same_state(bulk, scalar)


def check_delete(bulk, scalar, keys):
    deleted = bulk.delete_many(keys)
    assert deleted.dtype == bool
    assert deleted.tolist() == scalar_delete(scalar, keys)
    assert_same_state(bulk, scalar)


def _mixed_keys():
    ints = list(range(-5, 25))
    strs = ["k{}".format(index) for index in range(15)]
    raw = [bytes([65 + index, 66]) for index in range(15)]
    return ints + strs + raw


@pytest.mark.parametrize("avoid", [False, True], ids=["healthy", "avoided"])
@pytest.mark.parametrize("sharded", [False, True], ids=["router", "cluster"])
@pytest.mark.parametrize("algorithm", sorted(registered_algorithms()))
def test_bulk_ops_match_scalar_loops(algorithm, sharded, avoid):
    bulk, scalar = _plane(algorithm, sharded), _plane(algorithm, sharded)
    stored = _mixed_keys()
    values = [_value(index) for index in range(len(stored))]

    # Every store opens here, in first-touch order on both planes.
    check_put(bulk, scalar, stored, values)

    # A departure strands the leaver's store; an avoided server makes
    # reads fail over (and miss) while writes keep their assignment.
    for plane in (bulk, scalar):
        plane.router.sync(FLEET[:-1])
        if avoid:
            plane.router.avoid(FLEET[1])

    # Overwrites, new keys and in-batch duplicates (last write wins).
    batch = stored[::3] + ["fresh", b"fresh", 999, stored[0], "fresh"]
    fresh = [_value(100 + index) for index in range(len(batch))]
    check_put(bulk, scalar, batch, fresh)

    # Present, stranded, absent and repeated keys, as a list and as a
    # numpy object batch.
    probe = stored + ["ghost", b"ghost", 10_000, stored[4], stored[4], "fresh"]
    check_get(bulk, scalar, probe)
    check_get(bulk, scalar, np.asarray(probe, dtype=object))

    # Deletes: present, absent, stranded and a duplicate consumed by its
    # first occurrence.
    doomed = stored[1::4] + ["ghost", stored[1], 999, 999]
    check_delete(bulk, scalar, doomed)
    check_delete(bulk, scalar, np.asarray(stored[2::5], dtype=object))

    # Equal-shape values: ``np.asarray`` turns a list of them into a 2-d
    # array, which a scatter built on it would try to broadcast.
    for shaped in ([(i, -i) for i in range(8)], [np.arange(3)] * 8):
        check_put(bulk, scalar, stored[:8], shaped)
        check_get(bulk, scalar, stored[:8])

    # Integer numpy batches: the all-numeric pricing path.
    numbers = np.arange(-3, 40, dtype=np.int64)
    numbers[5] = numbers[6]  # a duplicate inside the numeric batch
    check_put(bulk, scalar, numbers, numbers * 3)
    check_get(bulk, scalar, numbers)
    check_delete(bulk, scalar, numbers[::2])
    check_get(bulk, scalar, list(range(-3, 40)))


@pytest.mark.parametrize("sharded", [False, True], ids=["router", "cluster"])
def test_rows_of_a_2d_value_batch_are_stored_as_arrays(sharded):
    bulk, scalar = _plane("consistent", sharded), _plane("consistent", sharded)
    keys = np.arange(4, dtype=np.int64)
    rows = np.arange(8, dtype=np.int64).reshape(4, 2)
    check_put(bulk, scalar, keys, rows)
    # Four 8-byte keys and four 16-byte rows.
    assert bulk.total_bytes == 96
    values, __ = bulk.get_many(keys)
    assert [type(value) for value in values] == [np.ndarray] * 4
    assert np.array_equal(np.stack(values), rows)
    check_batch(bulk, scalar, keys, [], keys[::-1], rows[:, ::-1])
    # 64+ keys per store: applied owner run by owner run.
    many = np.arange(1_000, 1_600)
    check_put(bulk, scalar, many, np.arange(1_200.0).reshape(600, 2))
    check_get(bulk, scalar, many)


@pytest.mark.parametrize("sharded", [False, True], ids=["router", "cluster"])
def test_unsupported_keys_raise_like_the_scalar_path(sharded):
    bulk, scalar = _plane("consistent", sharded), _plane("consistent", sharded)
    with pytest.raises(TypeError):
        scalar.put((1, 2), "v")
    for keys in ([(1, 2), (3, 4)], [1, (2, 3)]):
        with pytest.raises(TypeError):
            bulk.put_many(keys, ["a", "b"])
        with pytest.raises(TypeError):
            bulk.get_many(keys)
        with pytest.raises(TypeError):
            bulk.delete_many(keys)
    assert_same_state(bulk, scalar)


def test_empty_batches_touch_nothing():
    bulk, scalar = _plane("consistent", False), _plane("consistent", False)
    check_put(bulk, scalar, [], [])
    check_get(bulk, scalar, [])
    check_delete(bulk, scalar, [])
    assert not bulk.stores


def check_batch(bulk, scalar, reads, deletes, puts, values):
    read_values, found, deleted, owners = bulk.serve_batch(reads, deletes, puts, values)
    want_values, want_found = scalar_get(scalar, reads)
    want_deleted = scalar_delete(scalar, deletes)
    want_owners = scalar_put(scalar, puts, values)
    assert read_values.shape == found.shape == (len(reads),)
    assert deleted.shape == (len(deletes),) and owners.shape == (len(puts),)
    assert found.dtype == deleted.dtype == bool and owners.dtype == object
    assert found.tolist() == want_found
    for got, want in zip(read_values, want_values):
        assert _same(got, want)
    assert deleted.tolist() == want_deleted
    assert list(owners) == want_owners
    assert_same_state(bulk, scalar)


def _random_batch(rng, universe, size):
    """Reads, deletes and puts over ``universe`` sharing some keys."""
    shared = rng.sample(universe, 3)
    reads = [rng.choice(universe) for __ in range(size)] + shared
    deletes = [rng.choice(universe) for __ in range(size // 4)] + shared[:2]
    puts = [rng.choice(universe) for __ in range(size // 2)] + shared
    puts += puts[:2]  # a key put twice: the last value wins
    deletes += deletes[:1]  # a key deleted twice: removed once
    values = [_value(rng.randrange(1_000)) for __ in puts]
    return reads, deletes, puts, values


@pytest.mark.parametrize("avoid", [False, True], ids=["healthy", "avoided"])
@pytest.mark.parametrize("sharded", [False, True], ids=["router", "cluster"])
@pytest.mark.parametrize("algorithm", sorted(registered_algorithms()))
def test_mixed_batches_match_the_scalar_replay(algorithm, sharded, avoid):
    rng = random.Random("{}-{}-{}".format(algorithm, sharded, avoid))
    bulk, scalar = _plane(algorithm, sharded), _plane(algorithm, sharded)
    universe = _mixed_keys() + ["absent-{}".format(index) for index in range(10)]
    if avoid:
        for plane in (bulk, scalar):
            plane.router.avoid(FLEET[1])

    # On an empty plane: reads and deletes find no store, and the puts
    # open every store in first-touch order.
    check_batch(bulk, scalar, *_random_batch(rng, universe, 24))

    for step in range(6):
        if step == 2:
            # A joiner owns keys but has no store until a put opens it.
            for plane in (bulk, scalar):
                plane.router.sync(FLEET + ("srv-new",))
        reads, deletes, puts, values = _random_batch(rng, universe, 24)
        if step == 3:
            # Numpy key batches of each kind.
            reads = np.asarray(reads, dtype=object)
            deletes = np.asarray([key for key in deletes if isinstance(key, int)])
            puts = np.asarray(puts, dtype=object)
        check_batch(bulk, scalar, reads, deletes, puts, values)

    # Only numeric keys, values and replaced values: new keys charge 16
    # bytes a pair and overwrites nothing, repeated puts included.
    numbers = list(range(1_000, 1_030))
    check_batch(bulk, scalar, numbers, [], numbers[::2] + [1_001] * 2, list(range(17)))
    check_batch(
        bulk,
        scalar,
        numbers,
        numbers[::3],
        numbers[1::2] + [1_004] * 2,
        [0.5 * index for index in range(17)],
    )

    # Op classes of 64+ keys per store go owner run by owner run: all
    # three in the first batch, reads and puts in the second.
    large = list(range(600))
    check_batch(
        bulk,
        scalar,
        np.asarray(large + [7, 7]),
        large[:500] + ["absent-0", 4, 4],
        np.asarray(large[100:] + [5, 5]),
        np.arange(502) * 3,
    )
    check_batch(
        bulk,
        scalar,
        large[50:],
        np.asarray(large[1::3]),
        large[:500],
        [_value(index) for index in range(500)],
    )
