"""``DataPlane.keys()`` returns what the per-key generator returned.

``keys()`` lists the store dicts in C; integer keys skip deduplication
when a sort finds no key in two stores, other keys always take it.  The
reference below is the collection it replaced: one generator over every
store's keys, ``dict.fromkeys`` to keep first occurrences, then the
same dtype rule.  Each case compares the two on order, dtype and the
type of every key.
"""

from __future__ import annotations

import numpy as np

from repro.control import ControlLoop, FleetState, ServerSpec
from repro.hashing import make_table
from repro.service import Router
from repro.store import DataPlane


def reference_keys(plane):
    collected = list(
        dict.fromkeys(key for store in plane.stores.values() for key in store.keys())
    )
    array = np.asarray(collected)
    if array.dtype.kind in ("i", "u"):
        return array
    return np.asarray(collected, dtype=object)


def assert_same_keys(plane):
    got, want = plane.keys(), reference_keys(plane)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()
    assert [type(key) for key in got] == [type(key) for key in want]
    return got


def plane_of(algorithm="consistent", servers=4):
    router = Router(make_table(algorithm, seed=11))
    router.sync(["srv-{}".format(index) for index in range(servers)])
    return DataPlane(router)


def test_integer_keys():
    plane = plane_of()
    keys = np.arange(-500, 2_500, dtype=np.int64)
    plane.put_many(keys, keys)
    got = assert_same_keys(plane)
    assert got.dtype == np.int64 and sorted(got.tolist()) == keys.tolist()


def test_keys_at_and_above_two_to_the_63():
    plane = plane_of()
    big = [2**63 + index for index in range(5)] + [2**64 - 1]
    for key in big:
        plane.store("srv-0").put(key, 1)
    assert_same_keys(plane)
    plane.store("srv-1").put(7, 1)  # a small int among them
    assert_same_keys(plane)


def test_mixed_str_bytes_and_int_keys():
    plane = plane_of()
    plane.put_many(["a", b"a", 1, "b", b"\x00", -3, 2**70], list(range(7)))
    got = assert_same_keys(plane)
    assert got.dtype == object


def test_empty_fleet_is_an_empty_object_array():
    plane = DataPlane(Router(make_table("consistent", seed=11)))
    got = assert_same_keys(plane)
    assert got.dtype == object and got.shape == (0,)
    plane.store("srv-0")  # an empty store changes nothing
    assert_same_keys(plane)


def test_a_repeat_across_key_types_keeps_the_first_and_its_dtype():
    # 1, 1.0 and True are one dict key: the first occurrence is kept
    # and the dtype follows the kept keys, not the listed ones.
    for first, second in ((1, 1.0), (1.0, 1), (True, 1)):
        plane = plane_of()
        plane.store("srv-0").put(first, 0)
        plane.store("srv-1").put(second, 0)
        assert assert_same_keys(plane).tolist() == [first]


def test_a_key_in_two_stores_mid_drain():
    router = Router(make_table("rendezvous", seed=11))
    plane = DataPlane(router)
    fleet = FleetState(ServerSpec("srv-{}".format(index)) for index in range(4))
    loop = ControlLoop(router, plane, fleet, max_keys_per_tick=64)
    loop.bootstrap()
    plane.put_many(np.arange(2_000, dtype=np.int64), range(2_000))
    plane.put_many(["s{}".format(index) for index in range(200)], range(200))
    seen = []

    def during_copy(status):
        # Copied keys sit at their source and their destination.
        if status.copied and not seen:
            assert plane.key_count > len(reference_keys(plane))
            seen.append(assert_same_keys(plane))

    loop.drain("srv-2", on_tick=during_copy)
    assert seen and seen[0].dtype == object
    assert_same_keys(plane)

    # The same with integer keys only: the sort finds the repeats.
    plane.delete_many(["s{}".format(index) for index in range(200)])
    loop.tick()
    seen.clear()
    loop.drain("srv-1", on_tick=during_copy)
    assert seen and seen[0].dtype == np.int64
