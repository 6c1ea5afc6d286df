"""LRU-oracle property suite for the hot-key cache's bulk calls.

:class:`~repro.serve.HotKeyCache` promises bit-equivalence with a
plain ``OrderedDict`` LRU issuing one scalar call per key, on *every*
op sequence -- scalar ops, bulk ops, and any interleaving -- covering
contents, eviction (LRU) order, and the hit/miss/eviction/invalidation
counters.  This suite drives random schedules of
get/put/invalidate/flush (scalar and bulk, including capacity 1,
duplicate keys inside one batch, and invalidation mid-stream) against
the reference implementation below and asserts the full observable
state after every step.

The serving tier's installs (``admit_many`` for a batch's read misses,
``write_many`` for its puts) earn their evictions; ``OracleAdmission``
restates that rule as a plain loop over the same ``OrderedDict`` plus a
``set`` doorkeeper, and its schedules check all five counters.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.serve import HotKeyCache

_ABSENT = object()


class OracleLRU:
    """The reference LRU: OrderedDict + move_to_end, one key per call."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key, default=None):
        value = self.entries.get(key, _ABSENT)
        if value is _ABSENT:
            self.misses += 1
            return default
        self.hits += 1
        self.entries.move_to_end(key)
        return value

    def put(self, key, value):
        self.entries[key] = value
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key):
        if self.entries.pop(key, _ABSENT) is _ABSENT:
            return False
        self.invalidations += 1
        return True

    def flush(self):
        dropped = len(self.entries)
        self.entries.clear()
        self.invalidations += dropped
        return dropped

    def keys(self):
        return tuple(self.entries)


def assert_equivalent(cache: HotKeyCache, oracle: OracleLRU) -> None:
    """Full observable-state equality: contents, LRU order, counters."""
    assert len(cache) == len(oracle.entries)
    assert cache.keys() == oracle.keys()
    for key, value in oracle.entries.items():
        assert key in cache
        assert cache.peek(key, _ABSENT) is value
    assert cache.hits == oracle.hits
    assert cache.misses == oracle.misses
    assert cache.evictions == oracle.evictions
    assert cache.invalidations == oracle.invalidations


def drive(cache, oracle, rng, steps, universe, batch_max=24, ops=8):
    """One random schedule over both implementations, checked stepwise.

    ``ops`` below 8 leaves out the later ops: at 5, every step is a get
    or a put.
    """
    for step in range(steps):
        op = rng.integers(0, ops)
        if op <= 1:  # scalar get
            key = int(rng.integers(0, universe))
            assert cache.get(key, _ABSENT) is oracle.get(key, _ABSENT)
        elif op == 2:  # scalar put
            key = int(rng.integers(0, universe))
            value = object()
            cache.put(key, value)
            oracle.put(key, value)
        elif op == 3:  # bulk get (duplicates allowed)
            keys = rng.integers(0, universe, rng.integers(0, batch_max))
            keys = [int(key) for key in keys]
            values, found = cache.get_many(keys, default=_ABSENT)
            expected = [oracle.get(key, _ABSENT) for key in keys]
            assert list(found) == [want is not _ABSENT for want in expected]
            for got, want in zip(values, expected):
                assert got is want
        elif op == 4:  # bulk put (duplicates allowed)
            keys = rng.integers(0, universe, rng.integers(0, batch_max))
            keys = [int(key) for key in keys]
            values = [object() for __ in keys]
            cache.put_many(keys, values)
            for key, value in zip(keys, values):
                oracle.put(key, value)
        elif op == 5:  # scalar invalidate
            key = int(rng.integers(0, universe))
            assert cache.invalidate(key) == oracle.invalidate(key)
        elif op == 6:  # bulk invalidate mid-stream
            keys = rng.integers(0, universe, rng.integers(0, batch_max))
            keys = [int(key) for key in keys]
            evicted = cache.invalidate_many(keys)
            assert evicted == sum(oracle.invalidate(key) for key in keys)
        else:  # occasional flush
            if rng.integers(0, 10) == 0:
                assert cache.flush() == oracle.flush()
        assert_equivalent(cache, oracle)


class TestOracleEquivalence:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 7, 32])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedules(self, capacity, seed):
        rng = np.random.default_rng(1000 * capacity + seed)
        # A universe a few times the capacity keeps hits, misses,
        # evictions and re-puts of just-evicted keys all frequent, but
        # almost never an all-hit bulk get.  One the cache holds whole
        # mixes resident, new and repeated keys in every batch; driven
        # with gets and puts only, it makes nearly every bulk get an
        # all-hit batch, duplicates included.
        for universe, ops in ((3 * capacity + 4, 8), (capacity, 8), (capacity, 5)):
            cache = HotKeyCache(capacity)
            oracle = OracleLRU(capacity)
            drive(cache, oracle, rng, steps=220, universe=universe, ops=ops)

    @pytest.mark.parametrize("seed", range(3))
    def test_batches_larger_than_capacity(self, seed):
        # Batches wider than the whole cache: every put_many overflows,
        # and a key can be inserted, evicted and re-inserted inside ONE
        # batch -- the sequential eviction schedule must be reproduced
        # event for event.
        rng = np.random.default_rng(77 + seed)
        cache = HotKeyCache(4)
        oracle = OracleLRU(4)
        drive(cache, oracle, rng, steps=150, universe=10, batch_max=13)

    def test_capacity_one_duplicate_batch(self):
        cache = HotKeyCache(1)
        oracle = OracleLRU(1)
        values = [object() for __ in range(4)]
        keys = ["a", "b", "a", "a"]
        cache.put_many(keys, values)
        for key, value in zip(keys, values):
            oracle.put(key, value)
        assert_equivalent(cache, oracle)
        assert cache.keys() == ("a",)
        assert cache.peek("a") is values[-1]

    def test_bulk_equals_scalar_sequences(self):
        # The same op stream issued bulk on one cache and scalar on
        # another must leave identical observable state.
        rng = np.random.default_rng(5)
        bulk = HotKeyCache(8)
        scalar = HotKeyCache(8)
        for __ in range(60):
            keys = [int(key) for key in rng.integers(0, 20, 9)]
            values = [object() for __ in keys]
            bulk.put_many(keys, values)
            for key, value in zip(keys, values):
                scalar.put(key, value)
            probes = [int(key) for key in rng.integers(0, 20, 7)]
            got, found = bulk.get_many(probes, default=_ABSENT)
            for position, key in enumerate(probes):
                want = scalar.get(key, _ABSENT)
                assert got[position] is want
                assert bool(found[position]) == (want is not _ABSENT)
            drops = [int(key) for key in rng.integers(0, 20, 3)]
            assert bulk.invalidate_many(drops) == sum(
                scalar.invalidate(key) for key in drops
            )
            assert bulk.keys() == scalar.keys()
            assert (bulk.hits, bulk.misses, bulk.evictions) == (
                scalar.hits,
                scalar.misses,
                scalar.evictions,
            )


def _filled(capacity, keys):
    """A cache and its oracle, both holding ``keys`` (first = oldest)."""
    cache, oracle = HotKeyCache(capacity), OracleLRU(capacity)
    for key in keys:
        value = object()
        cache.put(key, value)
        oracle.put(key, value)
    return cache, oracle


def _put_both(cache, oracle, keys):
    values = [object() for __ in keys]
    cache.put_many(keys, values)
    for key, value in zip(keys, values):
        oracle.put(key, value)
    assert_equivalent(cache, oracle)


class TestEvictionFastPath:
    """Overflowing ``put_many``: the LRU-end slice vs the replay."""

    def test_refreshed_key_among_the_victims(self):
        # "a" is the oldest entry and would be the first victim, but the
        # batch refreshes it after "x" has already evicted it: the
        # sequential schedule re-inserts "a" and evicts two more.
        cache, oracle = _filled(4, "abcd")
        _put_both(cache, oracle, ["x", "a", "y"])
        assert cache.keys() == ("d", "x", "a", "y")
        assert cache.evictions == 3

    def test_refresh_ahead_of_the_eviction_spares_the_entry(self):
        cache, oracle = _filled(4, "abcd")
        _put_both(cache, oracle, ["a", "x", "y"])
        assert cache.keys() == ("d", "a", "x", "y")
        assert cache.evictions == 2

    def test_repeated_new_key_in_an_evicting_batch(self):
        cache, oracle = _filled(4, "abcd")
        _put_both(cache, oracle, ["x", "y", "x", "z", "y"])
        assert cache.keys() == ("d", "x", "z", "y")
        assert cache.evictions == 3

    def test_partly_free_cache_fills_free_slots_before_evicting(self):
        cache, oracle = _filled(5, "abc")
        _put_both(cache, oracle, ["w", "b", "x", "y", "z"])
        assert cache.keys() == ("w", "b", "x", "y", "z")
        assert cache.evictions == 2

    @pytest.mark.parametrize(
        "batch", [["b"], ["b", "c"], ["a", "b"], ["b", "b"], ["b", "a", "b"]]
    )
    def test_capacity_one(self, batch):
        cache, oracle = _filled(1, "a")
        _put_both(cache, oracle, batch)

    def test_plain_overflow_never_replays(self, monkeypatch):
        def replay(*args):
            raise AssertionError("a plain overflowing batch replayed")

        monkeypatch.setattr(HotKeyCache, "_put_many_evicting", replay)
        cache, oracle = _filled(8, range(8))
        # New keys plus refreshes of entries younger than every victim.
        _put_both(cache, oracle, [100, 7, 101, 6, 102, 100])
        assert cache.evictions == 3
        _put_both(cache, oracle, list(range(200, 208)))
        assert cache.evictions == 11


class TestBulkSurfaces:
    def test_get_many_shapes_and_defaults(self):
        cache = HotKeyCache(8)
        cache.put_many(["a", "b"], [1, None])
        values, found = cache.get_many(["a", "b", "ghost"])
        assert list(found) == [True, True, False]
        assert values[0] == 1
        assert values[1] is None  # cached None is a hit, not a default
        assert values[2] is None
        values, found = cache.get_many(["ghost"], default="d")
        assert values[0] == "d" and not found[0]
        values, found = cache.get_many([])
        assert values.shape == (0,) and found.shape == (0,)
        # A sequence default fills each miss whole, as scalar ``get``
        # returns it -- with one hit among the misses and with none.
        pair = (0, 0)
        for keys in (["a", "ghost", "nope"], ["ghost", "nope", "gone"]):
            values, found = cache.get_many(keys, default=pair)
            assert values.shape == (3,)
            for value, hit in zip(values, found):
                assert value == 1 if hit else value is pair
        assert cache.get("ghost", pair) is pair
        row = np.arange(2)
        values, found = cache.get_many(["ghost", "a", "nope"], default=row)
        assert values[0] is row and values[1] == 1 and values[2] is row

    def test_get_many_duplicate_key_counts_each_position(self):
        cache = HotKeyCache(4)
        cache.put("k", "v")
        values, found = cache.get_many(["k", "k", "nope"])
        assert cache.hits == 2 and cache.misses == 1
        assert list(found) == [True, True, False]

    def test_put_many_rejects_misaligned_batches(self):
        cache = HotKeyCache(4)
        with pytest.raises(ValueError, match="aligned"):
            cache.put_many(["a"], [1, 2])

    @pytest.mark.parametrize(
        "payload",
        [
            [np.arange(3), np.arange(5)],
            [np.arange(3), np.arange(3)],
            [(1, 2), (3, 4)],
        ],
    )
    def test_put_many_array_values_stay_intact(self, payload):
        # Stored values may be arrays or tuples; the scatter must never
        # broadcast them elementwise.
        cache = HotKeyCache(4)
        cache.put_many(["a", "b"], payload)
        assert cache.peek("a") is payload[0]
        assert cache.peek("b") is payload[1]
        values, found = cache.get_many(["b"])
        assert values[0] is payload[1] and found[0]
        values, found = cache.get_many(["a", "b"])
        assert values[0] is payload[0] and values[1] is payload[1]
        assert found.all()

    def test_numpy_int64_keys_act_like_their_builtin_twins(self):
        # Numpy integer keys hash and compare like Python ints: the
        # same batches, as int64 arrays, must hit, refresh and evict
        # exactly as the oracle fed their ``tolist()`` twins.
        rng = np.random.default_rng(11)
        cache, oracle = HotKeyCache(8), OracleLRU(8)
        for __ in range(60):
            keys = rng.integers(0, 14, rng.integers(1, 10))
            values = [object() for __ in keys]
            cache.put_many(keys, values)
            for key, value in zip(keys.tolist(), values):
                oracle.put(key, value)
            probes = rng.integers(0, 14, rng.integers(1, 10))
            for resident in (False, True):
                if resident:
                    probes = np.array(cache.keys()[-4:], dtype=np.int64)
                got, found = cache.get_many(probes, default=_ABSENT)
                expected = [oracle.get(key, _ABSENT) for key in probes.tolist()]
                assert list(found) == [want is not _ABSENT for want in expected]
                assert all(a is b for a, b in zip(got, expected))
            drops = rng.integers(0, 14, 2)
            assert cache.invalidate_many(drops) == sum(
                oracle.invalidate(key) for key in drops.tolist()
            )
            assert_equivalent(cache, oracle)

    def test_key_set_is_membership_view(self):
        cache = HotKeyCache(4)
        cache.put_many(["a", "b"], [1, 2])
        assert cache.key_set() == {"a", "b"}
        cache.invalidate("a")
        assert cache.key_set() == {"b"}


class OracleAdmission(OracleLRU):
    """The reference of the serving tier's installs: the LRU plus a set.

    A found read miss (:meth:`admit`) that would evict installs only when
    the doorkeeper holds its key; otherwise it is declined and joins the
    doorkeeper, which is cleared once it holds more than ``capacity``
    keys.  A put (:meth:`write`) that would evict is declined and never
    touches the doorkeeper.
    """

    def __init__(self, capacity):
        super().__init__(capacity)
        self.door = set()
        self.rejections = 0

    def admit(self, key, value):
        entries = self.entries
        if key in entries or len(entries) < self.capacity or key in self.door:
            self.put(key, value)
            return
        self.rejections += 1
        self.door.add(key)
        if len(self.door) > self.capacity:
            self.door.clear()

    def write(self, key, value):
        if key in self.entries or len(self.entries) < self.capacity:
            self.put(key, value)
        else:
            self.rejections += 1


def assert_admission_equivalent(cache: HotKeyCache, oracle: OracleAdmission) -> None:
    """Contents, LRU order and all five counters."""
    assert_equivalent(cache, oracle)
    assert cache.rejections == oracle.rejections


def drive_admission(cache, oracle, rng, steps, universe, batch_max=24):
    """A random schedule of the batcher-facing calls, checked stepwise.

    Installs of a batch's misses (the keys not cached, repeats and
    not-found positions included, as the batcher hands them over) and
    batched puts dominate; bulk gets refresh recency, and invalidations
    and the odd flush open free room mid-stream.
    """
    for __ in range(steps):
        op = rng.integers(0, 10)
        size = int(rng.integers(0, batch_max))
        keys = [int(key) for key in rng.integers(0, universe, size)]
        if op <= 3:
            keys = [key for key in keys if key not in cache]
        values = [object() for __ in keys]
        if op <= 3:
            found = (rng.random(len(keys)) < 0.85).tolist()
            cache.admit_many(keys, values, found)
            for key, value, present in zip(keys, values, found):
                if present:
                    oracle.admit(key, value)
        elif op <= 6:
            cache.write_many(keys, values)
            for key, value in zip(keys, values):
                oracle.write(key, value)
        elif op == 7:
            got, found = cache.get_many(keys, default=_ABSENT)
            expected = [oracle.get(key, _ABSENT) for key in keys]
            assert list(found) == [want is not _ABSENT for want in expected]
            assert all(a is b for a, b in zip(got, expected))
        elif op == 8:
            drops = keys[: size // 4]
            assert cache.invalidate_many(drops) == sum(
                oracle.invalidate(key) for key in drops
            )
        elif rng.integers(0, 6) == 0:
            assert cache.flush() == oracle.flush()
        assert_admission_equivalent(cache, oracle)


class TestAdmissionOracle:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 7, 32])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedules(self, capacity, seed):
        rng = np.random.default_rng(5000 + 1000 * capacity + seed)
        # A universe far past the capacity keeps the cache full and the
        # doorkeeper overflowing; one a few times the capacity repeats
        # keys often enough that refreshed puts, second misses and
        # evictions of batch-mates all happen.
        for universe in (40 * capacity + 40, 3 * capacity + 4):
            cache = HotKeyCache(capacity)
            oracle = OracleAdmission(capacity)
            drive_admission(cache, oracle, rng, steps=220, universe=universe)

    def test_doorkeeper_overflows_and_clears(self):
        cache, oracle = HotKeyCache(4), OracleAdmission(4)
        cache.put_many(range(4), range(4))
        for key in range(4):
            oracle.put(key, key)
        # Five strangers overflow a four-key doorkeeper at the fifth,
        # which clears it.  The sixth's repeat then earns its eviction,
        # while the first's second miss, after the clear, is declined
        # again.
        keys = [10, 11, 12, 13, 14, 15, 15, 10]
        values = [object() for __ in keys]
        cache.admit_many(keys, values, [True] * len(keys))
        for key, value in zip(keys, values):
            oracle.admit(key, value)
        assert_admission_equivalent(cache, oracle)
        assert cache.rejections == 7
        assert cache.keys() == (1, 2, 3, 15)
        assert oracle.door == {10, 15}

    def test_a_read_batch_admits_nothing_without_an_install_call(self, monkeypatch):
        cache = HotKeyCache(8)
        cache.put_many(range(8), range(8))
        calls = []
        monkeypatch.setattr(cache, "put_many", lambda *args: calls.append(args))
        cache.admit_many(list(range(100, 120)), list(range(20)), [True] * 20)
        cache.write_many(list(range(200, 210)), list(range(10)))
        assert calls == []
        assert cache.rejections == 30 and cache.evictions == 0

    def test_a_batch_of_distinct_misses_lands_in_one_install(self, monkeypatch):
        def one_by_one(*args):
            raise AssertionError("a batch of distinct misses went key by key")

        cache, oracle = HotKeyCache(8), OracleAdmission(8)
        cache.put_many(range(8), range(8))
        for key in range(8):
            oracle.put(key, key)
        installs = []
        put_many = cache.put_many

        def recorded(keys, values):
            installs.append(list(keys))
            put_many(keys, values)

        monkeypatch.setattr(cache, "put_many", recorded)
        monkeypatch.setattr(HotKeyCache, "_admit_one_by_one", one_by_one)
        # Strangers first, then two of them back (second misses) among
        # new strangers: one install of the two, in batch order.
        for keys in ([20, 21, 22], [23, 21, 24, 20, 25]):
            values = [object() for __ in keys]
            cache.admit_many(keys, values, [True] * len(keys))
            for key, value in zip(keys, values):
                oracle.admit(key, value)
            assert_admission_equivalent(cache, oracle)
        assert installs == [[21, 20]]
        assert cache.rejections == 6 and cache.evictions == 2
        assert oracle.door == {20, 21, 22, 23, 24, 25}

    def test_install_calls_reject_misaligned_batches(self):
        cache = HotKeyCache(4)
        with pytest.raises(ValueError, match="aligned"):
            cache.admit_many(["a", "b"], [1, 2], [True])
        with pytest.raises(ValueError, match="aligned"):
            cache.write_many(["a"], [1, 2])
