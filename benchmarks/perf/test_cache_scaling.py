"""Acceptance: an evicting cache batch costs the same at any capacity.

An overflowing ``HotKeyCache.put_many`` evicts its overflow as one
slice off the least recently used end of the cache's ``OrderedDict``,
so its cost follows the batch, not the cache.  A 256-new-key batch
into a full cache evicts 256 entries; it must cost at most 1.5x as much
at capacity 262,144 as at 4,096.  The array-backed cache this replaced
picked its victims by an ``argpartition`` over the whole recency-stamp
column, so it cost 5.4-5.7x as much.

Every timed batch brings 256 keys neither cache has held, so each one
evicts exactly 256 entries from an equally full cache.  Both capacities
are timed alternately, in the same process, and the ratio of their
best times is compared, so the gate does not swing with host speed the
way raw-rate floors do.
"""

from __future__ import annotations

from repro.perf.throughput import _best_seconds
from repro.serve import HotKeyCache

#: Capacities compared, and the largest allowed cost ratio between them.
_SMALL_CACHE, _LARGE_CACHE = 4_096, 262_144
CAPACITY_COST_CEILING = 1.5

#: New keys per batch (each evicts one entry).
_BATCH = 256

#: Batches per timed call, best-of-N repeats, and alternating rounds.
_BATCHES = 20
_REPEATS = 5
_ROUNDS = 3


def _full_cache(capacity):
    cache = HotKeyCache(capacity)
    keys = list(range(capacity))
    cache.put_many(keys, keys)
    return cache


def test_evicting_batch_cost_is_flat_in_capacity(capsys):
    caches = {
        capacity: _full_cache(capacity) for capacity in (_SMALL_CACHE, _LARGE_CACHE)
    }
    # ``_best_seconds`` adds one warm-up call to the repeats.
    batches_per_cache = _ROUNDS * (_REPEATS + 1) * _BATCHES
    start = _LARGE_CACHE  # above every key either cache holds
    fresh = [
        list(range(start + index * _BATCH, start + (index + 1) * _BATCH))
        for index in range(batches_per_cache)
    ]
    streams = {capacity: iter(fresh) for capacity in caches}
    values = list(range(_BATCH))

    def batches(capacity):
        cache, stream = caches[capacity], streams[capacity]
        for __ in range(_BATCHES):
            cache.put_many(next(stream), values)

    best = {capacity: float("inf") for capacity in caches}
    for __ in range(_ROUNDS):
        for capacity in caches:
            seconds = _best_seconds(lambda: batches(capacity), repeats=_REPEATS)
            best[capacity] = min(best[capacity], seconds / _BATCHES)

    for capacity, cache in caches.items():
        assert len(cache) == capacity
        assert cache.evictions == batches_per_cache * _BATCH
        assert cache.keys()[-_BATCH:] == tuple(fresh[-1])
    ratio = best[_LARGE_CACHE] / best[_SMALL_CACHE]
    with capsys.disabled():
        print(
            "\n{}-key evicting put_many: {:.0f} us at capacity {:,}, "
            "{:.0f} us at {:,} -> {:.2f}x".format(
                _BATCH,
                best[_SMALL_CACHE] * 1e6,
                _SMALL_CACHE,
                best[_LARGE_CACHE] * 1e6,
                _LARGE_CACHE,
                ratio,
            )
        )
    assert ratio <= CAPACITY_COST_CEILING
