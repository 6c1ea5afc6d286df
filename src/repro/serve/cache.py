"""The hot-key cache: an ``OrderedDict`` LRU with *epoch-based* invalidation.

Zipfian traffic concentrates on a small hot set, so a small LRU in
front of the :class:`~repro.store.DataPlane` absorbs most reads.  The
hard part is staying correct while membership changes underneath: after
a resize epoch, a remapped key's routed read would miss (the key is in
flight to its new owner), so serving it from cache would diverge from
what the data plane answers.  The router already names exactly the
remapped keys -- every epoch's :class:`~repro.service.migration.
MigrationPlan` is built from the same assignment diff as the remap
accounting -- so the cache evicts precisely those keys and keeps the
rest warm.  No blanket flush, no stale entry; see
:class:`~repro.serve.frontend.EpochInvalidator` for the wiring.

The serving tier fills the cache through two calls, and an install
that would evict must be earned.  :meth:`HotKeyCache.admit_many` takes a
batch's found read misses: each installs while the cache has free room,
but once it is full a key earns an eviction only on its second miss
since the *doorkeeper* -- a plain set of the keys that missed while the
cache was full, cleared once it holds more than ``capacity`` keys -- was
last cleared (TinyLFU's doorkeeper).  :meth:`HotKeyCache.write_many`
takes a batch's puts: a put refreshes a resident entry and fills free
room, but never evicts -- a put of a non-resident key into a full cache
goes to the store only (write-around).  A delete evicts the entry.  So
a resident value always equals the store's, and a key touched once
never pushes out one that is touched again.  Each declined install
counts one ``rejections``.

The entries live in one ``OrderedDict``, least recently used first, and
each bulk call is a few C-level sweeps over its methods -- no Python
loop per key.  The scalar calls are one-key bulk calls, and a bulk call
is bit-equivalent to the scalar calls in sequence (contents, LRU order
and all five counters), which ``tests/serve/test_cache_oracle.py`` pins
against a plain ``OrderedDict`` reference (plus a ``set`` for the
doorkeeper) on random op schedules.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import compress, filterfalse, islice, repeat
from operator import itemgetter, not_, or_
from typing import Any, Iterable, Sequence, Tuple

import numpy as np

from ..hashfn import Key

__all__ = ["HotKeyCache"]

#: Default hot-set capacity.
DEFAULT_CAPACITY = 4_096

#: Runs an iterator to its end in C, keeping nothing (the ``consume``
#: recipe): drives the ``map`` sweeps whose calls matter, not results.
_exhaust = deque(maxlen=0).extend


class HotKeyCache:
    """Bounded LRU of hot keys with exact, epoch-driven invalidation."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self._capacity = int(capacity)
        #: key -> value, least recently used first.
        self._entries: OrderedDict = OrderedDict()
        #: Keys declined by :meth:`admit_many` since the last clear.
        self._doorkeeper: set = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.rejections = 0

    # -- introspection ----------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        return (
            "HotKeyCache(size={}, capacity={}, hit_rate={:.3f}, "
            "rejections={})".format(
                len(self._entries), self._capacity, self.hit_rate, self.rejections
            )
        )

    @property
    def hit_rate(self) -> float:
        """Hits per lookup, 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def keys(self) -> Tuple[Key, ...]:
        """Cached keys, least recently used first."""
        return tuple(self._entries)

    def key_set(self) -> frozenset:
        """The cached key set (no order).

        The epoch invalidator intersects each migration plan's moved
        keys against this before evicting, so a million-key plan over a
        few-thousand-entry cache costs one C-level membership sweep and
        pops only the residents.
        """
        return frozenset(self._entries)

    # -- read path ---------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        """Cached value (refreshing recency) or ``default`` on a miss."""
        return self.get_many((key,), default)[0][0]

    def get_many(
        self, keys: Sequence[Key], default: Any = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`get`: ``(values, found)`` aligned to ``keys``.

        An all-hit batch is one :meth:`_take`; a batch with misses is
        one membership sweep and a :meth:`_take` of its hits.  Misses
        carry ``default`` in ``values``.  Counter accounting matches the
        scalar loop: one hit or miss per position.

        The all-hit :meth:`_take` is tried first, although a batch with
        a miss pays for the attempt before its sweep: with 4,096
        resident int keys, sweeping first made a 256-key all-hit batch
        cost 1.3-1.5x (24.6 -> 36.0 us) and a 230-key batch at 80% hits
        or a 180-key batch at 0.4% hits no cheaper beyond noise.
        """
        n = len(keys)
        if n == 0:
            return np.empty(0, dtype=object), np.zeros(0, dtype=bool)
        try:
            hits = self._take(keys)
        except KeyError:
            pass
        else:
            self.hits += n
            # ``fromiter`` builds a flat object array, so tuple and
            # array values stay whole.
            return np.fromiter(hits, dtype=object, count=n), np.ones(n, dtype=bool)
        found = np.fromiter(map(self._entries.__contains__, keys), dtype=bool, count=n)
        values = np.empty(n, dtype=object)
        if default is not None:
            # ``fill`` stores the default whole in every cell (the hits
            # overwrite theirs); a masked assignment would broadcast a
            # tuple or array default.
            values.fill(default)
        hit_keys = list(compress(keys, found.tolist()))
        if hit_keys:
            values[found] = np.fromiter(
                self._take(hit_keys), dtype=object, count=len(hit_keys)
            )
        self.hits += len(hit_keys)
        self.misses += n - len(hit_keys)
        return values, found

    def _take(self, keys: Sequence[Key]) -> tuple:
        """Gather the values of cached ``keys`` and refresh them in order.

        One ``itemgetter`` gather (KeyError, before any refresh, if a key
        is absent), then one ``move_to_end`` sweep in batch order: a key
        repeated in the batch ends where its last position puts it,
        exactly as sequential gets would leave it.
        """
        entries = self._entries
        values = itemgetter(*keys)(entries) if len(keys) > 1 else (entries[keys[0]],)
        _exhaust(map(entries.move_to_end, keys))
        return values

    def peek(self, key: Key, default: Any = None) -> Any:
        """Like :meth:`get` but touches neither recency nor counters."""
        return self._entries.get(key, default)

    # -- write path --------------------------------------------------------

    def put(self, key: Key, value: Any) -> None:
        """Insert/refresh an entry, evicting the LRU past capacity."""
        self.put_many((key,), (value,))

    def put_many(self, keys: Sequence[Key], values: Sequence[Any]) -> None:
        """Batched :meth:`put`, bit-equivalent to the sequential loop.

        The overflow -- distinct new keys beyond the free room -- is
        evicted first, as one ``islice`` off the LRU end; the batch then
        lands with one ``update`` (last write wins) and one
        ``move_to_end`` sweep.  A batch only moves its own keys behind
        every other entry, so sequential puts evict exactly those oldest
        entries -- unless the batch refreshes one of them (sequentially
        kept, or evicted and re-inserted, depending on where its refresh
        falls) or has more new keys than the cache holds.  Those batches
        replay put by put (:meth:`_put_many_evicting`).
        """
        n = len(keys)
        if n != len(values):
            raise ValueError(
                "put_many needs aligned batches, got {} keys and {} "
                "values".format(n, len(values))
            )
        if n == 0:
            return
        entries = self._entries
        overflow = len(entries) + n - self._capacity
        if overflow > 0:
            distinct = set(keys)
            overflow -= n - len(distinct)
            overflow -= sum(map(entries.__contains__, distinct))
        if overflow > 0:
            victims = list(islice(entries, overflow))
            if len(victims) < overflow or not distinct.isdisjoint(victims):
                self._put_many_evicting(keys, values)
                return
            _exhaust(map(entries.__delitem__, victims))
            self.evictions += overflow
        entries.update(zip(keys, values))
        _exhaust(map(entries.move_to_end, keys))

    def _put_many_evicting(self, keys: Sequence[Key], values: Sequence[Any]) -> None:
        """:meth:`put_many`'s exact fallback: the sequential LRU replay."""
        entries = self._entries
        capacity = self._capacity
        evictions = 0
        for key, value in zip(keys, values):
            entries[key] = value
            entries.move_to_end(key)
            if len(entries) > capacity:
                entries.popitem(last=False)
                evictions += 1
        self.evictions += evictions

    # -- the serving tier's installs ---------------------------------------

    def admit_many(
        self, keys: Sequence[Key], values: Sequence[Any], found: Sequence[bool]
    ) -> None:
        """Install a batch's found read misses; an eviction must be earned.

        ``keys`` are the batch's cache misses (none is resident when the
        call starts; a key may repeat), ``values`` and ``found`` the data
        plane's answer for them, and only found keys are candidates.  In
        batch order, a candidate resident by then (a repeat) is refreshed
        and one that fits the free room is installed, both as :meth:`put`
        does.  One that would evict is installed only when its key is in
        the doorkeeper; otherwise it is declined (one ``rejections``) and
        joins the doorkeeper, which is cleared once it holds more than
        ``capacity`` keys.  So a batch that only partly fits the free
        room fills it with its first new keys and the rest meet the
        doorkeeper, and a key repeated in one batch earns its eviction at
        its second position.

        A batch that fits the free room lands in one :meth:`put_many`.
        Against a full cache every position is admitted but a
        stranger's (a key not in the doorkeeper), so the admitted keys
        land in one :meth:`put_many` and a batch of strangers makes no
        call -- unless a stranger repeats or the doorkeeper overflows
        mid-batch.  Those batches, and a partly free cache, take the
        rule key by key (:meth:`_admit_one_by_one`).
        """
        mask = np.asarray(found, dtype=bool).tolist()
        if not len(keys) == len(values) == len(mask):
            raise ValueError(
                "admit_many needs aligned batches, got {} keys, {} values "
                "and {} found flags".format(len(keys), len(values), len(mask))
            )
        keys = list(compress(keys, mask))
        n = len(keys)
        if not n:
            return
        values = compress(values, mask)  # read only when something installs
        door = self._doorkeeper
        capacity = self._capacity
        room = capacity - len(self._entries)
        if room:
            if len(set(keys)) <= room:
                self.put_many(keys, list(values))
                return
        elif len(door) + n <= capacity and door.isdisjoint(keys):
            # A batch of strangers: every candidate is declined, unless
            # one repeats.
            before = len(door)
            door.update(keys)
            if len(door) - before == n:
                self.rejections += n
                return
            door.difference_update(keys)
        else:
            strangers = set(filterfalse(door.__contains__, keys))
            kept = list(map(not_, map(strangers.__contains__, keys)))
            admitted = kept.count(True)
            # In bulk unless a stranger repeats (its repeat is a second
            # miss) or the doorkeeper would overflow mid-batch.
            if n - admitted == len(strangers) and (
                len(door) + len(strangers) <= capacity
            ):
                self.rejections += len(strangers)
                door.update(strangers)
                self.put_many(
                    list(compress(keys, kept)), list(compress(values, kept))
                )
                return
        self._admit_one_by_one(keys, values)

    def _admit_one_by_one(self, keys: Sequence[Key], values: Iterable[Any]) -> None:
        """:meth:`admit_many`'s exact fallback: the rule, key by key."""
        entries = self._entries
        door = self._doorkeeper
        capacity = self._capacity
        for key, value in zip(keys, values):
            if key in entries or len(entries) < capacity or key in door:
                self.put_many((key,), (value,))
            else:
                self.rejections += 1
                door.add(key)
                if len(door) > capacity:
                    door.clear()

    def write_many(self, keys: Sequence[Key], values: Sequence[Any]) -> None:
        """Write a batch of puts into the cache; a put never evicts.

        In batch order, a put of a resident key refreshes it and a put
        that fits the free room installs it, both as :meth:`put` does.  A
        put that would evict goes to the store only (write-around): it is
        declined and counted in ``rejections``, and the doorkeeper never
        sees it.  So a batch that only partly fits the free room installs
        its first new keys, as many as the room holds, and declines every
        position of the others.  The kept puts land in one
        :meth:`put_many`; a batch that keeps none makes no call.
        """
        n = len(keys)
        if n != len(values):
            raise ValueError(
                "write_many needs aligned batches, got {} keys and {} "
                "values".format(n, len(values))
            )
        entries = self._entries
        room = self._capacity - len(entries)
        if n <= room:
            self.put_many(keys, values)
            return
        kept = list(map(entries.__contains__, keys))
        if room:
            fresh = list(dict.fromkeys(compress(keys, map(not_, kept))))
            if len(fresh) <= room:
                self.put_many(keys, values)
                return
            joining = set(fresh[:room])
            kept = list(map(or_, kept, map(joining.__contains__, keys)))
        admitted = kept.count(True)
        self.rejections += n - admitted
        if admitted:
            self.put_many(list(compress(keys, kept)), list(compress(values, kept)))

    def invalidate(self, key: Key) -> bool:
        """Drop one entry; True when it was cached."""
        return self.invalidate_many((key,)) == 1

    def invalidate_many(self, keys: Iterable[Key]) -> int:
        """Drop exactly ``keys``; returns how many were actually cached.

        This is the epoch path: fed the (pre-intersected, see
        :meth:`key_set`) moved-key set of a migration plan, it evicts
        precisely the entries whose routing changed and leaves every
        other hot entry warm.  One C-level ``pop`` sweep; the count is
        the size drop, so a key repeated in ``keys`` counts once.
        """
        entries = self._entries
        before = len(entries)
        _exhaust(map(entries.pop, keys, repeat(None)))
        evicted = before - len(entries)
        self.invalidations += evicted
        return evicted

    def flush(self) -> int:
        """Drop everything; returns the number of entries dropped.

        The blanket fallback -- correct but cold.  The serving tier
        only takes it when an epoch closes with *no* tracked probe
        population, i.e. when the remapped-key set is unknowable.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped
