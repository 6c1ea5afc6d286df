"""The hot-key cache: an array-backed LRU with *epoch-based* invalidation.

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

Write semantics are write-through: a put refreshes the cached value, a
delete evicts it, so a cached read can never observe an overwritten
value.

The layout is columnar, sized to the serving tier's batch dispatch: a
plain ``dict`` maps key -> slot, and three capacity-length arrays hold
each slot's key, value and *recency stamp* (a monotonic counter ticked
once per touch).  The LRU entry is simply the live slot with the lowest
stamp, so recency refreshes are bulk fancy-index writes, batch reads
are one C-level ``dict.get`` sweep plus one gather, and evictions pick
victims by ``argpartition`` over the stamp column -- no
per-key ``OrderedDict`` relinking anywhere on the serving hot path.
The scalar entry points are one-key calls of the bulk ones
(:meth:`HotKeyCache.get_many`, :meth:`HotKeyCache.put_many`,
:meth:`HotKeyCache.invalidate_many`), and a bulk call is
bit-equivalent to issuing the scalar calls in sequence -- contents,
eviction order *and* hit/miss/eviction counters -- which the
LRU-oracle property suite (``tests/serve/test_cache_oracle.py``) pins
against an ``OrderedDict`` reference on random op schedules.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..hashfn import Key

__all__ = ["HotKeyCache"]

#: Sentinel distinguishing "cached None" from "absent".
_ABSENT = object()

#: Default hot-set capacity.
DEFAULT_CAPACITY = 4_096

#: Stamp parked on free slots -- above every live stamp, so victim
#: selection over the raw stamp column can never pick an empty slot.
_FREE = np.iinfo(np.int64).max


class HotKeyCache:
    """Bounded LRU of hot keys with exact, epoch-driven invalidation."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self._capacity = int(capacity)
        self._slots: dict = {}
        self._keys = np.empty(self._capacity, dtype=object)
        self._values = np.empty(self._capacity, dtype=object)
        self._stamps = np.full(self._capacity, _FREE, dtype=np.int64)
        #: Free slots, consumed LIFO; empty exactly when the cache is full.
        self._free: List[int] = list(range(self._capacity - 1, -1, -1))
        #: Monotonic recency clock; every touch (hit or put) takes a tick.
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- introspection ----------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: Key) -> bool:
        return key in self._slots

    def __repr__(self) -> str:
        return "HotKeyCache(size={}, capacity={}, hit_rate={:.3f})".format(
            len(self._slots), self._capacity, self.hit_rate
        )

    @property
    def hit_rate(self) -> float:
        """Hits per lookup, 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def keys(self) -> Tuple[Key, ...]:
        """Cached keys, least recently used first."""
        if not self._slots:
            return ()
        live = np.fromiter(
            self._slots.values(), dtype=np.int64, count=len(self._slots)
        )
        order = np.argsort(self._stamps[live])
        return tuple(self._keys[live[order]])

    def key_set(self) -> frozenset:
        """The cached key set (no order, no copy of the arrays).

        The epoch invalidator intersects each migration plan's moved
        keys against this before evicting, so a million-key plan over a
        few-thousand-entry cache costs one C-level membership sweep
        instead of a million Python-level pops.
        """
        return frozenset(self._slots)

    # -- read path ---------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        """Cached value (refreshing recency) or ``default`` on a miss."""
        return self.get_many((key,), default)[0][0]

    def get_many(
        self, keys: Sequence[Key], default: Any = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`get`: ``(values, found)`` aligned to ``keys``.

        One C-level ``dict.get`` sweep resolves slots, one gather pulls
        the hit values, and every hit's recency stamp is assigned in
        bulk (duplicate keys in one batch: the later position wins,
        exactly as sequential gets would leave it).  Misses carry
        ``default`` in ``values``.  Counter accounting matches the
        scalar loop: one hit or miss per position.
        """
        n = len(keys)
        values = np.empty(n, dtype=object)
        if n == 0:
            return values, np.zeros(0, dtype=bool)
        slots = np.fromiter(
            map(self._slots.get, keys, repeat(-1)), dtype=np.int64, count=n
        )
        found = slots >= 0
        hit_count = int(np.count_nonzero(found))
        self.hits += hit_count
        self.misses += n - hit_count
        if default is not None and hit_count < n:
            # ``fill`` stores the default whole in every cell (the hits
            # overwrite theirs); a masked assignment would broadcast a
            # tuple or array default.
            values.fill(default)
        if hit_count:
            hit_slots = slots[found]
            values[found] = self._values[hit_slots]
            self._stamps[hit_slots] = np.arange(
                self._clock, self._clock + hit_count, dtype=np.int64
            )
            self._clock += hit_count
        return values, found

    def peek(self, key: Key, default: Any = None) -> Any:
        """Like :meth:`get` but touches neither recency nor counters."""
        slot = self._slots.get(key, -1)
        return default if slot < 0 else self._values[slot]

    # -- write path --------------------------------------------------------

    def put(self, key: Key, value: Any) -> None:
        """Insert/refresh an entry, evicting the LRU past capacity."""
        self.put_many((key,), (value,))

    def put_many(self, keys: Sequence[Key], values: Sequence[Any]) -> None:
        """Batched :meth:`put`, bit-equivalent to the sequential loop.

        The whole batch is one slot sweep, one key scatter for its new
        keys, one value scatter and one bulk stamp assignment.  New
        keys take the free slots first (in the order scalar puts pop
        them), then -- on a full cache -- the victims of
        :meth:`_victims`: the batch's eviction count of least recent
        entries, picked by one ``argpartition`` over the stamp column
        and consumed oldest first, exactly as sequential evictions
        would take them.  Only when that shortcut could diverge from
        the sequential schedule does the batch replay it slot by slot
        (:meth:`_put_many_evicting`).
        """
        n = len(keys)
        if n != len(values):
            raise ValueError(
                "put_many needs aligned batches, got {} keys and {} "
                "values".format(n, len(values))
            )
        if n == 0:
            return
        slots_map = self._slots
        slots = np.fromiter(
            map(slots_map.get, keys, repeat(-1)), dtype=np.int64, count=n
        )
        new_positions = np.flatnonzero(slots < 0)
        if new_positions.size:
            new_keys = [keys[position] for position in new_positions.tolist()]
            fresh = list(dict.fromkeys(new_keys))
            overflow = len(slots_map) + len(fresh) - self._capacity
            if overflow > 0:
                victims = self._victims(overflow, slots)
                if victims is None:
                    self._put_many_evicting(keys, values)
                    return
                for key in self._keys[victims]:
                    del slots_map[key]
                # Popped after the free slots, oldest first.
                self._free[:0] = victims[::-1].tolist()
                self.evictions += overflow
            free = self._free
            cut = len(free) - len(fresh)
            targets = free[cut:][::-1]
            del free[cut:]
            slots_map.update(zip(fresh, targets))
            self._keys[targets] = np.fromiter(fresh, dtype=object, count=len(fresh))
            slots[new_positions] = np.fromiter(
                map(slots_map.__getitem__, new_keys),
                dtype=np.int64,
                count=len(new_keys),
            )
        # ``fromiter`` builds a flat object array, so tuple and array
        # values stay whole; repeated keys resolve last-write-wins, as
        # sequential puts would.
        self._values[slots] = np.fromiter(values, dtype=object, count=n)
        self._stamps[slots] = np.arange(
            self._clock, self._clock + n, dtype=np.int64
        )
        self._clock += n

    def _victims(self, overflow: int, slots: np.ndarray) -> Optional[np.ndarray]:
        """The ``overflow`` least recent entries, oldest first -- or None.

        Free slots park at ``int64 max``, so one ``argpartition`` over
        the raw stamp column yields the lowest live stamps.  Sequential
        puts evict exactly these, in this order, provided every
        eviction finds a pre-batch entry the batch has not refreshed:
        the batch only ever stamps above every pre-batch stamp, so the
        LRU entry at each eviction is the next of them.  Two cases
        break that and return None: the batch evicts more entries than
        the cache holds (capacity below the batch's new keys), or it
        refreshes one of the would-be victims (``slots`` are the
        batch's resolved slots, -1 for new keys) -- sequentially that
        entry is either kept or evicted and re-inserted, depending on
        where in the batch its refresh falls.
        """
        if overflow > len(self._slots):
            return None
        stamps = self._stamps
        victims = np.argpartition(stamps, overflow - 1)[:overflow]
        refreshed = slots[slots >= 0]
        if refreshed.size and stamps[refreshed].min() <= stamps[victims].max():
            return None
        return victims[np.argsort(stamps[victims])]

    def _put_many_evicting(
        self, keys: Sequence[Key], values: Sequence[Any]
    ) -> None:
        """:meth:`put_many`'s exact fallback: the sequential LRU replay.

        Runs only where :meth:`_victims` declines.  Victim order is
        precomputed once: the batch can evict at most ``len(keys)``
        entries and skip at most ``len(keys)`` refreshed ones, so the
        ``2n + 1`` lowest pre-batch stamps (one ``argpartition``) cover
        every victim the sequential schedule can reach.  Entries refreshed by the batch are recognised by
        their stamp having moved past the batch's start tick and
        skipped; should the pre-batch pool run dry (capacity smaller
        than the batch), victims continue among batch-stamped slots in
        stamp order, which is exactly the sequential LRU order again.
        """
        slots_map = self._slots
        stamps = self._stamps
        keys_column = self._keys
        values_column = self._values
        free = self._free
        clock = self._clock
        start = clock
        live = np.fromiter(
            slots_map.values(), dtype=np.int64, count=len(slots_map)
        )
        pool = 2 * len(keys) + 1
        if live.size > pool:
            live = live[np.argpartition(stamps[live], pool)[:pool]]
        victims = live[np.argsort(stamps[live])].tolist()
        victim_cursor = 0
        #: Every stamp assigned this batch, in order -- the fallback
        #: victim queue once all pre-batch entries are consumed.
        stamped: List[Tuple[int, int]] = []
        stamped_cursor = 0
        evictions = 0
        for key, value in zip(keys, values):
            slot = slots_map.get(key, -1)
            if slot < 0:
                if free:
                    slot = free.pop()
                else:
                    slot = -1
                    while victim_cursor < len(victims):
                        candidate = victims[victim_cursor]
                        victim_cursor += 1
                        if stamps[candidate] < start:
                            slot = candidate
                            break
                    while slot < 0:
                        candidate, stamp = stamped[stamped_cursor]
                        stamped_cursor += 1
                        if stamps[candidate] == stamp:
                            slot = candidate
                    del slots_map[keys_column[slot]]
                    evictions += 1
                slots_map[key] = slot
                keys_column[slot] = key
            values_column[slot] = value
            stamps[slot] = clock
            stamped.append((slot, clock))
            clock += 1
        self._clock = clock
        self.evictions += evictions

    def _release(self, slot: int) -> None:
        """Return a slot to the free pool (invalidation/flush path)."""
        self._keys[slot] = None
        self._values[slot] = None
        self._stamps[slot] = _FREE
        self._free.append(slot)

    def invalidate(self, key: Key) -> bool:
        """Drop one entry; True when it was cached."""
        return self.invalidate_many((key,)) == 1

    def invalidate_many(self, keys: Iterable[Key]) -> int:
        """Drop exactly ``keys``; returns how many were actually cached.

        This is the epoch path: fed the (pre-intersected, see
        :meth:`key_set`) moved-key set of a migration plan, it evicts
        precisely the entries whose routing changed and leaves every
        other hot entry warm.  One dict pop per key, one counter update
        per call.
        """
        pop = self._slots.pop
        release = self._release
        evicted = 0
        for key in keys:
            slot = pop(key, -1)
            if slot >= 0:
                release(slot)
                evicted += 1
        self.invalidations += evicted
        return evicted

    def flush(self) -> int:
        """Drop everything; returns the number of entries dropped.

        The blanket fallback -- correct but cold.  The serving tier
        only takes it when an epoch closes with *no* tracked probe
        population, i.e. when the remapped-key set is unknowable.
        """
        dropped = len(self._slots)
        if dropped:
            self._slots.clear()
            self._keys[:] = None
            self._values[:] = None
            self._stamps[:] = _FREE
            self._free = list(range(self._capacity - 1, -1, -1))
            self.invalidations += dropped
        return dropped
