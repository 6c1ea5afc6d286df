"""The per-server key-value shard behind the data plane.

A :class:`ServerStore` is one server's in-memory slice of the fleet's
data: a dict-shaped KV store with scalar and bulk operations and
deterministic byte accounting.  The migration executor moves keys
between stores; the accounting is what its byte throttle meters.

The bulk operations are the migration engine's hot path -- they are
written so the per-key work is one C-driven comprehension pass, with
byte accounting folded into a single vectorized total per batch
(:func:`total_nbytes`) instead of two :func:`item_nbytes` calls per
key.  The scalar API is unchanged.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..hashfn import Key

__all__ = [
    "MISSING",
    "ServerStore",
    "is_numeric_batch",
    "item_nbytes",
    "total_nbytes",
]

#: Sentinel distinguishing "stored None" from "absent".  Public so the
#: allocation-free bulk readers (:meth:`ServerStore.read_many`) can hand
#: it back to engine-grade callers, who compare by identity only --
#: never with ``==`` (stored values may be arrays, whose ``==`` is
#: elementwise).
MISSING = object()
_MISSING = MISSING


#: Machine scalars: 8 accounted bytes each.
_SCALARS = (bool, int, float, np.integer, np.floating, np.bool_)

#: Exact types of fixed cost, priced with one dict probe ahead of the
#: ``isinstance`` chain (other types, subclasses included, walk it).
_FIXED_NBYTES = {
    type(None): 0,
    bool: 8,
    int: 8,
    float: 8,
    np.bool_: 8,
    np.int32: 8,
    np.int64: 8,
    np.uint64: 8,
    np.float32: 8,
    np.float64: 8,
}


def item_nbytes(obj: Any) -> int:
    """Deterministic byte cost of one stored key or value.

    Exact for bytes-likes, strings and numpy arrays; fixed 8 bytes for
    machine scalars; the ``repr`` length otherwise.  The point is a
    *stable* accounting unit for throttles and capacity maths, not a
    faithful ``sys.getsizeof``.
    """
    cost = _FIXED_NBYTES.get(type(obj))
    if cost is not None:
        return cost
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, _SCALARS):
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    return len(repr(obj))


def total_nbytes(objs: Sequence[Any]) -> int:
    """``sum(item_nbytes(obj) for obj in objs)``, vectorized when cheap.

    Every machine scalar accounts for 8 bytes, so an all-numeric batch
    costs exactly ``8 * len(objs)``.  Large batches are probed with one
    ``np.asarray`` pass: a numeric result dtype proves every element
    was a machine scalar (strings, bytes, ``None``, ``Decimal`` and
    friends all promote to ``str``/``object`` dtypes and take the exact
    per-item sum instead), so the fast path is bit-exact with the
    scalar accounting by construction.  Small batches skip straight to
    the per-item sum -- the array round-trip only pays for itself once
    its fixed cost amortizes.
    """
    n = len(objs)
    if n == 0:
        return 0
    if n >= 16 and is_numeric_batch(objs):
        return 8 * n
    return sum(map(item_nbytes, objs))


def is_numeric_batch(objs: Sequence[Any]) -> bool:
    """Whether every element is a machine scalar (8 accounted bytes).

    One C-level ``np.asarray`` probe: only batches of ``bool`` / ``int``
    / ``float`` / numpy scalars produce a 1-d numeric dtype -- any
    string, bytes, ``None``, array or rich object promotes the result
    to ``str``/``object`` (or fails outright) and returns ``False``.
    """
    if isinstance(objs, np.ndarray):
        array = objs
    elif len(objs) and not isinstance(objs[0], _SCALARS):
        # A string (or other non-scalar) head settles it without
        # building the batch-sized array.
        return False
    else:
        try:
            array = np.asarray(objs)
        except (TypeError, ValueError, OverflowError):
            return False
    return (
        array.ndim == 1
        and array.shape[0] == len(objs)
        and array.dtype.kind in "iufb"
    )


class ServerStore:
    """One server's in-memory KV shard, with byte accounting."""

    def __init__(self, server_id: Key):
        self._server_id = server_id
        self._items: Dict[Key, Any] = {}
        self._nbytes = 0

    # -- introspection ----------------------------------------------------

    @property
    def server_id(self) -> Key:
        """The server this shard belongs to."""
        return self._server_id

    @property
    def nbytes(self) -> int:
        """Accounted bytes of every stored key + value."""
        return self._nbytes

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Key) -> bool:
        return key in self._items

    def __repr__(self) -> str:
        return "ServerStore({!r}, keys={}, bytes={})".format(
            self._server_id, len(self._items), self._nbytes
        )

    def keys(self) -> Tuple[Key, ...]:
        """Stored keys, insertion-ordered."""
        return tuple(self._items)

    def items(self) -> Iterable[Tuple[Key, Any]]:
        """Stored ``(key, value)`` pairs, insertion-ordered."""
        return self._items.items()

    def item_bytes(self, key: Key) -> int:
        """Accounted byte cost of one stored item (0 when absent)."""
        if key not in self._items:
            return 0
        return item_nbytes(key) + item_nbytes(self._items[key])

    def item_bytes_many(self, keys: Sequence[Key]) -> np.ndarray:
        """Per-key accounted byte costs (0 where absent), as ``int64``.

        The bulk form of :meth:`item_bytes`: the migration executor's
        byte throttle prefix-sums these costs to place a whole tick's
        cursor in one ``searchsorted`` instead of probing key by key.
        """
        items = self._items
        missing = _MISSING
        costs = [
            0
            if (value := items.get(key, missing)) is missing
            else item_nbytes(key) + item_nbytes(value)
            for key in keys
        ]
        return np.asarray(costs, dtype=np.int64)

    # -- scalar operations -------------------------------------------------

    def put(self, key: Key, value: Any) -> int:
        """Store ``value`` under ``key``; returns the item's byte cost.

        Overwrites re-account: the old item's bytes are released before
        the new item's are charged.
        """
        if key in self._items:
            self._nbytes -= item_nbytes(key) + item_nbytes(self._items[key])
        cost = item_nbytes(key) + item_nbytes(value)
        self._items[key] = value
        self._nbytes += cost
        return cost

    def get(self, key: Key, default: Any = _MISSING) -> Any:
        """Read ``key``; raises ``KeyError`` unless a default is given."""
        value = self._items.get(key, _MISSING)
        if value is _MISSING:
            if default is _MISSING:
                raise KeyError(key)
            return default
        return value

    def delete(self, key: Key) -> Any:
        """Remove and return ``key``'s value; ``KeyError`` when absent."""
        value = self._items.pop(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        self._nbytes -= item_nbytes(key) + item_nbytes(value)
        return value

    # -- bulk operations ---------------------------------------------------

    def put_many(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        accounted_nbytes: Optional[int] = None,
    ) -> int:
        """Store aligned key/value batches; returns the bytes charged.

        Semantically identical to putting each pair in order (overwrites
        re-account, the returned total charges every pair), but the
        accounting is one vectorized pass per batch.  A batch with
        internal duplicate keys falls back to the sequential puts.

        ``accounted_nbytes`` is a trusted total byte cost for the whole
        batch, supplied by callers that already measured these exact
        items (the migration executor prices each tick's live set once
        and feeds both the destination charge and the source release
        from it).  Ignored when the batch holds duplicate keys.
        """
        n = len(keys)
        if n != len(values):
            raise ValueError(
                "put_many needs aligned batches, got {} keys and {} "
                "values".format(len(keys), len(values))
            )
        if n == 0:
            return 0
        items = self._items
        if items and not items.keys().isdisjoint(keys):
            # Overwrites: measure what the batch replaces before the
            # update clobbers it.
            unique = set(keys)
            if len(unique) != n:
                # Duplicate keys inside the batch: later pairs
                # supersede earlier ones with per-pair re-accounting;
                # only the sequential path gets that bit-exact.
                return sum(
                    self.put(key, value) for key, value in zip(keys, values)
                )
            hit = list(items.keys() & unique)
            released = total_nbytes(hit) + total_nbytes(
                [items[key] for key in hit]
            )
            if accounted_nbytes is None:
                accounted_nbytes = total_nbytes(keys) + total_nbytes(values)
            items.update(zip(keys, values))
            self._nbytes += accounted_nbytes - released
            return accounted_nbytes
        # Disjoint from the stored keys (the migration executor's case:
        # fresh copies landing at their destination): no set build, no
        # release pass -- duplicates inside the batch show up as a size
        # delta smaller than the batch.
        before = len(items)
        items.update(zip(keys, values))
        if len(items) - before != n:
            # Duplicates within a disjoint batch: the dict already
            # holds the sequential outcome (last value wins), and since
            # nothing pre-existed, the exact net charge is one pass
            # over the surviving pairs.  The return value still charges
            # every pair, as sequential puts would have.
            charged = total_nbytes(keys) + total_nbytes(values)
            self._nbytes += sum(
                item_nbytes(key) + item_nbytes(items[key])
                for key in set(keys)
            )
            return charged
        if accounted_nbytes is None:
            accounted_nbytes = total_nbytes(keys) + total_nbytes(values)
        self._nbytes += accounted_nbytes
        return accounted_nbytes

    def get_many(
        self, keys: Sequence[Key], default: Any = None
    ) -> Tuple[List[Any], np.ndarray]:
        """Read a key batch: ``(values, found)`` aligned to ``keys``.

        ``found`` is a boolean mask; absent keys carry ``default`` in
        ``values``.  The mask is what lets bulk callers (the data
        plane's routed reads, the serving tier's cache fills)
        distinguish "stored None/default" from "absent" without a
        per-key membership probe.
        """
        items = self._items
        n = len(keys)
        try:
            # All-present fast path: one C-level gather.
            if n > 1:
                values = list(itemgetter(*keys)(items))
            elif n == 1:
                values = [items[keys[0]]]
            else:
                values = []
        except KeyError:
            pass
        else:
            # ``empty`` + ``fill`` costs a third of ``np.ones`` at the
            # few-key sizes the data plane's per-owner reads run at.
            found = np.empty(n, dtype=bool)
            found.fill(True)
            return values, found
        missing = _MISSING
        values = list(map(items.get, keys, repeat(missing)))
        # Identity-only probes: stored values may be arrays, whose
        # ``==`` is elementwise (so ``list.count`` would be unsafe).
        found = np.fromiter(
            (value is not missing for value in values),
            dtype=bool,
            count=len(values),
        )
        values = [default if value is missing else value for value in values]
        return values, found

    def read_many(self, keys: Sequence[Key]) -> Tuple[List[Any], int]:
        """Engine-grade :meth:`get_many`: ``(values, miss_count)``.

        Absent keys carry the module's :data:`MISSING` sentinel in
        ``values`` (compare by identity only) and no numpy mask is
        built -- this is the migration executor's hot read, where the
        per-call cost of array construction would dominate small
        per-server chunks.
        """
        items = self._items
        n = len(keys)
        try:
            # ``itemgetter`` gathers the whole batch in one C call --
            # measurably faster than a subscript comprehension at the
            # executor's per-server chunk sizes.
            if n > 1:
                return list(itemgetter(*keys)(items)), 0
            if n == 1:
                return [items[keys[0]]], 0
            return [], 0
        except KeyError:
            pass
        missing = _MISSING
        values = list(map(items.get, keys, repeat(missing)))
        misses = 0
        for value in values:
            misses += value is missing
        return values, misses

    def delete_many(
        self, keys: Sequence[Key], accounted_nbytes: Optional[int] = None
    ) -> np.ndarray:
        """Remove a key batch; returns per-key hit counts (1 or 0).

        ``hits[i]`` is 1 when ``keys[i]`` was present and removed, 0
        when it was absent (already deleted, or a duplicate earlier in
        the batch consumed it) -- bulk callers account for skips with
        one ``hits.sum()`` instead of per-key probes.

        ``accounted_nbytes`` is a trusted total byte cost for the whole
        batch, supplied by callers that just copied these exact items
        and therefore already hold their accounted size (the migration
        executor's commit phase).  It is honoured only when every key
        hits; any miss falls back to exact per-item re-accounting.
        """
        items = self._items
        missing = _MISSING
        before = len(items)
        popped = [items.pop(key, missing) for key in keys]
        removed = before - len(items)
        if removed == len(popped):
            if accounted_nbytes is None:
                accounted_nbytes = total_nbytes(keys) + total_nbytes(popped)
            self._nbytes -= accounted_nbytes
            return np.ones(len(popped), dtype=np.int64)
        hits = np.fromiter(
            (value is not missing for value in popped),
            dtype=np.int64,
            count=len(popped),
        )
        if removed:
            hit_keys = [
                key
                for key, value in zip(keys, popped)
                if value is not missing
            ]
            live_values = [value for value in popped if value is not missing]
            self._nbytes -= total_nbytes(hit_keys) + total_nbytes(live_values)
        return hits

    def discard_many(
        self, keys: Sequence[Key], accounted_nbytes: Optional[int] = None
    ) -> int:
        """Engine-grade :meth:`delete_many`: returns the removed count.

        Identical removal and accounting semantics, but no per-key hit
        array is built -- the migration executor's commit phase only
        needs the count (and usually supplies ``accounted_nbytes`` from
        the tick's one pricing pass, making the all-hit case pure dict
        work).
        """
        items = self._items
        missing = _MISSING
        before = len(items)
        popped = [items.pop(key, missing) for key in keys]
        removed = before - len(items)
        if removed == len(popped):
            if accounted_nbytes is None:
                accounted_nbytes = total_nbytes(keys) + total_nbytes(popped)
            self._nbytes -= accounted_nbytes
        elif removed:
            hit_keys = []
            live_values = []
            for key, value in zip(keys, popped):
                if value is not missing:
                    hit_keys.append(key)
                    live_values.append(value)
            self._nbytes -= total_nbytes(hit_keys) + total_nbytes(live_values)
        return removed

    def evict_many(self, keys: Sequence[Key], accounted_nbytes: int) -> int:
        """Unchecked bulk delete: a bare C-speed ``del`` per key.

        The caller guarantees every key is present exactly once and
        supplies the batch's accounted byte total -- the migration
        executor's commit qualifies (it just read these keys from this
        store, and a plan never repeats a key).  Violating the
        precondition raises ``KeyError`` mid-removal and leaves the
        byte accounting stale; use :meth:`discard_many` when unsure.
        """
        items = self._items
        for key in keys:
            del items[key]
        self._nbytes -= accounted_nbytes
        return len(keys)

    def clear(self) -> None:
        """Drop every item (accounting returns to zero)."""
        self._items.clear()
        self._nbytes = 0

    def clone(self) -> "ServerStore":
        """An independent copy (values are shared, mappings are not)."""
        twin = ServerStore(self._server_id)
        twin._items = dict(self._items)
        twin._nbytes = self._nbytes
        return twin
