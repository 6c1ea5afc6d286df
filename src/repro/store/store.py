"""The per-server key-value shard behind the data plane.

A :class:`ServerStore` is one server's in-memory slice of the fleet's
data: a dict-shaped KV store with scalar and bulk operations and
deterministic byte accounting.  The migration executor moves keys
between stores; the accounting is what its byte throttle meters.

The bulk operations are the migration engine's hot path -- they are
written so the per-key work is one C-driven comprehension pass.  This
module is the only one that prices bytes: every bulk call accounts
its batch with :func:`total_nbytes`, which settles an all-numeric
batch with one type probe instead of two :func:`item_nbytes` calls
per key.

:class:`FleetStores` is the data plane's store pass: it applies one
routed batch of reads, deletes and puts to every owner's dict at once,
with no call per store, so the dict layout and the accounting rule
stay inside this module.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat
from operator import is_, is_not, itemgetter, setitem
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..hashfn import Key

__all__ = [
    "MISSING",
    "ServerStore",
    "is_numeric_batch",
    "item_nbytes",
    "total_nbytes",
]

#: Sentinel distinguishing "stored None" from "absent".  Public
#: because :meth:`ServerStore.read_many` marks its misses with it;
#: compare by identity only -- never with ``==`` (stored values may be
#: arrays, whose ``==`` is elementwise).
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

#: The exact types :func:`is_numeric_batch` accepts: 8 bytes each.
_EIGHT_BYTE_TYPES = frozenset(kind for kind, cost in _FIXED_NBYTES.items() if cost == 8)


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
    """``sum(item_nbytes(obj) for obj in objs)``, in one probe when numeric.

    Every machine scalar accounts for 8 bytes, so a batch that
    :func:`is_numeric_batch` accepts costs exactly ``8 * len(objs)``;
    any other batch takes the per-item sum.
    """
    if is_numeric_batch(objs):
        return 8 * len(objs)
    return sum(map(item_nbytes, objs))


def is_numeric_batch(objs: Sequence[Any]) -> bool:
    """Whether every element is priced at 8 bytes by a fixed-cost type.

    A 1-d numpy batch is settled by its numeric dtype alone.  Any other
    batch is checked type by type against ``_FIXED_NBYTES``' 8-byte
    types, exact by construction: a subclass or look-alike (a number
    class whose ``__radd__`` takes an int, a numpy 0-d array) fails the
    check and takes the per-item price.  A head that is not such a
    type settles it at once, and a one-type batch is one ``list.count``.
    """
    if isinstance(objs, np.ndarray):
        return objs.ndim == 1 and objs.dtype.kind in "iufb"
    if not len(objs):
        return True
    head = type(objs[0])
    if head not in _EIGHT_BYTE_TYPES:
        return False
    types = list(map(type, objs))
    return types.count(head) == len(types) or _EIGHT_BYTE_TYPES.issuperset(types)


def _costs(objs: Sequence[Any]) -> List[int]:
    """``item_nbytes`` of each object; common types cost one C-level probe."""
    costs = list(map(_FIXED_NBYTES.get, map(type, objs)))
    if None in costs:
        costs = [
            item_nbytes(obj) if cost is None else cost for cost, obj in zip(costs, objs)
        ]
    return costs


# -- one store's dict, in bulk ------------------------------------------------
#
# The bodies of the bulk ServerStore methods, on a bare items dict: the
# methods and the fleet pass's owner runs (FleetStores) share them, and
# each reports the byte change instead of applying it.


def _put_pairs(
    items: Dict[Key, Any],
    keys: Sequence[Key],
    values: Sequence[Any],
    accounted_nbytes: Optional[int] = None,
) -> Tuple[int, int]:
    """Put aligned pairs into ``items``: ``(charged, net)`` bytes.

    ``charged`` prices every pair, as the sequential puts' costs add up;
    ``net`` is what the store's accounting moves by.
    """
    n = len(keys)
    if items and not items.keys().isdisjoint(keys):
        # Overwrites: measure what the batch replaces before the
        # update clobbers it.
        unique = set(keys)
        if len(unique) != n:
            # Duplicate keys inside the batch: later pairs supersede
            # earlier ones with per-pair re-accounting; only the
            # sequential replay gets that bit-exact.
            charged = released = 0
            for key, value in zip(keys, values):
                old = items.get(key, _MISSING)
                if old is not _MISSING:
                    released += item_nbytes(key) + item_nbytes(old)
                items[key] = value
                charged += item_nbytes(key) + item_nbytes(value)
            return charged, charged - released
        hit = list(items.keys() & unique)
        released = total_nbytes(hit) + total_nbytes([items[key] for key in hit])
        if accounted_nbytes is None:
            accounted_nbytes = total_nbytes(keys) + total_nbytes(values)
        items.update(zip(keys, values))
        return accounted_nbytes, accounted_nbytes - released
    # Disjoint from the stored keys (the migration executor's case:
    # fresh copies landing at their destination): no set build, no
    # release pass -- duplicates inside the batch show up as a size
    # delta smaller than the batch.
    before = len(items)
    items.update(zip(keys, values))
    if len(items) - before != n:
        # Duplicates within a disjoint batch: the dict already holds
        # the sequential outcome (last value wins), and since nothing
        # pre-existed, the exact net charge is one pass over the
        # surviving pairs.  ``charged`` still prices every pair.
        charged = total_nbytes(keys) + total_nbytes(values)
        net = sum(item_nbytes(key) + item_nbytes(items[key]) for key in set(keys))
        return charged, net
    if accounted_nbytes is None:
        accounted_nbytes = total_nbytes(keys) + total_nbytes(values)
    return accounted_nbytes, accounted_nbytes


def _read_pairs(items: Dict[Key, Any], keys: Sequence[Key]) -> Tuple[List[Any], int]:
    """``(values, miss_count)`` of ``keys`` in ``items``; misses are :data:`MISSING`."""
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
    values = list(map(items.get, keys, repeat(_MISSING)))
    return values, n - sum(map(is_not, values, repeat(_MISSING)))


def _pop_keys(items: Dict[Key, Any], keys: Sequence[Key]) -> Tuple[List[Any], int, int]:
    """Pop ``keys`` from ``items``: ``(popped, removed, released)``.

    ``popped[i]`` is :data:`MISSING` where ``keys[i]`` was absent (or a
    duplicate earlier in the batch consumed it).
    """
    before = len(items)
    popped = list(map(items.pop, keys, repeat(_MISSING)))
    removed = before - len(items)
    if removed == len(popped):
        return popped, removed, total_nbytes(keys) + total_nbytes(popped)
    if not removed:
        return popped, 0, 0
    hit_keys = []
    live_values = []
    for key, value in zip(keys, popped):
        if value is not _MISSING:
            hit_keys.append(key)
            live_values.append(value)
    return popped, removed, total_nbytes(hit_keys) + total_nbytes(live_values)


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

    def put_many(self, keys: Sequence[Key], values: Sequence[Any]) -> int:
        """Store aligned key/value batches; returns the bytes charged.

        Semantically identical to putting each pair in order (overwrites
        re-account, the returned total charges every pair), but the
        accounting is one :func:`total_nbytes` pass per side.  A batch
        with internal duplicate keys that overwrites stored ones falls
        back to the sequential puts.  The migration executor releases
        the returned charge at the source it copied the pairs from.
        """
        n = len(keys)
        if n != len(values):
            raise ValueError(
                "put_many needs aligned batches, got {} keys and {} "
                "values".format(len(keys), len(values))
            )
        if n == 0:
            return 0
        charged, net = _put_pairs(self._items, keys, values)
        self._nbytes += net
        return charged

    def get_many(
        self, keys: Sequence[Key], default: Any = None
    ) -> Tuple[List[Any], np.ndarray]:
        """Read a key batch: ``(values, found)`` aligned to ``keys``.

        ``found`` is a boolean mask; absent keys carry ``default`` in
        ``values``.  The mask is what lets bulk callers (the migration
        executor's read-back, the control loop's drain checks)
        distinguish "stored None/default" from "absent" without a
        per-key membership probe.
        """
        values, misses = _read_pairs(self._items, keys)
        n = len(values)
        if not misses:
            # ``empty`` + ``fill`` costs a third of ``np.ones`` at
            # few-key sizes.
            found = np.empty(n, dtype=bool)
            found.fill(True)
            return values, found
        # Identity-only probes: stored values may be arrays, whose
        # ``==`` is elementwise (so ``list.count`` would be unsafe).
        found = np.fromiter(map(is_not, values, repeat(_MISSING)), bool, n)
        values = [default if value is _MISSING else value for value in values]
        return values, found

    def read_many(self, keys: Sequence[Key]) -> Tuple[List[Any], int]:
        """:meth:`get_many` without the mask: ``(values, miss_count)``,
        misses as :data:`MISSING`.

        The migration executor's copy read and read-back: a miss count
        of 0 (the common case) leaves nothing to filter, and no mask is
        built per call.
        """
        return _read_pairs(self._items, keys)

    def delete_many(self, keys: Sequence[Key]) -> np.ndarray:
        """Remove a key batch; returns per-key hit counts (1 or 0).

        ``hits[i]`` is 1 when ``keys[i]`` was present and removed, 0
        when it was absent (already deleted, or a duplicate earlier in
        the batch consumed it) -- bulk callers account for skips with
        one ``hits.sum()`` instead of per-key probes.
        """
        popped, removed, released = _pop_keys(self._items, keys)
        self._nbytes -= released
        if removed == len(popped):
            return np.ones(len(popped), dtype=np.int64)
        return np.fromiter(map(is_not, popped, repeat(_MISSING)), np.int64, len(popped))

    def evict_many(self, keys: Sequence[Key], accounted_nbytes: int) -> int:
        """Unchecked bulk delete: a bare C-speed ``del`` per key.

        The caller guarantees every key is present exactly once and
        supplies the batch's accounted byte total -- the migration
        executor's commit qualifies (it just read these keys from this
        store, a plan never repeats a key, and the total is what
        :meth:`put_many` charged for the same pairs at the
        destination).  Violating the precondition raises ``KeyError``
        mid-removal and leaves the byte accounting stale; use
        :meth:`delete_many` when unsure.
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


def stored_keys(stores: Iterable[ServerStore]) -> np.ndarray:
    """Every key of ``stores``, store by store, first occurrence kept.

    The keys are listed straight from the store dicts, in C.  A key
    sits in two stores only while a retained-source migration (a
    graceful drain's pre-copy) has copied it, so an integer key array
    is returned as listed when its sort finds no repeat; any other key
    list goes through ``dict.fromkeys``.  The dtype rule is
    :meth:`~repro.store.DataPlane.keys`'.
    """
    keys: List[Key] = list(chain.from_iterable(store._items for store in stores))
    array = np.asarray(keys)
    if array.ndim == 1 and array.dtype.kind in "iu":
        ordered = np.sort(array)
        if not (ordered[1:] == ordered[:-1]).any():
            return array
    unique = list(dict.fromkeys(keys))
    if len(unique) < len(keys):
        array = np.asarray(unique)
    if array.dtype.kind in "iu":
        return array
    return np.asarray(unique, dtype=object)


# -- the fleet's stores, in one pass ------------------------------------------

#: Consumes an iterator at C speed (the key-by-key put pass).
_consume = deque(maxlen=0).extend

#: An op class averaging at least this many keys per store in the fleet
#: is applied owner run by owner run -- one stable sort, then one
#: C-level dict call per run; anything smaller (a serving micro-batch)
#: goes key by key with no per-store step at all.
_RUN_KEYS = 64


def _listed(batch: Sequence[Any]) -> Sequence[Any]:
    """A 1-D numpy batch as builtins (which hash faster); anything else,
    a 2-D array of value rows included, as is."""
    if isinstance(batch, np.ndarray) and batch.ndim == 1:
        return batch.tolist()
    return batch


class _Runs:
    """A batch in owner order: one stable argsort plus ``bincount``.

    ``order`` lists batch positions owner by owner, each owner's run in
    batch order -- so duplicate keys reach their store in sequence and
    keep sequential semantics.  ``owners`` names the store indices that
    received keys, in index order; :meth:`split` cuts an aligned
    sequence into their runs.
    """

    def __init__(self, index: np.ndarray, owner_count: int):
        # On the narrowest dtype holding every owner index, numpy's
        # stable sort is a radix sort.
        narrow = index.astype(np.min_scalar_type(max(owner_count - 1, 0)))
        self.order = np.argsort(narrow, kind="stable")
        counts = np.bincount(index, minlength=owner_count)
        owners = np.flatnonzero(counts)
        stops = np.cumsum(counts[owners])
        self.owners: List[int] = owners.tolist()
        self._bounds = list(zip((stops - counts[owners]).tolist(), stops.tolist()))

    def split(self, items: Sequence[Any]) -> Iterator[List[Any]]:
        """``items`` permuted into owner order, one list per owner.

        A 1-D array is gathered as an array and only each owner's run
        becomes Python objects, so a million-key batch never exists as
        a million Python ints at once.  A 2-D array splits into its
        rows, each kept as an array.
        """
        if isinstance(items, np.ndarray) and items.ndim == 1:
            ordered = items[self.order]
            for start, stop in self._bounds:
                yield ordered[start:stop].tolist()
        else:
            ordered = list(map(items.__getitem__, self.order.tolist()))
            yield from (ordered[start:stop] for start, stop in self._bounds)

    def unsort(self, column: np.ndarray) -> np.ndarray:
        """``column``, in owner order, put back into batch order."""
        out = np.empty_like(column)
        out[self.order] = column
        return out


def _put_deltas(
    keys: Sequence[Key], values: Sequence[Any], olds: Sequence[Any]
) -> np.ndarray:
    """Each put's net change to its store's bytes, in batch order.

    ``olds[i]`` is what ``keys[i]`` held before the batch's puts
    (:data:`MISSING` when absent).  A new key charges its key and
    value; an overwrite charges its value and releases the old one (the
    key's bytes cancel).  A key put twice counts once, at its last put:
    sequentially every earlier put's charge is released by the next,
    so the sum over the batch is the same.
    """
    n = len(keys)
    fresh = np.fromiter(map(is_, olds, repeat(_MISSING)), bool, n)
    # One pricing pass over all three; an absent old value prices as
    # ``None``, at 0 bytes.
    replaced = [None if old is _MISSING else old for old in olds]
    key_costs, value_costs, old_costs = np.array(
        _costs([*keys, *values, *replaced]), dtype=np.int64
    ).reshape(3, n)
    deltas = value_costs - old_costs + key_costs * fresh
    if len(set(keys)) < n:
        last = np.zeros(n, dtype=bool)
        last[list(dict(zip(keys, range(n))).values())] = True
        deltas[~last] = 0
    return deltas


class FleetStores:
    """A fleet's stores in routing-index order: the one store pass.

    ``stores[i]`` is the :class:`ServerStore` of the server at routing
    index ``i``, or ``None`` where that server has no store yet (reads
    and deletes there miss; ``absent`` marks them).  :meth:`serve`
    applies a whole batch -- reads, then deletes, then puts -- straight
    to the stores' dicts, with the byte accounting of the scalar
    :meth:`ServerStore.put` / :meth:`ServerStore.delete` loop.
    """

    def __init__(self, stores: Sequence[Optional[ServerStore]]):
        self._stores = list(stores)
        empty: Dict[Key, Any] = {}
        self._items = [
            empty if store is None else store._items for store in self._stores
        ]
        self.absent = np.fromiter(
            (store is None for store in self._stores), bool, len(self._stores)
        )

    def serve(
        self,
        index: np.ndarray,
        reads: Sequence[Key],
        deletes: Sequence[Key],
        puts: Sequence[Key],
        values: Sequence[Any],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply one batch: ``(read_values, found, deleted)``.

        ``index`` holds each key's store index, for ``reads``, then
        ``deletes``, then ``puts``.  Every read observes the pre-batch
        state, then the deletes apply, then the puts, each op class in
        batch order (a key repeated within a class keeps sequential
        semantics).  Every put's store must exist.  ``read_values``
        holds ``None`` where ``found`` is false.
        """
        r = len(reads)
        w = r + len(deletes)
        read_values, found = self._read(index[:r], reads)
        deleted = self._delete(index[r:w], deletes)
        self._put(index[w:], puts, values)
        return read_values, found, deleted

    def _runs(self, index: np.ndarray) -> Optional[_Runs]:
        """Owner runs for a batch long enough to pay for them, else None."""
        if len(index) < _RUN_KEYS * len(self._items):
            return None
        return _Runs(index, len(self._items))

    def _rows(self, index: np.ndarray) -> List[Dict[Key, Any]]:
        """Each key's store dict, for the key-by-key pass."""
        return list(map(self._items.__getitem__, index.tolist()))

    def _read(
        self, index: np.ndarray, keys: Sequence[Key]
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = len(keys)
        if not n:
            return np.empty(0, dtype=object), np.zeros(0, dtype=bool)
        runs = self._runs(index)
        misses = None
        if runs is None:
            gathered = list(
                map(dict.get, self._rows(index), _listed(keys), repeat(_MISSING))
            )
        else:
            gathered = []
            misses = 0
            for owner, chunk in zip(runs.owners, runs.split(keys)):
                run_values, run_misses = _read_pairs(self._items[owner], chunk)
                gathered.extend(run_values)
                misses += run_misses
        # ``fromiter`` builds a flat object array, so tuple and array
        # values stay whole (never broadcast into rows).
        values = np.fromiter(gathered, object, n)
        if misses == 0:
            found = np.ones(n, dtype=bool)
        else:
            found = np.fromiter(map(is_not, gathered, repeat(_MISSING)), bool, n)
            values[~found] = None
        if runs is not None:
            values, found = runs.unsort(values), runs.unsort(found)
        return values, found

    def _delete(self, index: np.ndarray, keys: Sequence[Key]) -> np.ndarray:
        n = len(keys)
        if not n:
            return np.zeros(0, dtype=bool)
        stores = self._stores
        runs = self._runs(index)
        if runs is None:
            keys = _listed(keys)
            popped = list(map(dict.pop, self._rows(index), keys, repeat(_MISSING)))
            deleted = np.fromiter(map(is_not, popped, repeat(_MISSING)), bool, n)
            hits = np.flatnonzero(deleted).tolist()
            if hits:
                released = np.add(
                    _costs([keys[position] for position in hits]),
                    _costs([popped[position] for position in hits]),
                )
                for owner, nbytes in zip(index[hits].tolist(), released.tolist()):
                    stores[owner]._nbytes -= nbytes
            return deleted
        popped = []
        for owner, chunk in zip(runs.owners, runs.split(keys)):
            run_popped, removed, released = _pop_keys(self._items[owner], chunk)
            if removed:
                stores[owner]._nbytes -= released
            popped.extend(run_popped)
        return runs.unsort(np.fromiter(map(is_not, popped, repeat(_MISSING)), bool, n))

    def _put(
        self, index: np.ndarray, keys: Sequence[Key], values: Sequence[Any]
    ) -> None:
        if not len(keys):
            return
        stores = self._stores
        runs = self._runs(index)
        if runs is None:
            keys, values = _listed(keys), _listed(values)
            rows = self._rows(index)
            olds = list(map(dict.get, rows, keys, repeat(_MISSING)))
            _consume(map(setitem, rows, keys, values))
            deltas = _put_deltas(keys, values, olds)
            changed = np.flatnonzero(deltas)
            for owner, delta in zip(index[changed].tolist(), deltas[changed].tolist()):
                stores[owner]._nbytes += delta
            return
        # Priced once: an all-numeric batch (every key and value a
        # machine scalar) charges 16 bytes a pair without an item pass.
        numeric = is_numeric_batch(keys) and is_numeric_batch(values)
        for owner, run_keys, run_values in zip(
            runs.owners, runs.split(keys), runs.split(values)
        ):
            accounted = 16 * len(run_keys) if numeric else None
            __, net = _put_pairs(self._items[owner], run_keys, run_values, accounted)
            stores[owner]._nbytes += net
