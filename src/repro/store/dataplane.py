"""The data plane: a fleet of per-server stores behind a routing facade.

A :class:`DataPlane` owns one :class:`~repro.store.store.ServerStore`
per server and addresses them through either router's one routing
contract (reads ``route``, writes ``assign``), always consulting the
*current* routing state -- which is exactly what makes live migration
observable: after a resize epoch, a key that has been rerouted but not
yet copied misses at its new owner until the migration executor
commits it.

The bulk ops group a batch by *integer* owner index: routing returns
``(index, ids)``, one stable argsort plus ``bincount`` cuts the batch
into per-owner chunks (:class:`_Groups`), and server ids appear only
where they leave the call -- the store lookups and ``put_many``'s
returned owners.

Stores of servers that left the fleet are intentionally retained --
their keys are stranded until a migration plan drains them -- and can
be dropped with :meth:`DataPlane.prune` once empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hashfn import Key
from .store import ServerStore, is_numeric_batch

__all__ = ["DataPlane", "FleetImbalance"]

#: Sentinel distinguishing "stored None" from "absent".
_MISSING = object()

#: Accounted bytes of one machine-scalar key/value pair (8 + 8).
_PAIR_NBYTES = 16


def _load_ratio(actual: float, ideal: float) -> float:
    """``actual / ideal`` with the empty-fleet corner pinned to 0/1."""
    if ideal <= 0:
        return 0.0 if actual == 0 else float("inf")
    return float(actual) / float(ideal)


def _ratio_vector(actual: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_load_ratio` (0 where both sides are empty)."""
    out = np.zeros(actual.shape, dtype=np.float64)
    loaded = ideal > 0
    out[loaded] = actual[loaded] / ideal[loaded]
    out[(~loaded) & (actual > 0)] = float("inf")
    return out


class _Groups:
    """One batch grouped by owner index: one stable sort plus ``bincount``.

    ``order`` lists batch positions owner by owner, each owner's slice
    in batch order -- so duplicate keys reach their store in sequence
    and keep sequential semantics.  ``owners`` names the owner indices
    that received keys, in index order; :meth:`split` cuts an aligned
    sequence into their chunks.
    """

    def __init__(self, index: np.ndarray, owner_count: int):
        self.order = np.argsort(index, kind="stable")
        counts = np.bincount(index, minlength=owner_count)
        owners = np.flatnonzero(counts)
        stops = np.cumsum(counts[owners])
        self._starts = stops - counts[owners]
        self.owners: List[int] = owners.tolist()
        self._bounds = list(zip(self._starts.tolist(), stops.tolist()))

    def first_touch(self) -> List[int]:
        """``owners`` in the order the batch first reaches them."""
        firsts = self.order[self._starts]
        return [self.owners[rank] for rank in np.argsort(firsts).tolist()]

    def split(self, items: Sequence[Any]) -> Iterator[List[Any]]:
        """``items`` permuted into owner order, one list per owner.

        An array is gathered as an array and only each owner's chunk
        becomes Python objects (builtins, which hash faster in the
        store dicts than numpy scalars), so a million-key batch never
        exists as a million Python ints at once.
        """
        if isinstance(items, np.ndarray):
            ordered = items[self.order]
            for start, stop in self._bounds:
                yield ordered[start:stop].tolist()
        else:
            ordered = list(map(items.__getitem__, self.order.tolist()))
            yield from (ordered[start:stop] for start, stop in self._bounds)


@dataclass(frozen=True)
class FleetImbalance:
    """Fleet-level load vs the weight-proportional ideal.

    Server ``i``'s ideal share of keys (and bytes) is ``w_i / W`` of
    the fleet total; each ratio below is ``actual / ideal``, so 1.0 is
    a perfectly weight-proportional placement, and ``keys_max_ratio``
    is the classic max-to-(weighted-)mean hot-spot factor.
    """

    servers: int
    total_keys: int
    total_bytes: int
    keys_max_ratio: float
    keys_mean_ratio: float
    bytes_max_ratio: float
    bytes_mean_ratio: float

    def describe(self) -> str:
        return (
            "fleet imbalance over {} server(s): keys max/ideal {:.3f} "
            "(mean {:.3f}), bytes max/ideal {:.3f} (mean {:.3f})".format(
                self.servers,
                self.keys_max_ratio,
                self.keys_mean_ratio,
                self.bytes_max_ratio,
                self.bytes_mean_ratio,
            )
        )


class DataPlane:
    """Routed key-value storage over a fleet of per-server stores."""

    def __init__(self, router):
        self._router = router
        self._stores: Dict[Key, ServerStore] = {}
        self._mutations = 0

    # -- introspection ----------------------------------------------------

    @property
    def router(self):
        """The routing facade addressing the store fleet."""
        return self._router

    @property
    def stores(self) -> Mapping[Key, ServerStore]:
        """Read-only view of the live stores, by server id."""
        return MappingProxyType(self._stores)

    def store(self, server_id: Key) -> ServerStore:
        """The server's store, created empty on first touch."""
        store = self._stores.get(server_id)
        if store is None:
            store = self._stores[server_id] = ServerStore(server_id)
        return store

    @property
    def mutation_count(self) -> int:
        """Monotonic count of writes/deletes through this plane.

        Migration executors mutate the stores directly (their copies
        are not application writes), so this counts exactly the
        *traffic* mutations -- the drain's catch-up pass compares it
        across the copy phase to decide whether a second sweep is
        needed at all.
        """
        return self._mutations

    @property
    def key_count(self) -> int:
        """Total keys stored across the fleet."""
        return sum(len(store) for store in self._stores.values())

    @property
    def total_bytes(self) -> int:
        """Total accounted bytes across the fleet."""
        return sum(store.nbytes for store in self._stores.values())

    def __len__(self) -> int:
        return self.key_count

    def __contains__(self, key: Key) -> bool:
        store = self._stores.get(self._router.route(key))
        return store is not None and key in store

    def __repr__(self) -> str:
        return "DataPlane(stores={}, keys={}, bytes={})".format(
            len(self._stores), self.key_count, self.total_bytes
        )

    def stats(
        self, weights: Optional[Mapping[Key, float]] = None
    ) -> Dict[Key, Dict[str, Any]]:
        """Per-server occupancy: ``{server_id: {keys, bytes}}``.

        With a ``weights`` mapping (a heterogeneous fleet's capacity
        vector) each record additionally carries ``weight`` and the
        load factors ``keys_ratio`` / ``bytes_ratio`` -- actual load
        over the server's weight-proportional ideal share (1.0 =
        perfectly proportional; see :meth:`imbalance` for the fleet
        summary).
        """
        stats = {
            server_id: {"keys": len(store), "bytes": store.nbytes}
            for server_id, store in self._stores.items()
        }
        if weights is not None:
            total_weight = float(sum(weights.values()))
            total_keys = self.key_count
            total_bytes = self.total_bytes
            for server_id, record in stats.items():
                weight = float(weights.get(server_id, 0.0))
                share = weight / total_weight if total_weight else 0.0
                record["weight"] = weight
                record["keys_ratio"] = _load_ratio(
                    record["keys"], share * total_keys
                )
                record["bytes_ratio"] = _load_ratio(
                    record["bytes"], share * total_bytes
                )
        return stats

    def imbalance(
        self, weights: Optional[Mapping[Key, float]] = None
    ) -> FleetImbalance:
        """Fleet-level imbalance vs the weight-proportional ideal.

        Measured over the servers currently in the routing fleet
        (departed servers' stranded stores are excluded -- they are a
        migration backlog, not load).  ``weights`` defaults to the
        homogeneous fleet (all 1.0), making the ratios plain
        max-to-mean / mean-to-mean load factors.
        """
        fleet = list(self._router.server_ids)
        if not fleet:
            return FleetImbalance(0, 0, 0, 0.0, 0.0, 0.0, 0.0)
        if weights is None:
            weights = {server_id: 1.0 for server_id in fleet}
        total_weight = float(
            sum(weights.get(server_id, 1.0) for server_id in fleet)
        )
        keys = np.asarray(
            [
                len(self._stores[s]) if s in self._stores else 0
                for s in fleet
            ],
            dtype=np.float64,
        )
        nbytes = np.asarray(
            [
                self._stores[s].nbytes if s in self._stores else 0
                for s in fleet
            ],
            dtype=np.float64,
        )
        shares = np.asarray(
            [weights.get(s, 1.0) / total_weight for s in fleet],
            dtype=np.float64,
        )
        keys_ratios = _ratio_vector(keys, shares * keys.sum())
        bytes_ratios = _ratio_vector(nbytes, shares * nbytes.sum())
        return FleetImbalance(
            servers=len(fleet),
            total_keys=int(keys.sum()),
            total_bytes=int(nbytes.sum()),
            keys_max_ratio=float(keys_ratios.max()),
            keys_mean_ratio=float(keys_ratios.mean()),
            bytes_max_ratio=float(bytes_ratios.max()),
            bytes_mean_ratio=float(bytes_ratios.mean()),
        )

    def keys(self) -> np.ndarray:
        """Every stored key, store by store, first occurrence kept.

        Deduplicated: during a retained-source migration (the graceful
        drain's pre-copy) a key legitimately sits in two stores at
        once, and the tracked probe population must still count it
        once.  Integer key sets come back as an integer array (the
        vectorized hashing path); anything else stays ``object`` so key
        identity survives -- ``np.asarray`` on mixed types would coerce
        to strings and strand every non-string key at migration time.
        """
        collected: List[Key] = list(
            dict.fromkeys(
                key
                for store in self._stores.values()
                for key in store.keys()
            )
        )
        array = np.asarray(collected)
        if array.dtype.kind in ("i", "u"):
            return array
        return np.asarray(collected, dtype=object)

    def owner(self, key: Key) -> Key:
        """The server currently routed for ``key``."""
        return self._router.route(key)

    # -- scalar operations -------------------------------------------------

    def put(self, key: Key, value: Any) -> Key:
        """Write at the key's *assigned* owner; returns its server id.

        Writes are avoid-blind: a suspect server is served around on
        the read path (:meth:`get` fails over through the router's
        avoid set) but still *owns* its keys, so writes keep landing at
        the assignment -- otherwise a transient health blip would
        strand data on a failover replica the moment the flag lifts.
        """
        server_id = self._router.assign(key)
        self.store(server_id).put(key, value)
        self._mutations += 1
        return server_id

    def get(self, key: Key, default: Any = _MISSING) -> Any:
        """Read at the key's *current* owner.

        Raises ``KeyError`` (or returns ``default``) when the routed
        store does not hold the key -- including mid-migration, when
        the key is still in flight from its previous owner.
        """
        store = self._stores.get(self._router.route(key))
        value = _MISSING if store is None else store.get(key, _MISSING)
        if value is _MISSING:
            if default is _MISSING:
                raise KeyError(key)
            return default
        return value

    def delete(self, key: Key) -> Any:
        """Delete at the key's *assigned* owner; ``KeyError`` when absent.

        A storage mutation like :meth:`put`, so it is avoid-blind.  A
        key still in flight from its previous owner is not visible at
        the assigned store and raises.
        """
        store = self._stores.get(self._router.assign(key))
        if store is None or key not in store:
            raise KeyError(key)
        self._mutations += 1
        return store.delete(key)

    # -- bulk operations ---------------------------------------------------

    def _owner_stores(
        self, groups: _Groups, ids: Tuple[Key, ...]
    ) -> List[Optional[ServerStore]]:
        """Each grouped owner's store (None where it has none yet)."""
        stores = self._stores
        return [stores.get(ids[owner]) for owner in groups.owners]

    def put_many(self, keys: Sequence[Key], values: Sequence[Any]) -> np.ndarray:
        """Write aligned batches; returns each key's owning server id.

        One routed assignment pass and one :class:`_Groups` sort, then
        one :meth:`~repro.store.store.ServerStore.put_many` per owning
        server -- a batch landing on few servers (the common case at
        fleet scale) pays per-store, not per-key, overhead.  The batch
        is priced once: an all-numeric batch (every key and value a
        machine scalar, one :func:`~repro.store.store.is_numeric_batch`
        probe each) charges each store 16 bytes per pair without a
        per-item pass.
        """
        if len(keys) != len(values):
            raise ValueError(
                "put_many needs aligned batches, got {} keys and {} "
                "values".format(len(keys), len(values))
            )
        index, ids = self._router.owner_indices(keys, failover=False)
        groups = _Groups(index, len(ids))
        stores = self._owner_stores(groups, ids)
        if None in stores:
            # Open new stores in first-touch order, as sequential puts do.
            for owner in groups.first_touch():
                self.store(ids[owner])
            stores = self._owner_stores(groups, ids)
        numeric = is_numeric_batch(keys) and is_numeric_batch(values)
        for store, group_keys, group_values in zip(
            stores, groups.split(keys), groups.split(values)
        ):
            store.put_many(
                group_keys,
                group_values,
                _PAIR_NBYTES * len(group_keys) if numeric else None,
            )
        self._mutations += len(keys)
        return np.asarray(ids, dtype=object)[index]

    def get_many(self, keys: Sequence[Key]) -> Tuple[np.ndarray, np.ndarray]:
        """Batched routed reads: ``(values, found)`` aligned to ``keys``.

        ``found`` is a boolean mask; missing keys (including in-flight
        ones) leave ``None`` in ``values``.  Reads are grouped per
        routed owner, served by one bulk store read each, and scattered
        back into batch order with one fancy assignment.
        """
        index, ids = self._router.owner_indices(keys)
        groups = _Groups(index, len(ids))
        gathered: List[Any] = []
        hits: List[np.ndarray] = []
        stores = self._owner_stores(groups, ids)
        for store, group_keys in zip(stores, groups.split(keys)):
            if store is None:
                gathered.extend(repeat(None, len(group_keys)))
                hits.append(np.zeros(len(group_keys), dtype=bool))
                continue
            group_values, group_found = store.get_many(group_keys)
            gathered.extend(group_values)
            hits.append(group_found)
        n = len(index)
        values = np.empty(n, dtype=object)
        found = np.zeros(n, dtype=bool)
        if hits:
            # ``fromiter`` builds a flat object array, so tuple and
            # array values stay whole (never broadcast into rows).
            values[groups.order] = np.fromiter(gathered, dtype=object, count=n)
            found[groups.order] = np.concatenate(hits)
        return values, found

    def delete_many(self, keys: Sequence[Key]) -> np.ndarray:
        """Batched routed deletes; returns a per-key deleted mask.

        Bit-equivalent to looping :meth:`delete` with the ``KeyError``
        swallowed: each key is removed at its *assigned* owner
        (avoid-blind, like every storage mutation), absent keys --
        including in-flight ones and duplicates already consumed
        earlier in the batch -- come back ``False``.  One routed
        assignment pass, then one
        :meth:`~repro.store.store.ServerStore.delete_many` (a single
        accounting update) per owning server.
        """
        n = len(keys)
        deleted = np.zeros(n, dtype=bool)
        if n == 0:
            return deleted
        index, ids = self._router.owner_indices(keys, failover=False)
        groups = _Groups(index, len(ids))
        hits: List[np.ndarray] = []
        stores = self._owner_stores(groups, ids)
        for store, group_keys in zip(stores, groups.split(keys)):
            if store is None:
                hits.append(np.zeros(len(group_keys), dtype=np.int64))
            else:
                hits.append(store.delete_many(group_keys))
        removed = np.concatenate(hits)
        deleted[groups.order] = removed.astype(bool)
        self._mutations += int(removed.sum())
        return deleted

    # -- migration / accounting integration --------------------------------

    def track(self) -> int:
        """Install the stored key set as the router's probe population.

        After this, every membership epoch's remap accounting *and*
        migration plan cover exactly the data this plane holds; returns
        the number of keys tracked.
        """
        keys = self.keys()
        self._router.track(keys)
        return int(keys.size)

    def prune(self) -> Tuple[Key, ...]:
        """Drop empty stores of servers no longer in the fleet."""
        fleet = set(self._router.server_ids)
        dropped = tuple(
            server_id
            for server_id, store in self._stores.items()
            if not store and server_id not in fleet
        )
        for server_id in dropped:
            del self._stores[server_id]
        return dropped

    def clone(self) -> "DataPlane":
        """A copy sharing the router but owning independent stores."""
        twin = DataPlane(self._router)
        twin._stores = {
            server_id: store.clone()
            for server_id, store in self._stores.items()
        }
        return twin
