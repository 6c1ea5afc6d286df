"""The data plane: a fleet of per-server stores behind a routing facade.

A :class:`DataPlane` owns one :class:`~repro.store.store.ServerStore`
per server and addresses them through either router's one routing
contract (reads ``route``, writes ``assign``), always consulting the
*current* routing state -- which is exactly what makes live migration
observable: after a resize epoch, a key that has been rerouted but not
yet copied misses at its new owner until the migration executor
commits it.

A batch takes one routing pass and one store pass
(:meth:`DataPlane.serve_batch`): the union of its reads, deletes and
puts is hashed and routed once (``owner_indices(keys, reads=...)``:
the reads fail over, the writes keep their assignment), and one
:class:`~repro.store.store.FleetStores` pass applies the reads, then
the deletes, then the puts to the store dicts.  Routing returns
``(index, ids)``; server ids appear only where they leave the call, in
the puts' returned owners.  ``get_many`` / ``put_many`` /
``delete_many`` are one-op batches of the same pass.

Stores of servers that left the fleet are intentionally retained --
their keys are stranded until a migration plan drains them -- and can
be dropped with :meth:`DataPlane.prune` once empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hashfn import Key
from .store import FleetStores, ServerStore, stored_keys

__all__ = ["DataPlane", "FleetImbalance"]

#: Sentinel distinguishing "stored None" from "absent".
_MISSING = object()


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


def _union(*parts: Sequence[Key]) -> Sequence[Key]:
    """The parts as one key batch; a lone non-empty part is not copied.

    Numpy parts join as builtins: the element-wise hash rejects numpy
    scalars, and a numpy int part next to string keys hashes element
    by element.
    """
    filled = [part for part in parts if len(part)]
    if len(filled) == 1:
        return filled[0]
    return list(
        chain.from_iterable(
            part.tolist() if isinstance(part, np.ndarray) else part for part in filled
        )
    )


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
        # ``(ids, owner ids as an object array, FleetStores)`` for the
        # last routing id tuple; dropped whenever a store opens or goes.
        self._fleet_cache: Optional[
            Tuple[Tuple[Key, ...], np.ndarray, FleetStores]
        ] = None

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
            self._fleet_cache = None
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
        Collected in C (:func:`~repro.store.store.stored_keys`).
        """
        return stored_keys(self._stores.values())

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

    def _fleet(self, ids: Tuple[Key, ...]) -> Tuple[np.ndarray, FleetStores]:
        """The stores of routing id tuple ``ids``, in its index order.

        Cached while the routing ids stay equal and no store opens or
        goes, so a batch costs no per-server work.
        """
        cached = self._fleet_cache
        if cached is None or (cached[0] is not ids and cached[0] != ids):
            stores = self._stores
            cached = self._fleet_cache = (
                ids,
                np.fromiter(ids, object, len(ids)),
                FleetStores([stores.get(server_id) for server_id in ids]),
            )
        return cached[1], cached[2]

    def serve_batch(
        self,
        reads: Sequence[Key],
        deletes: Sequence[Key],
        puts: Sequence[Key],
        values: Sequence[Any],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One batch in one routing pass and one store pass.

        Returns ``(read_values, found, deleted, owners)``, aligned to
        ``reads``, ``reads``, ``deletes`` and ``puts``.  Every read
        observes the pre-batch state at the key's *current* owner
        (failing over around avoided servers); then every delete
        applies at its *assigned* owner, then every put -- writes are
        avoid-blind, so a transient health flag never strands data on
        a failover replica.  Within each op class keys apply in batch
        order: a repeated put's last value wins, a repeated delete
        removes once.  Missing reads (including keys in flight
        mid-migration) leave ``None`` with ``found`` false; ``owners``
        are the puts' server ids.

        The union of the three is hashed and routed once
        (:meth:`~repro.service.Router.owner_indices` with the reads'
        row count), the stores the puts open appear in first-touch
        order, and one
        :meth:`~repro.store.store.FleetStores.serve` applies the batch
        straight to the store dicts, with the byte accounting and
        per-store key order of the scalar loops.
        """
        r, d, p = len(reads), len(deletes), len(puts)
        if p != len(values):
            raise ValueError(
                "serve_batch needs aligned puts, got {} keys and {} "
                "values".format(p, len(values))
            )
        if not r + d + p:
            return (
                np.empty(0, dtype=object),
                np.zeros(0, dtype=bool),
                np.zeros(0, dtype=bool),
                np.empty(0, dtype=object),
            )
        index, ids = self._router.owner_indices(_union(reads, deletes, puts), reads=r)
        owner_ids, fleet = self._fleet(ids)
        put_index = index[r + d :]
        if p and fleet.absent[put_index].any():
            # Open new stores in first-touch order, as sequential puts
            # do: one O(batch) pass finds each owner's first put.
            first = np.full(len(ids), p, dtype=np.int64)
            np.minimum.at(first, put_index, np.arange(p))
            opening = np.flatnonzero(fleet.absent & (first < p))
            for owner in opening[np.argsort(first[opening])].tolist():
                self.store(ids[owner])
            owner_ids, fleet = self._fleet(ids)
        read_values, found, deleted = fleet.serve(index, reads, deletes, puts, values)
        self._mutations += p + int(np.count_nonzero(deleted))
        return read_values, found, deleted, owner_ids[put_index]

    def put_many(self, keys: Sequence[Key], values: Sequence[Any]) -> np.ndarray:
        """Write aligned batches; returns each key's owning server id.

        A put-only :meth:`serve_batch`: one routed assignment pass and
        one store pass, bit-exact with looping :meth:`put`.  A batch
        averaging 64 or more keys per server (a million-key set-up
        load) is applied owner run by owner run, and an all-numeric
        one is priced at 16 bytes a pair without an item pass.
        """
        if len(keys) != len(values):
            raise ValueError(
                "put_many needs aligned batches, got {} keys and {} "
                "values".format(len(keys), len(values))
            )
        return self.serve_batch((), (), keys, values)[3]

    def get_many(self, keys: Sequence[Key]) -> Tuple[np.ndarray, np.ndarray]:
        """Batched routed reads: ``(values, found)`` aligned to ``keys``.

        ``found`` is a boolean mask; missing keys (including in-flight
        ones) leave ``None`` in ``values``.  A read-only
        :meth:`serve_batch`; a numpy batch never exists as Python ints
        all at once.
        """
        values, found, __, __ = self.serve_batch(keys, (), (), ())
        return values, found

    def delete_many(self, keys: Sequence[Key]) -> np.ndarray:
        """Batched routed deletes; returns a per-key deleted mask.

        Bit-equivalent to looping :meth:`delete` with the ``KeyError``
        swallowed: each key is removed at its *assigned* owner
        (avoid-blind, like every storage mutation), absent keys --
        including in-flight ones and duplicates already consumed
        earlier in the batch -- come back ``False``.  A delete-only
        :meth:`serve_batch`.
        """
        return self.serve_batch((), keys, (), ())[2]

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
        if dropped:
            self._fleet_cache = None
        return dropped

    def clone(self) -> "DataPlane":
        """A copy sharing the router but owning independent stores."""
        twin = DataPlane(self._router)
        twin._stores = {
            server_id: store.clone()
            for server_id, store in self._stores.items()
        }
        return twin
