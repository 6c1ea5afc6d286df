"""The ``Router`` facade: batch-first, declarative routing over any table.

The paper's tables mutate membership one ``join()``/``leave()`` at a
time -- the emulator's request-stream shape.  A serving system works the
other way around: a control plane *declares* the server set it wants
(from service discovery, an autoscaler, a failure detector) and the
routing layer reconciles.  :class:`Router` wraps any
:class:`~repro.hashing.base.DynamicHashTable` with that control-plane
surface:

* :meth:`apply` -- one atomic :class:`MembershipUpdate` (a batch of
  joins and leaves), validated before any mutation;
* :meth:`sync` -- compute and apply the minimal join/leave diff to a
  target server set (declarative membership);
* a monotonically increasing **membership epoch**, bumped exactly once
  per applied mutation batch -- the version number a cache or replica
  compares to decide whether its routing view is stale;
* per-epoch **remap accounting** over an optional probe key set (the
  operational churn bill of Section 1, measured continuously), backed
  by a shared :class:`~repro.service.migration.DeltaTracker`;
* a :class:`~repro.service.migration.MigrationPlan` emitted with every
  epoch record -- :meth:`apply` returns an :class:`EpochResult`
  ``(record, plan)`` pair, both derived from the *same* assignment
  diff, so the accounting and the data movement can never disagree;
* a :class:`RouterObserver` hook called once per closed epoch with its
  :class:`EpochResult`, which the serving tier's cache invalidator
  plugs into.

The serving contract -- reads fail over around avoided servers, writes
land at the assigned owner -- is written once, in :class:`_RoutingSurface`,
which :class:`Router` and :class:`~repro.service.cluster.ClusterRouter`
both inherit; each router supplies only how a key reaches its table.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..errors import (
    DuplicateServerError,
    EmptyTableError,
    UnknownServerError,
    WeightError,
)
from ..hashfn import Key
from ..hashing.base import DynamicHashTable
from .migration import DeltaTracker, MigrationPlan

__all__ = [
    "MembershipUpdate",
    "EpochRecord",
    "EpochResult",
    "RouterObserver",
    "Router",
    "normalize_fleet",
]


def _unique(ids: Iterable[Key]) -> Tuple[Key, ...]:
    """Order-preserving dedup (server ids may be any hashable)."""
    seen = set()
    out: List[Key] = []
    for server_id in ids:
        if server_id not in seen:
            seen.add(server_id)
            out.append(server_id)
    return tuple(out)


def _fail_over(
    table: DynamicHashTable,
    words: np.ndarray,
    slots: np.ndarray,
    avoided: Set[Key],
    reads: Optional[int] = None,
) -> np.ndarray:
    """``slots`` with every avoided primary moved to its first healthy replica.

    Only the first ``reads`` rows are reads that may fail over (every
    row when ``None``); the rest are writes and keep their assignment.
    One per-slot avoided mask, gathered at ``slots``, finds the flagged
    rows; they take one replica batch of ``k = min(pool, len(avoided)
    + 1)`` columns -- enough to hold a non-avoided server whenever one
    exists -- and keep the first healthy column per row.  Rows of
    :meth:`~repro.hashing.base.DynamicHashTable.route_replicas_batch`
    are bit-exact with the scalar replica walk, so this serves each key
    exactly where walking its replica set one server at a time would.
    """
    bad = np.fromiter(
        (server_id in avoided for server_id in table.server_ids),
        dtype=bool,
        count=table.server_count,
    )
    flagged = np.flatnonzero(bad[slots[:reads]])
    if not flagged.size:
        return slots
    k = min(table.server_count, len(avoided) + 1)
    replicas = table.route_replicas_batch(words[flagged], k)
    healthy = ~bad[replicas]
    first = healthy.argmax(axis=1)
    rows = np.arange(flagged.size)
    stuck = np.flatnonzero(~healthy[rows, first])
    if stuck.size:
        raise EmptyTableError(
            "every candidate server for word {} is in the avoid set".format(
                int(words[flagged[stuck[0]]])
            )
        )
    slots = slots.copy()
    slots[flagged] = replicas[rows, first]
    return slots


def _spec_entry(item: Any) -> Tuple[Key, Optional[float]]:
    """``(server_id, weight-or-None)`` from a bare id or spec-like object.

    Anything exposing ``server_id`` and ``weight`` attributes (a
    :class:`~repro.control.ServerSpec`, or any duck-typed equivalent)
    contributes its weight; bare identifiers contribute ``None``.
    """
    server_id = getattr(item, "server_id", None)
    if server_id is not None and hasattr(item, "weight"):
        return server_id, float(item.weight)
    return item, None


def normalize_fleet(
    target: Iterable[Any],
) -> Tuple[Tuple[Key, ...], Dict[Key, float]]:
    """Split a fleet declaration into ``(ids, explicit weights)``.

    The declaration may mix bare server ids and spec-like objects; ids
    are deduplicated order-preserving, and only explicitly declared
    weights appear in the mapping (absent means "table default").
    """
    ids: List[Key] = []
    weights: Dict[Key, float] = {}
    seen = set()
    for item in target:
        server_id, weight = _spec_entry(item)
        if server_id not in seen:
            seen.add(server_id)
            ids.append(server_id)
            if weight is not None:
                weights[server_id] = weight
    return tuple(ids), weights


@dataclass(frozen=True)
class MembershipUpdate:
    """One atomic batch of membership mutations.

    ``joins`` and ``leaves`` accept bare server ids or spec-like
    objects (``.server_id`` / ``.weight``); joining specs carry their
    capacity weight into ``weights``, the per-join ``(server_id,
    weight)`` pairs an explicit ``weights`` argument can also supply.
    """

    joins: Tuple[Key, ...] = ()
    leaves: Tuple[Key, ...] = ()
    weights: Tuple[Tuple[Key, float], ...] = ()

    def __post_init__(self):
        joins, join_weights = normalize_fleet(self.joins)
        leaves, __ = normalize_fleet(self.leaves)
        # Accepts a mapping or an iterable of pairs; dict() handles both.
        join_weights.update(
            (server_id, float(weight))
            for server_id, weight in dict(self.weights).items()
        )
        unknown = set(join_weights) - set(joins)
        if unknown:
            raise ValueError(
                "weights name servers not being joined: {!r}".format(
                    sorted(unknown, key=repr)
                )
            )
        for server_id, weight in join_weights.items():
            if weight <= 0:
                raise ValueError(
                    "weight for {!r} must be positive, got {}".format(
                        server_id, weight
                    )
                )
        object.__setattr__(self, "joins", joins)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(
            self,
            "weights",
            tuple(
                (server_id, join_weights[server_id])
                for server_id in joins
                if server_id in join_weights
            ),
        )
        overlap = set(self.joins) & set(self.leaves)
        if overlap:
            raise ValueError(
                "cannot join and leave {!r} in one update".format(
                    sorted(overlap, key=repr)
                )
            )

    @property
    def is_empty(self) -> bool:
        return not self.joins and not self.leaves

    @property
    def join_weights(self) -> Dict[Key, float]:
        """Explicit per-join weights as a mapping."""
        return dict(self.weights)


def _record_from_state(state: Dict[str, Any]) -> "EpochRecord":
    """Rebuild an :class:`EpochRecord` from its ``asdict`` snapshot."""
    return EpochRecord(
        epoch=int(state["epoch"]),
        joined=tuple(state["joined"]),
        left=tuple(state["left"]),
        server_count=int(state["server_count"]),
        remapped=float(state["remapped"]),
        probes_moved=int(state["probes_moved"]),
        mutate_seconds=float(state.get("mutate_seconds", 0.0)),
    )


@dataclass(frozen=True)
class EpochRecord:
    """What one membership epoch did to the routing state."""

    epoch: int
    joined: Tuple[Key, ...]
    left: Tuple[Key, ...]
    server_count: int
    #: Fraction of tracked probe keys whose assignment changed this
    #: epoch (0.0 when no probe set is tracked).
    remapped: float
    #: Absolute number of tracked probe keys that moved.
    probes_moved: int
    #: Wall time spent in the table's own join/leave mutations -- the
    #: algorithmic membership cost, excluding validation, rollback
    #: capture, probe accounting and observer dispatch.
    mutate_seconds: float = 0.0

    @property
    def remap_fraction(self) -> float:
        """Alias of :attr:`remapped`, the paper's remap-fraction term."""
        return self.remapped


class EpochResult(NamedTuple):
    """What :meth:`Router.apply` emits for one closed epoch.

    ``record`` is the accounting; ``plan`` is the data movement the
    epoch requires.  Both come from one assignment diff over the
    tracked probe population, so ``plan.total_keys ==
    record.probes_moved`` and ``plan.moved_fraction ==
    record.remap_fraction`` hold bit-exactly.
    """

    record: EpochRecord
    plan: MigrationPlan


class RouterObserver:
    """Base class for the router's one event hook, called per epoch."""

    def on_epoch(self, result: "EpochResult") -> None:
        """An epoch closed; ``result`` carries the record (who joined
        and left, the remap accounting) *and* the migration plan naming
        exactly the tracked keys the epoch rerouted -- the hook an
        epoch-invalidated cache uses to evict precisely the remapped
        keys instead of flushing."""


class _RoutingSurface:
    """The serving contract of :class:`Router` and ``ClusterRouter``.

    Reads fail over, writes do not.  :meth:`route` and its batch forms
    serve a key whose assigned owner is avoided -- flagged by
    :meth:`avoid`, or named in a per-call ``avoid`` -- from its first
    replica outside the avoid set, with no membership change.
    :meth:`assign` and its batch forms are avoid-blind: data always
    lives at the assigned owner, so a transient health flag never
    strands a write on a failover replica.

    A router supplies only how a key reaches its table: ``shards``
    (the :class:`Router` shards that hold the tables and fire the
    events; ``(self,)`` on a :class:`Router`), :meth:`words_of_keys`,
    ``_locate(key) -> (table, word)``, ``_index_words(words, avoided,
    reads=None)`` (only the first ``reads`` rows fail over; every row
    when ``None``) and ``_replica_index_words(words, k)`` -- the last
    two return ``(index, ids)`` with ``ids[index]`` the owners.  It
    also keeps the ``_avoided`` set and drops a flag when its server
    leaves.
    """

    # -- membership --------------------------------------------------------

    def __contains__(self, server_id: Key) -> bool:
        return any(server_id in shard.table for shard in self.shards)

    def join(self, server_id: Key, weight: Optional[float] = None):
        """Single-server convenience for ``apply``."""
        weights = () if weight is None else ((server_id, weight),)
        return self.apply(MembershipUpdate(joins=(server_id,), weights=weights))

    def leave(self, server_id: Key):
        """Single-server convenience for ``apply``."""
        return self.apply(MembershipUpdate(leaves=(server_id,)))

    # -- observers ---------------------------------------------------------

    def subscribe(self, observer: RouterObserver) -> RouterObserver:
        """Attach an observer to every shard; returns it (decorator-friendly).

        Each shard dispatches its own events, so a cluster subscriber
        sees one ``on_epoch`` per shard whose membership changed, each
        carrying that shard's migration plan.
        """
        for shard in self.shards:
            shard._observers.append(observer)
        return observer

    def unsubscribe(self, observer: RouterObserver) -> None:
        """Detach a previously subscribed observer."""
        for shard in self.shards:
            shard._observers.remove(observer)

    # -- failure / drain flagging ------------------------------------------

    @property
    def avoided(self) -> frozenset:
        """Servers currently excluded from serving (failover targets)."""
        return frozenset(self._avoided)

    def avoid(self, server_id: Key) -> None:
        """Exclude a member from serving without a membership change.

        The server stays in the table (no epoch, no remap bill); keys it
        owns are served by their first non-avoided replica until the
        control plane either readmits it or reconciles it out.  This is
        the failure detector's *suspect* path and the drain path's
        new-ownership exclusion.
        """
        if server_id not in self:
            raise UnknownServerError(server_id)
        self._avoided.add(server_id)

    def readmit(self, server_id: Key) -> None:
        """Lift a previous :meth:`avoid` flag (no-op when not flagged)."""
        self._avoided.discard(server_id)

    def _avoid_set(self, avoid: Optional[Iterable[Key]]) -> Set[Key]:
        """The persistent avoid set merged with a per-call ``avoid``."""
        return self._avoided if avoid is None else self._avoided | set(avoid)

    # -- scalar routing ----------------------------------------------------

    def assign(self, key: Key) -> Key:
        """The key's *assigned* owner, avoid-blind: the write path."""
        table, word = self._locate(key)
        table._require_servers()
        return table._server_ids[table.route_word(word)]

    def route(self, key: Key, avoid: Optional[Iterable[Key]] = None) -> Key:
        """The server that serves a read of ``key`` (avoid-aware).

        The assigned owner, unless it is avoided -- the persistent set
        plus any per-call ``avoid``; then :func:`_fail_over` on one row
        picks the key's first non-avoided replica.
        """
        table, word = self._locate(key)
        table._require_servers()
        ids = table._server_ids
        slot = table.route_word(word)
        avoided = self._avoid_set(avoid)
        if avoided and ids[slot] in avoided:
            slot = _fail_over(
                table,
                np.array([word], dtype=np.uint64),
                np.array([slot]),
                avoided,
            )[0]
        return ids[slot]

    def route_replicas(self, key: Key, k: int) -> Tuple[Key, ...]:
        """The key's ``k``-replica set from the table that owns it.

        The replica contract (k pairwise-distinct servers, the head
        equal to :meth:`assign`'s owner, batch/scalar bit-exact) is
        stated once at
        :meth:`~repro.hashing.base.DynamicHashTable.route_word_replicas`;
        :meth:`route`'s failover walks this set.
        """
        table, word = self._locate(key)
        slots = table.route_word_replicas(word, k).tolist()
        return tuple(table._server_ids[slot] for slot in slots)

    # -- batch routing -----------------------------------------------------

    def owner_indices(
        self,
        keys: Sequence[Key],
        avoid: Optional[Iterable[Key]] = None,
        reads: Optional[int] = None,
    ) -> Tuple[np.ndarray, Tuple[Key, ...]]:
        """Batched owners as integers: ``ids[index[i]]`` owns ``keys[i]``.

        The one batch routing path: hash once, then ``_index_words``.
        ``keys[:reads]`` are reads (every key when ``reads`` is
        ``None``): each whose owner is avoided -- the persistent set
        plus any per-call ``avoid`` -- is served from its first
        non-avoided replica (:func:`_fail_over`), from the same words.
        The keys after them are writes and keep their assigned owner,
        so ``reads=0`` is the avoid-blind :meth:`assign` path; the data
        plane routes a micro-batch's misses, deletes and puts in one
        call.  Callers group keys by the integer index and turn indices
        into server ids only where ids leave the call.
        """
        avoided = None if reads == 0 else self._avoid_set(avoid)
        return self._index_words(self.words_of_keys(keys), avoided, reads)

    def assign_batch(self, keys: Sequence[Key]) -> np.ndarray:
        """Batched :meth:`assign` (avoid-blind), as server ids."""
        return self.route_words(self.words_of_keys(keys))

    def route_batch(
        self, keys: Sequence[Key], avoid: Optional[Iterable[Key]] = None
    ) -> np.ndarray:
        """Batched :meth:`route` (avoid-aware), as server ids."""
        index, ids = self.owner_indices(keys, avoid)
        return np.asarray(ids, dtype=object)[index]

    def route_words(self, words: np.ndarray) -> np.ndarray:
        """Route pre-hashed words (avoid-blind), as server ids."""
        index, ids = self._index_words(np.asarray(words, dtype=np.uint64), None)
        return np.asarray(ids, dtype=object)[index]

    def route_replicas_batch(self, keys: Sequence[Key], k: int) -> np.ndarray:
        """Batched ``(len(keys), k)`` replica sets, row for row
        :meth:`route_replicas`."""
        return self.route_replicas_words(self.words_of_keys(keys), k)

    def route_replicas_words(self, words: np.ndarray, k: int) -> np.ndarray:
        """Batched ``(n, k)`` replica sets over pre-hashed words."""
        index, ids = self._replica_index_words(np.asarray(words, dtype=np.uint64), k)
        return np.asarray(ids, dtype=object)[index]


class Router(_RoutingSurface):
    """Production-facing facade over a :class:`DynamicHashTable`."""

    def __init__(
        self,
        table: DynamicHashTable,
        probe_keys: Optional[Sequence[Key]] = None,
        observers: Iterable[RouterObserver] = (),
    ):
        self._table = table
        self._observers: List[RouterObserver] = list(observers)
        self._epoch = 0
        self._history: List[EpochRecord] = []
        self._avoided: Set[Key] = set()
        self._delta = DeltaTracker(self._probe_assignment, table=table)
        if probe_keys is not None:
            self.track(probe_keys)

    # -- introspection ----------------------------------------------------

    @property
    def table(self) -> DynamicHashTable:
        """The wrapped algorithm."""
        return self._table

    @property
    def algorithm(self) -> str:
        """Registry name of the wrapped algorithm."""
        return self._table.name

    @property
    def epoch(self) -> int:
        """Monotonic membership version; bumped once per mutation batch."""
        return self._epoch

    @property
    def history(self) -> Tuple[EpochRecord, ...]:
        """Every epoch applied through this router, in order."""
        return tuple(self._history)

    @property
    def server_ids(self) -> Tuple[Key, ...]:
        return self._table.server_ids

    @property
    def server_count(self) -> int:
        return self._table.server_count

    @property
    def shards(self) -> Tuple["Router", ...]:
        """``(self,)``: a router is its own single shard."""
        return (self,)

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return "Router({}, servers={}, epoch={})".format(
            self._table.name, self._table.server_count, self._epoch
        )

    # -- remap accounting --------------------------------------------------

    def _probe_assignment(self, words: np.ndarray) -> Optional[np.ndarray]:
        """Current assignment of pre-hashed words (None on empty pool)."""
        if not self._table.server_count:
            return None
        return self._table.lookup_words(words)

    def track(self, probe_keys: Sequence[Key]) -> None:
        """Install the probe key set used for per-epoch remap accounting.

        Probes are routed after every mutation batch; the fraction whose
        assignment moved is recorded on that batch's
        :class:`EpochRecord`, and the moved keys themselves become the
        epoch's :class:`~repro.service.migration.MigrationPlan`.  Probe
        keys are hashed to words once here (cached on the
        :class:`~repro.service.migration.DeltaTracker`), so each
        epoch's accounting pass is pure batched routing with no per-key
        re-hashing.
        """
        keys = np.asarray(probe_keys)
        self._delta.track(keys, self._table.words_of_keys(keys))

    @property
    def probe_keys(self) -> Optional[np.ndarray]:
        """The tracked probe set, or None when accounting is off."""
        return self._delta.probe_keys

    @property
    def delta_tracker(self) -> DeltaTracker:
        """The probe cache backing accounting and migration planning."""
        return self._delta

    # -- membership --------------------------------------------------------

    def apply(self, update: MembershipUpdate) -> Optional[EpochResult]:
        """Apply one mutation batch atomically; emits ``(record, plan)``.

        The whole batch is validated against current membership before
        any mutation, and the table state is captured first, so a
        failure anywhere in the batch (including mid-batch algorithm
        errors such as :class:`~repro.errors.CapacityError`) raises with
        the table rolled back bit-exactly and no epoch consumed.  An
        empty update is a no-op and does **not** bump the epoch.

        The returned :class:`EpochResult` carries the epoch's
        accounting record and the migration plan for the tracked keys
        the epoch rerouted (an empty plan when nothing is tracked).
        The epoch / :class:`~repro.service.migration.DeltaTracker` /
        :class:`~repro.service.migration.MigrationPlan` flow is mapped
        end to end in ``docs/ARCHITECTURE.md``.
        """
        if update.is_empty:
            return None
        current = set(self._table.server_ids)
        for server_id in update.leaves:
            if server_id not in current:
                raise UnknownServerError(server_id)
        for server_id in update.joins:
            if server_id in current:
                raise DuplicateServerError(server_id)
        weights = update.join_weights
        weight_capable = getattr(self._table, "supports_weights", False)
        if not weight_capable:
            for server_id, weight in weights.items():
                if weight != 1.0:
                    raise WeightError(
                        "table {!r} does not support weights; cannot join "
                        "{!r} at weight {} (use 'weighted-rendezvous' or "
                        "the 'weighted' wrapper)".format(
                            self._table.name, server_id, weight
                        )
                    )
        rollback = self._table.state_dict()
        started = time.perf_counter()
        try:
            for server_id in update.leaves:
                self._table.leave(server_id)
            for server_id in update.joins:
                weight = weights.get(server_id)
                if weight is not None and weight_capable:
                    self._table.join(server_id, weight=weight)
                else:
                    self._table.join(server_id)
        except Exception:
            self._table._restore(rollback)
            raise
        mutate_seconds = time.perf_counter() - started
        self._avoided -= set(update.leaves)
        self._epoch += 1
        delta = self._delta.close(joined=update.joins, left=update.leaves)
        record = EpochRecord(
            epoch=self._epoch,
            joined=update.joins,
            left=update.leaves,
            server_count=self._table.server_count,
            remapped=delta.fraction,
            probes_moved=delta.moved,
            mutate_seconds=mutate_seconds,
        )
        plan = MigrationPlan.from_delta(delta, epoch=self._epoch)
        self._history.append(record)
        result = EpochResult(record=record, plan=plan)
        for observer in self._observers:
            observer.on_epoch(result)
        return result

    def diff(self, target_server_ids: Iterable[Key]) -> MembershipUpdate:
        """The minimal update taking current membership to ``target``.

        ``target`` may mix bare ids and spec-like objects; weights of
        *joining* specs ride along on the update (weight changes on
        servers already in the pool are not diffable -- reconcile those
        as a leave followed by a re-join).  Joins preserve the target's
        iteration order; leaves preserve the table's slot order.
        Servers present in both sides are untouched.
        """
        target, weights = normalize_fleet(target_server_ids)
        target_set = set(target)
        current = set(self._table.server_ids)
        joins = tuple(s for s in target if s not in current)
        return MembershipUpdate(
            joins=joins,
            leaves=tuple(
                s for s in self._table.server_ids if s not in target_set
            ),
            weights=tuple(
                (s, weights[s]) for s in joins if s in weights
            ),
        )

    def sync(self, target_server_ids: Iterable[Key]) -> Optional[EpochResult]:
        """Reconcile membership to ``target_server_ids`` declaratively.

        Computes the minimal join/leave diff and applies it as one
        batch: one epoch bump (with its ``(record, plan)`` result) for
        any amount of churn, no epoch bump (and no events) when already
        in sync.
        """
        return self.apply(self.diff(target_server_ids))

    # -- routing hooks -----------------------------------------------------

    def words_of_keys(self, keys: Sequence[Key]) -> np.ndarray:
        """Hash a key batch to routing words."""
        return self._table.words_of_keys(keys)

    def _locate(self, key: Key) -> Tuple[DynamicHashTable, int]:
        table = self._table
        return table, table.family.word(key)

    def _index_words(
        self,
        words: np.ndarray,
        avoided: Optional[Set[Key]],
        reads: Optional[int] = None,
    ) -> Tuple[np.ndarray, Tuple[Key, ...]]:
        """Table slots for ``words``, avoided read owners failed over."""
        table = self._table
        index = table.route_batch(words)
        if avoided:
            index = _fail_over(table, words, index, avoided, reads)
        return index, table.server_ids

    def _replica_index_words(
        self, words: np.ndarray, k: int
    ) -> Tuple[np.ndarray, Tuple[Key, ...]]:
        table = self._table
        return table.route_replicas_batch(words, k), table.server_ids

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A restorable snapshot of the table plus router metadata.

        The epoch *and* the full :class:`EpochRecord` history are
        persisted, so remap accounting survives a snapshot round-trip:
        a restored router reports the same churn bill the original
        accumulated.
        """
        return {
            "router": {
                "epoch": self._epoch,
                "history": [asdict(record) for record in self._history],
            },
            "table": self._table.state_dict(),
        }

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        probe_keys: Optional[Sequence[Key]] = None,
        observers: Iterable[RouterObserver] = (),
    ) -> "Router":
        """Rebuild a router (and its table) from :meth:`snapshot`."""
        table = DynamicHashTable.from_state(snapshot["table"])
        router = cls(table, probe_keys=probe_keys, observers=observers)
        meta = snapshot.get("router", {})
        router._epoch = int(meta.get("epoch", 0))
        router._history = [
            _record_from_state(record) for record in meta.get("history", ())
        ]
        return router
