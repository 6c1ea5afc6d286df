"""The sharded cluster layer: S independent routing shards, one fleet.

One table scales until one machine's routing state (or one control
plane's churn rate) becomes the bottleneck; production fleets scale past
that by *sharding* the key space -- S independent tables, each owning
1/S of the keys, reconciled and snapshotted independently.
:class:`ClusterRouter` realises that layer over the PR-1 ``Router``
facade:

* keys are partitioned by a dedicated shard hash over their routing
  word (derived sub-family, so shard choice is decorrelated from every
  algorithm's own placement math);
* batch routing fans out shard by shard, reusing each table's deduped
  batch kernel on the pre-hashed word stream;
* membership is declarative fleet-wide (:meth:`sync` reconciles every
  shard as one cluster epoch) while each shard keeps its own monotonic
  epoch -- the per-shard epoch vector a cache compares entry-wise;
* remap accounting is cluster-wide: the tracked probe population is
  partitioned onto the shards that own it (each shard's
  :class:`~repro.service.migration.DeltaTracker` covers exactly the
  keys it serves), and every cluster epoch aggregates the per-shard
  probe movement into one fleet-level bill *and* merges the per-shard
  migration plans into one fleet-level
  :class:`~repro.service.migration.MigrationPlan`;
* snapshots nest one ``Router`` snapshot per shard; a single shard can
  be restored in place (:meth:`restore_shard`) without touching its
  peers -- and instead of silently stranding the keys the swap
  reroutes, the restore emits the migration plan that rescues them.

Routing and failover are the contract :class:`Router` has, inherited
from the same base; the cluster supplies only the shard hop.  Every
shard shares the same key-hashing family (same seed), so the cluster
hashes each key exactly once and feeds the pre-routed words to
whichever shard owns them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..errors import StateError
from ..hashfn import Key
from ..hashing.base import DynamicHashTable
from ..hashing.registry import TableSpec, make_table
from .migration import MigrationPlan
from .router import (
    EpochRecord,
    EpochResult,
    MembershipUpdate,
    Router,
    _fail_over,
    _record_from_state,
    _RoutingSurface,
    _unique,
)

__all__ = ["ClusterEpochRecord", "ClusterEpochResult", "ClusterRouter"]

#: Version stamp written into every :meth:`ClusterRouter.snapshot`.
CLUSTER_FORMAT_VERSION = 1

#: Source of shard tables: a registry spec (one table built per shard)
#: or a zero-argument factory returning a fresh empty table per call.
TableSource = Union[TableSpec, Callable[[], DynamicHashTable]]


@dataclass(frozen=True)
class ClusterEpochRecord:
    """What one cluster-wide membership change did, fleet-level.

    ``records`` holds the per-shard :class:`EpochRecord` (``None`` for
    shards the change was a no-op on); ``epochs`` is the per-shard epoch
    vector *after* the change.
    """

    epochs: Tuple[int, ...]
    records: Tuple[Optional[EpochRecord], ...]
    server_counts: Tuple[int, ...]
    #: Fraction of all tracked probe keys (across every shard) whose
    #: assignment moved in this cluster epoch.
    remapped: float
    #: Absolute number of tracked probe keys that moved, fleet-wide.
    probes_moved: int

    @property
    def remap_fraction(self) -> float:
        """Alias of :attr:`remapped`, the paper's remap-fraction term."""
        return self.remapped


class ClusterEpochResult(NamedTuple):
    """What one cluster-wide membership change emits.

    ``record`` aggregates the per-shard accounting; ``plan`` merges the
    per-shard migration plans into the fleet-level data movement the
    change requires (``plan.total_keys == record.probes_moved``).
    """

    record: ClusterEpochRecord
    plan: MigrationPlan


class ClusterRouter(_RoutingSurface):
    """S-way sharded routing over independent :class:`Router` shards."""

    def __init__(
        self,
        table_source: TableSource,
        n_shards: int,
        seed: int = 0,
        probe_keys: Optional[Sequence[Key]] = None,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self._shards: List[Router] = [
            Router(self._build_table(table_source, seed))
            for __ in range(n_shards)
        ]
        families = {router.table.family.seed for router in self._shards}
        if len(families) != 1:
            raise ValueError(
                "shard tables must share one hash-family seed so the "
                "cluster can hash each key once; factory produced seeds "
                "{}".format(sorted(families))
            )
        self._family = self._shards[0].table.family
        self._shard_family = self._family.derive("cluster-shard")
        self._history: List[ClusterEpochRecord] = []
        self._probe_keys: Optional[np.ndarray] = None
        self._avoided: Set[Key] = set()
        if probe_keys is not None:
            self.track(probe_keys)

    @staticmethod
    def _build_table(source: TableSource, seed: int) -> DynamicHashTable:
        if callable(source):
            return source()
        return make_table(source, seed=seed)

    # -- introspection ----------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of independent routing shards."""
        return len(self._shards)

    @property
    def algorithm(self) -> str:
        """Registry name of the shard tables' algorithm."""
        return self._shards[0].algorithm

    @property
    def epochs(self) -> Tuple[int, ...]:
        """The per-shard membership epoch vector."""
        return tuple(router.epoch for router in self._shards)

    @property
    def history(self) -> Tuple[ClusterEpochRecord, ...]:
        """Every cluster-wide membership change, in order."""
        return tuple(self._history)

    @property
    def server_ids(self) -> Tuple[Key, ...]:
        """Union of every shard's members, in first-seen shard order.

        Under purely declarative fleet management (:meth:`sync`) every
        shard holds the same set and this is simply the fleet.
        """
        return _unique(
            server_id
            for router in self._shards
            for server_id in router.server_ids
        )

    @property
    def server_counts(self) -> Tuple[int, ...]:
        """Per-shard pool sizes."""
        return tuple(router.server_count for router in self._shards)

    @property
    def shards(self) -> Tuple[Router, ...]:
        """The shard routers, in shard order."""
        return tuple(self._shards)

    def __len__(self) -> int:
        return len(self.server_ids)

    def __repr__(self) -> str:
        return "ClusterRouter({}, shards={}, epochs={})".format(
            self.algorithm, self.n_shards, list(self.epochs)
        )

    # -- shard assignment --------------------------------------------------

    def shard_of_word(self, word: int) -> int:
        """Shard that owns a pre-hashed routing word."""
        return int(self._shard_family.pair(int(word), 0)) % self.n_shards

    def shard_of(self, key: Key) -> int:
        """Shard that owns a request key."""
        return self.shard_of_word(self._family.word(key))

    def shards_of_words(self, words: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of_word` over a word batch."""
        words = np.asarray(words, dtype=np.uint64)
        owners = self._shard_family.pair_vec(words, np.uint64(0))
        return (owners % np.uint64(self.n_shards)).astype(np.int64)

    def words_of_keys(self, keys: Sequence[Key]) -> np.ndarray:
        """Hash a key batch once, for the whole cluster."""
        return self._shards[0].table.words_of_keys(keys)

    # -- routing hooks -----------------------------------------------------

    def _locate(self, key: Key) -> Tuple[DynamicHashTable, int]:
        word = self._family.word(key)
        return self._shards[self.shard_of_word(word)].table, word

    def _by_shard(
        self, words: np.ndarray, ids: Tuple[Key, ...]
    ) -> Iterator[Tuple[np.ndarray, DynamicHashTable, np.ndarray]]:
        """Yield ``(rows, table, to_fleet)`` for each shard owning some words.

        ``to_fleet`` maps the shard table's slots to positions in
        ``ids``: every shard of a synced fleet holds the same servers,
        so a server keeps one fleet index whichever shard routes to it.
        """
        fleet = {server_id: position for position, server_id in enumerate(ids)}
        shards = self.shards_of_words(words)
        for shard_index in np.unique(shards).tolist():
            table = self._shards[shard_index].table
            to_fleet = np.fromiter(
                (fleet[server_id] for server_id in table.server_ids),
                dtype=np.int64,
                count=table.server_count,
            )
            yield np.flatnonzero(shards == shard_index), table, to_fleet

    def _index_words(
        self,
        words: np.ndarray,
        avoided: Optional[Set[Key]],
        reads: Optional[int] = None,
    ) -> Tuple[np.ndarray, Tuple[Key, ...]]:
        """Fleet indices for ``words``, avoided read owners failed over.

        Each shard routes its slice through its own table kernel and
        fails its avoided read owners over within the shard (a shard's
        rows ascend, so its reads are a prefix of them); the shard's
        slots then become fleet indices through one integer gather.
        """
        ids = self.server_ids
        index = np.empty(words.size, dtype=np.int64)
        for rows, table, to_fleet in self._by_shard(words, ids):
            shard_words = words[rows]
            slots = table.route_batch(shard_words)
            if avoided:
                shard_reads = None if reads is None else int(rows.searchsorted(reads))
                slots = _fail_over(table, shard_words, slots, avoided, shard_reads)
            index[rows] = to_fleet[slots]
        return index, ids

    def _replica_index_words(
        self, words: np.ndarray, k: int
    ) -> Tuple[np.ndarray, Tuple[Key, ...]]:
        ids = self.server_ids
        index = np.empty((words.size, k), dtype=np.int64)
        for rows, table, to_fleet in self._by_shard(words, ids):
            index[rows] = to_fleet[table.route_replicas_batch(words[rows], k)]
        return index, ids

    # -- remap accounting --------------------------------------------------

    def track(self, probe_keys: Sequence[Key]) -> None:
        """Install the cluster-wide probe population.

        Probes are partitioned onto their owning shards, so each shard
        accounts exactly the keys it serves; cluster epochs aggregate
        the per-shard movement into the fleet-level remap bill.
        """
        self._probe_keys = np.asarray(probe_keys)
        owners = self.shards_of_words(self.words_of_keys(self._probe_keys))
        for shard_index, router in enumerate(self._shards):
            router.track(self._probe_keys[owners == shard_index])

    @property
    def probe_keys(self) -> Optional[np.ndarray]:
        """The tracked probe population, or None when accounting is off."""
        return self._probe_keys

    # -- membership --------------------------------------------------------

    def _close_epoch(
        self, results: Sequence[Optional[EpochResult]]
    ) -> ClusterEpochResult:
        # Mirrors Router.apply: a server reconciled out of the fleet
        # sheds its avoid flag (re-admitting the same id later starts
        # unflagged).
        self._avoided.intersection_update(self.server_ids)
        records = tuple(
            result.record if result is not None else None
            for result in results
        )
        moved = sum(
            record.probes_moved for record in records if record is not None
        )
        total = 0 if self._probe_keys is None else int(self._probe_keys.size)
        record = ClusterEpochRecord(
            epochs=self.epochs,
            records=records,
            server_counts=self.server_counts,
            remapped=(moved / total) if total else 0.0,
            probes_moved=int(moved),
        )
        plan = MigrationPlan.merge(
            [result.plan for result in results if result is not None],
            tracked=total,
        )
        self._history.append(record)
        return ClusterEpochResult(record=record, plan=plan)

    def apply(self, update: MembershipUpdate) -> ClusterEpochResult:
        """Apply one membership batch to every shard atomically-per-shard."""
        return self._close_epoch(
            [router.apply(update) for router in self._shards]
        )

    def sync(self, target_server_ids: Iterable[Key]) -> ClusterEpochResult:
        """Reconcile every shard to the declared fleet, as one result.

        The declaration may mix bare server ids and spec-like objects
        (:class:`~repro.control.ServerSpec`); joining specs carry their
        capacity weight into every shard's update.  Each shard applies
        its own minimal diff (shards that already match are no-ops and
        keep their epoch); the returned result carries the aggregated
        fleet-level remap accounting and the merged fleet-level
        migration plan.
        """
        target = tuple(target_server_ids)
        results: List[Optional[EpochResult]] = []
        for router in self._shards:
            update = router.diff(target)
            if update.is_empty:
                # Untouched shard: membership already matches, so its
                # epoch close would provably produce an empty delta --
                # skip the close (a full tracked-slice re-route on
                # algorithms without the delta-scoped fast path) along
                # with the epoch bump.
                results.append(None)
            else:
                results.append(router.apply(update))
        return self._close_epoch(results)

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A restorable snapshot: cluster metadata + one per shard.

        The cluster-level :class:`ClusterEpochRecord` history is
        persisted alongside each shard's own, so fleet-level remap
        accounting survives the round-trip just like the per-shard
        bills do.
        """
        return {
            "cluster": {
                "format": CLUSTER_FORMAT_VERSION,
                "n_shards": self.n_shards,
                "seed": self._family.seed,
                "history": [asdict(record) for record in self._history],
            },
            "shards": [router.snapshot() for router in self._shards],
        }

    def snapshot_shard(self, index: int) -> Dict[str, Any]:
        """One shard's snapshot (same shape as ``Router.snapshot``)."""
        return self._shards[index].snapshot()

    def restore_shard(
        self, index: int, snapshot: Dict[str, Any]
    ) -> Tuple[Router, MigrationPlan]:
        """Swap one shard's router in from a snapshot, peers untouched.

        Returns the restored router *and* the migration plan covering
        the shard's tracked keys whose owner changed across the swap --
        the keys a pure in-place restore would silently strand on
        servers the restored table no longer assigns them to.  The
        diff reuses the outgoing shard's cached probe words (no
        re-hashing); the restored shard then re-tracks its slice of
        the cluster probe population, so fleet-level accounting keeps
        working.  The restored router keeps the outgoing shard's
        observers, so a cluster subscriber (a serving tier's cache
        invalidator, say) still hears the shard's later epochs.
        """
        router = Router.restore(snapshot, observers=self._shards[index]._observers)
        if router.table.family.seed != self._family.seed:
            raise StateError(
                "shard snapshot hash-family seed {} does not match the "
                "cluster's {}".format(
                    router.table.family.seed, self._family.seed
                )
            )
        plan = MigrationPlan(tracked=0, batches=(), epoch=router.epoch)
        if self._probe_keys is not None:
            delta = self._shards[index].delta_tracker.diff_against(
                lambda words: (
                    router.table.lookup_words(words)
                    if router.table.server_count
                    else None
                )
            )
            plan = MigrationPlan.from_delta(delta, epoch=router.epoch)
        self._shards[index] = router
        self._avoided.intersection_update(self.server_ids)
        if self._probe_keys is not None:
            owners = self.shards_of_words(
                self.words_of_keys(self._probe_keys)
            )
            router.track(self._probe_keys[owners == index])
        return router, plan

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        probe_keys: Optional[Sequence[Key]] = None,
    ) -> "ClusterRouter":
        """Rebuild a cluster (every shard) from :meth:`snapshot`."""
        meta = snapshot.get("cluster", {})
        if meta.get("format") != CLUSTER_FORMAT_VERSION:
            raise StateError(
                "unsupported cluster snapshot format {!r}".format(
                    meta.get("format")
                )
            )
        shards = [Router.restore(state) for state in snapshot["shards"]]
        if len(shards) != int(meta.get("n_shards", len(shards))):
            raise StateError(
                "cluster snapshot declares {} shards but carries {}".format(
                    meta.get("n_shards"), len(shards)
                )
            )
        if not shards:
            raise StateError("cluster snapshot has no shards")
        seeds = {router.table.family.seed for router in shards}
        if len(seeds) != 1:
            raise StateError(
                "cluster snapshot mixes shard hash-family seeds {}; the "
                "cluster hashes each key once, so every shard must share "
                "one seed".format(sorted(seeds))
            )
        cluster = cls.__new__(cls)
        cluster._shards = shards
        cluster._family = shards[0].table.family
        cluster._shard_family = cluster._family.derive("cluster-shard")
        cluster._history = [
            ClusterEpochRecord(
                epochs=tuple(int(epoch) for epoch in record["epochs"]),
                records=tuple(
                    None if state is None else _record_from_state(state)
                    for state in record["records"]
                ),
                server_counts=tuple(
                    int(count) for count in record["server_counts"]
                ),
                remapped=float(record["remapped"]),
                probes_moved=int(record["probes_moved"]),
            )
            for record in meta.get("history", ())
        ]
        cluster._probe_keys = None
        # Avoid flags are ephemeral serving state, not topology: like
        # Router.restore, a restored cluster starts with none.
        cluster._avoided = set()
        if probe_keys is not None:
            cluster.track(probe_keys)
        return cluster
