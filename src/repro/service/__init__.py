"""The serving layer: production routing API over the paper's tables.

Where :mod:`repro.hashing` speaks the paper's language (one join at a
time, replay to rebuild), this package speaks a serving system's:

* :class:`Router` -- facade wrapping any table with atomic bulk
  membership updates (:class:`MembershipUpdate`), declarative
  :meth:`Router.sync`, a monotonic membership epoch, per-epoch remap
  accounting and a per-epoch :class:`RouterObserver` hook;
* :class:`ClusterRouter` -- the sharded cluster layer: S independent
  router shards partitioning the key space, fleet-wide declarative
  sync with cluster-level remap accounting, per-shard epochs and
  snapshots, and replica-set failover (``route(key, avoid={dead})``);
* :mod:`repro.service.migration` -- the live-migration engine: the
  shared :class:`DeltaTracker` probe cache, the
  :class:`MigrationPlan` every membership epoch emits alongside its
  record, and the throttled, resumable :class:`MigrationExecutor`
  that moves data over a :class:`~repro.store.DataPlane`;
* :mod:`repro.service.snapshot` -- bit-exact snapshot serialization so
  replicas restore without replaying the join history.

Quickstart::

    from repro.hashing import make_table
    from repro.service import ClusterRouter, MigrationExecutor, Router
    from repro.store import DataPlane

    router = Router(make_table("hd", dim=4096, codebook_size=512))
    router.sync(["web-a", "web-b", "web-c"])   # epoch 1
    router.route("user:42")
    router.route_replicas("user:42", 2)        # (primary, fallback)

    plane = DataPlane(router)                  # actual key-value data
    plane.put("user:42", b"profile")
    plane.track()                              # probe set := stored keys
    record, plan = router.sync(["web-a", "web-c", "web-d"])  # epoch 2
    MigrationExecutor(plan, plane).run()       # move only what must move

    cluster = ClusterRouter("consistent", n_shards=4, seed=7)
    cluster.sync(["web-a", "web-c", "web-d"])  # every shard, one call
    cluster.route("user:42", avoid={"web-c"})  # failover to a replica
"""

from .cluster import ClusterEpochRecord, ClusterEpochResult, ClusterRouter
from .migration import (
    DeltaTracker,
    EpochDelta,
    KeyMove,
    MigrationExecutor,
    MigrationPlan,
    MigrationStatus,
    MoveBatch,
)
from .router import (
    EpochRecord,
    EpochResult,
    MembershipUpdate,
    Router,
    RouterObserver,
)
from .snapshot import dumps_state, load_table, loads_state, save_table

__all__ = [
    "ClusterEpochRecord",
    "ClusterEpochResult",
    "ClusterRouter",
    "DeltaTracker",
    "EpochDelta",
    "EpochRecord",
    "EpochResult",
    "KeyMove",
    "MembershipUpdate",
    "MigrationExecutor",
    "MigrationPlan",
    "MigrationStatus",
    "MoveBatch",
    "Router",
    "RouterObserver",
    "dumps_state",
    "load_table",
    "loads_state",
    "save_table",
]
