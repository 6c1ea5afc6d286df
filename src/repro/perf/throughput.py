"""The throughput harness: routing / cluster / churn / migration rates.

Eleven metrics per registered algorithm, all measured on live state at
the profile's pool size:

``route``
    pre-hashed words through :meth:`route_batch` -- the pure routing
    hot path, the sweep this repo vectorized end to end.
``route_replicas``
    the same word batch through :meth:`route_replicas_batch` at the
    profile's replica count -- the k-distinct-servers placement path.
``cluster_route``
    the same word batch through a sharded
    :class:`~repro.service.cluster.ClusterRouter` (profile's shard
    count) -- hashing already done, shard fan-out + per-shard batch
    kernels.
``lookup``
    integer keys through :meth:`lookup_batch` -- hashing + routing +
    slot-to-identifier mapping, the full serving path.
``churn``
    alternating leave/join membership events, each cycle closed by a
    one-word probe route -- the reconciliation cost a control plane
    pays under autoscaling, priced to a *servable* table (deferred
    rebuilds cannot escape the measurement).
``plan_migration``
    resize epochs (one join, then one leave, of a spare server) on a
    router tracking the profile's migration-key population -- each
    epoch closes a full assignment diff and emits its
    :class:`~repro.service.migration.MigrationPlan`; the rate is
    tracked keys planned per second.
``migrate_execute``
    executing a resize plan with a
    :class:`~repro.service.migration.MigrationExecutor` over a
    pre-cloned :class:`~repro.store.DataPlane` -- copy, verify and
    commit of every moved key in one unthrottled tick; the rate is
    moved keys per second.  The plan is the +1-server grow epoch, or
    the drain of a loaded server when the grow plan is degenerate
    (moves under 1/64 of the tracked population).
``control_tick``
    steady-state :meth:`~repro.control.ControlLoop.tick` passes over a
    healthy, in-band fleet -- heartbeat-deadline poll, utilization
    decision off real byte accounting, no-op fleet diff; the rate is
    reconciliation ticks per second (the idle cost of running the
    control plane continuously).
``serve_hot``
    Zipf-popular single-key reads through the serving tier's
    synchronous dispatch core -- micro-batches of the profile's
    ``serve_batch`` through a :class:`~repro.serve.HotKeyCache` in
    front of a stocked :class:`~repro.store.DataPlane`; the rate is
    requests served per second at cache steady state, which prices
    the front-end itself (the cache's bulk probe + install path).
``serve_cold``
    the same micro-batches through a *cacheless* batcher -- every
    request takes the routed ``get_many`` path, so the rate prices
    hashing + routing + store lookups with zero cache absorption.
    A capacity-present cold cache would warm up across best-of-N
    repeats; ``cache=None`` keeps the miss path fully visible and
    the measurement stable.
``epoch_close``
    membership epochs (one grow, then one shrink, of a spare server)
    closed by a router tracking the profile's ``epoch_close_keys``
    probe population -- one million keys at every scale; the rate is
    tracked keys accounted per second.  Algorithms with a scoped close
    take the :class:`~repro.service.migration.DeltaTracker` fast path
    (HD diffs its position owners; the delta-score kernels make a join
    epoch one score-column sweep and a leave epoch a re-route of only
    the departing servers' keys); the rest pay the full tracked-slice
    re-route, which is the gap this metric exists to expose.

Every metric is timed ``repeats`` times and the best run is kept (the
minimum time is the least-noise estimate of the machine's capability).

Raw keys/sec are machine-dependent, so each rate is also recorded
*normalized* by a calibration sweep -- the machine's own bulk
XOR+popcount bandwidth, measured at suite start.  Normalized scores are
comparable across hosts, which is what lets a laptop-committed
``BENCH_throughput.json`` gate a CI runner (see
:mod:`repro.perf.baseline`).
"""

from __future__ import annotations

import platform
import time
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..control import (
    Autoscaler,
    ControlLoop,
    FleetState,
    HealthMonitor,
    ServerSpec,
    UtilizationPolicy,
)
from ..emulator.distributions import ZipfKeys
from ..hashing import make_table, registered_algorithms
from ..serve import HotKeyCache, MicroBatcher
from ..service.cluster import ClusterRouter
from ..service.migration import MigrationExecutor
from ..service.router import Router
from ..store import DataPlane
from .baseline import METRICS, SCHEMA_VERSION, report_header, report_row
from .profiles import PerfProfile, perf_profile

__all__ = ["calibrate", "measure_algorithm", "run_suite"]

#: Words in the calibration sweep (8 MiB of uint64 per operand).
_CALIBRATION_WORDS = 1 << 20

#: Server-identifier template; zero-padded so join order is name order.
_SERVER_FMT = "srv-{:05d}"


def _best_seconds(
    fn: Callable[[], Any],
    repeats: int,
    reset: Optional[Callable[[], Any]] = None,
) -> float:
    """Minimum wall time of ``repeats`` calls to ``fn`` (after 1 warmup).

    ``reset`` (when given) runs after every call, outside the timing --
    the hook state-mutating metrics use to hand each run the same
    starting state without paying the restore inside the measurement.
    """
    fn()
    if reset is not None:
        reset()
    best = float("inf")
    for __ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        if reset is not None:
            reset()
    # Timer resolution floor: never report an infinite rate.
    return max(best, 1e-9)


def calibrate(repeats: int = 3, words: int = _CALIBRATION_WORDS) -> float:
    """The machine's bulk XOR+popcount bandwidth, in GB/s.

    This is the same kernel shape as HD routing's inner loop (XOR two
    uint64 streams, popcount, reduce), so it tracks exactly the hardware
    capabilities -- memory bandwidth and popcount throughput -- that the
    routing numbers depend on.  Used as the denominator for normalized
    scores.
    """
    rng = np.random.default_rng(0xBEEF)
    a = rng.integers(0, 2**64, words, dtype=np.uint64)
    b = rng.integers(0, 2**64, words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):

        def sweep():
            return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())
    else:
        from ..hdc.packing import popcount_u64

        def sweep():
            return int(popcount_u64(np.bitwise_xor(a, b)).sum())
    seconds = _best_seconds(sweep, repeats)
    return (words * 8) / seconds / 1e9


def _normalized(rate: float, calibration_gbps: float) -> float:
    """Machine-relative score: rate per GB/s of calibrated bandwidth."""
    return rate / max(calibration_gbps, 1e-12) / 1e6


def measure_algorithm(
    name: str,
    profile: Union[str, PerfProfile],
    seed: int = 0,
    calibration_gbps: Optional[float] = None,
) -> Dict[str, Any]:
    """Measure one algorithm's throughput on every metric.

    Returns the per-algorithm record that ``run_suite`` embeds in the
    report: raw rates, normalized scores, and the table config used.
    """
    if isinstance(profile, str):
        profile = perf_profile(profile)
    if calibration_gbps is None:
        calibration_gbps = calibrate()
    config = profile.config_for(name)
    table = make_table(name, seed=seed, **config)
    server_ids = [_SERVER_FMT.format(index) for index in range(profile.servers)]
    for server_id in server_ids:
        table.join(server_id)

    rng = np.random.default_rng(seed + 1)
    words = rng.integers(0, 2**64, profile.batch_words, dtype=np.uint64)
    keys = rng.integers(0, 2**63, profile.batch_words, dtype=np.int64)

    # Each timed block's ``(count, seconds)``, under its metric's
    # section; a block that forgets to record fails the record loop.
    timed: Dict[str, Tuple[int, float]] = {}

    def time_block(section, count, block, repeats=profile.repeats, reset=None):
        timed[section] = (count, _best_seconds(block, repeats, reset=reset))

    time_block("route", profile.batch_words, lambda: table.route_batch(words))
    replica_k = min(profile.replica_k, profile.servers)
    time_block(
        "route_replicas",
        profile.batch_words,
        lambda: table.route_replicas_batch(words, replica_k),
    )
    cluster = ClusterRouter(
        {"algorithm": name, "config": config},
        n_shards=profile.cluster_shards,
        seed=seed,
    )
    cluster.sync(server_ids)
    time_block("cluster_route", profile.batch_words, lambda: cluster.route_words(words))
    time_block("lookup", profile.batch_words, lambda: table.lookup_batch(keys))

    # Churn: retire the oldest server, admit a fresh one, repeatedly.
    # Fresh identifiers per cycle keep placement realistic (no cached
    # rejoin of an identical member).  Each cycle ends with a one-word
    # route so the metric prices membership events *to a servable
    # table*: structures that defer rebuild work (Maglev's stale-table
    # fill) pay it inside the measurement instead of pushing it onto
    # the next routing metric.  Like the routing metrics, the best of
    # ``repeats`` timed blocks is kept -- single-shot churn timing
    # scattered by >2x run to run, which flaked the CI gate.
    next_id = profile.servers + 1_000_000
    churn_probe = words[:1]

    def churn_block():
        nonlocal next_id
        for __ in range(profile.churn_cycles):
            table.leave(table.server_ids[0])
            table.join(_SERVER_FMT.format(next_id))
            next_id += 1
            table.route_batch(churn_probe)

    time_block("churn", 2 * profile.churn_cycles, churn_block)

    # Migration data plane: a dedicated tracked router (the churn
    # metric above keeps mutating `table`, so it cannot be reused).
    fleet = list(server_ids)
    spare = _SERVER_FMT.format(profile.servers + 2_000_000)
    migration_router = Router(make_table(name, seed=seed, **config))
    migration_router.sync(fleet)
    plane = DataPlane(migration_router)
    migration_keys = np.arange(profile.migration_keys, dtype=np.int64)
    plane.put_many(migration_keys, migration_keys)
    tracked = plane.track()

    def plan_block():
        # One grow epoch + one shrink epoch; each closes a full delta
        # over the tracked population and builds its migration plan.
        migration_router.sync(fleet + [spare])
        migration_router.sync(fleet)

    time_block("plan_migration", 2 * tracked, plan_block)

    grow = migration_router.sync(fleet + [spare])
    plan = grow.plan
    if plan.total_keys < tracked // 64:
        # Degenerate grow plan: some placements (hierarchical's +1
        # server lands a nearly empty leaf at small scales) move almost
        # nothing on grow, which would time executor overhead instead
        # of engine throughput.  Measure the retirement plan instead --
        # draining a loaded server moves every key it held.
        migration_router.sync(fleet)
        plan = migration_router.sync(fleet[1:]).plan

    # One clone serves every run: after each timed execution the moved
    # keys are restored to their sources *outside* the timing (cloning
    # a fleet per run both dominated small plans and handed the
    # executor cache-cold stores, which timed the allocator instead of
    # the engine).  Like the routing metrics, best-of-N over warm state
    # measures peak engine speed; the unthrottled single tick does the
    # same (the throttle is a pacing feature, not engine work).
    migrate_plane = plane.clone()
    moved = max(1, plan.total_keys)

    def migrate_block():
        executor = MigrationExecutor(plan, migrate_plane, max_keys_per_tick=moved)
        executor.run()

    def migrate_reset():
        for batch in plan.batches:
            source = migrate_plane.store(batch.source)
            destination = migrate_plane.store(batch.destination)
            values, __ = destination.get_many(batch.keys)
            destination.delete_many(batch.keys)
            source.put_many(batch.keys, values)

    time_block("migrate_execute", moved, migrate_block, reset=migrate_reset)

    # Epoch close at scale: the same grow+shrink epoch pair as
    # ``plan_migration``, but over a million-key tracked population on
    # a dedicated router with no data plane -- the metric prices the
    # tracker's per-epoch assignment accounting, not storage.  Delta-
    # close algorithms close each epoch from cached winning scores or
    # position owners; the rest re-route the full tracked slice, so the
    # spread between algorithms here is the scoped close's payoff.
    epoch_router = Router(make_table(name, seed=seed, **config))
    epoch_router.sync(fleet)
    epoch_spare = _SERVER_FMT.format(profile.servers + 3_000_000)
    epoch_router.track(np.arange(profile.epoch_close_keys, dtype=np.int64))

    def epoch_close_block():
        epoch_router.sync(fleet + [epoch_spare])
        epoch_router.sync(fleet)

    # Three repeats, not the profile's count: at a million tracked keys
    # the block is seconds of array-wide sweeps for full-recompute
    # algorithms, and bulk sweeps don't scatter like the
    # microsecond-scale mutation blocks the higher repeat counts exist
    # to stabilize.
    time_block(
        "epoch_close",
        2 * profile.epoch_close_keys,
        epoch_close_block,
        repeats=min(profile.repeats, 3),
    )

    # Control plane: a healthy fleet sitting inside its utilization
    # band -- each tick pays the full reconciliation pass (heartbeat
    # deadlines, byte-utilization decision, no-op fleet diff) but makes
    # no change, which is the loop's steady-state cost.
    fleet = FleetState(ServerSpec(server_id) for server_id in server_ids)
    control_router = Router(make_table(name, seed=seed, **config))
    control_router.sync(fleet.members())
    control_plane = DataPlane(control_router)
    control_plane.put_many(migration_keys, migration_keys)
    control_plane.track()
    monitor = HealthMonitor(fleet, clock=lambda: 0.0)
    control_loop = ControlLoop(
        control_router,
        control_plane,
        fleet,
        monitor=monitor,
        autoscaler=Autoscaler(
            UtilizationPolicy.sized_for(
                control_plane.total_bytes, len(server_ids)
            )
        ),
    )
    control_loop.tick()

    def control_block():
        for __ in range(profile.control_ticks):
            control_loop.tick()

    time_block("control_tick", profile.control_ticks, control_block)

    # Serving tier: Zipf-popular reads dispatched in micro-batches over
    # the stocked control plane (its ticks above were no-ops, so
    # membership is unchanged).  Two variants bracket the front-end:
    # ``serve_hot`` keeps the hot-key cache warm across repeats --
    # best-of-N measures the cache steady state a serving tier lives
    # at -- while ``serve_cold`` runs a cacheless batcher so every
    # request pays hashing + routing + store lookup (a capacity-present
    # cold cache would warm up across repeats and measure neither).
    serve_keys = [
        int(key)
        for key in ZipfKeys(universe=profile.serve_universe).sample(
            profile.serve_requests, rng
        )
    ]
    serve_chunks = [
        serve_keys[start : start + profile.serve_batch]
        for start in range(0, len(serve_keys), profile.serve_batch)
    ]
    hot_batcher = MicroBatcher(
        control_plane,
        cache=HotKeyCache(profile.serve_cache),
        max_batch=profile.serve_batch,
    )

    def serve_hot_block():
        for chunk in serve_chunks:
            hot_batcher.serve_gets(chunk)

    time_block("serve_hot", profile.serve_requests, serve_hot_block)

    cold_batcher = MicroBatcher(
        control_plane, cache=None, max_batch=profile.serve_batch
    )

    def serve_cold_block():
        for chunk in serve_chunks:
            cold_batcher.serve_gets(chunk)

    time_block("serve_cold", profile.serve_requests, serve_cold_block)

    record: Dict[str, Any] = {
        "servers": profile.servers,
        "batch_words": profile.batch_words,
        "config": config,
    }
    for metric in METRICS:
        count, seconds = timed[metric.section]
        rate = count / seconds
        record[metric.section] = {
            metric.rate: rate,
            "normalized": _normalized(rate, calibration_gbps),
        }
    return record


def run_suite(
    profile: Union[str, PerfProfile] = "fast",
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the throughput suite; returns the ``BENCH_throughput`` report.

    ``algorithms`` defaults to every registered algorithm.  ``progress``
    (when given) receives the report table as it is measured: its
    column header, then one row per algorithm -- the CLI plugs its
    printer in.
    """
    if isinstance(profile, str):
        profile = perf_profile(profile)
    names: Iterable[str] = (
        registered_algorithms() if algorithms is None else algorithms
    )
    calibration_gbps = calibrate()
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": "repro-throughput",
        "profile": profile.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration": {"xor_popcount_gbps": calibration_gbps},
        "algorithms": {},
    }
    if progress is not None:
        progress(report_header())
    for name in names:
        record = measure_algorithm(
            name, profile, seed=seed, calibration_gbps=calibration_gbps
        )
        report["algorithms"][name] = record
        if progress is not None:
            progress(report_row(name, record))
    return report
