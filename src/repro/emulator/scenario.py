"""The open-loop serving scenario behind ``repro serve``.

One Zipfian arrival stream is served twice on an emulated clock: once
through the serving tier (:class:`~repro.serve.MicroBatcher` with an
epoch-aware :class:`~repro.serve.HotKeyCache`) and once one key at a
time with neither batching nor cache.  Midway, a
:class:`~repro.control.ControlLoop` tick applies a membership change
under live traffic, and the run records whether the cache evicted
exactly the keys the epoch's migration plan moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..control.loop import ControlLoop
from ..control.spec import FleetState, ServerSpec
from ..hashing.base import DynamicHashTable
from ..serve import (
    EpochInvalidator,
    HotKeyCache,
    MicroBatcher,
    ServingMetrics,
    ServingSnapshot,
)
from ..service.router import Router, RouterObserver
from ..store import DataPlane
from .distributions import ZipfKeys

__all__ = [
    "ServingScenarioConfig",
    "ServingChurnRecord",
    "ServingScenarioResult",
    "run_serving_scenario",
]


@dataclass(frozen=True)
class ServingScenarioConfig:
    """An open-loop serving run: Zipfian arrivals, churn underneath.

    Requests arrive on an emulated clock at ``request_rate`` per second
    regardless of service progress (open loop -- queueing is real).  The
    batched pass serves them through the full serving tier
    (:class:`~repro.serve.MicroBatcher` + :class:`~repro.serve.
    HotKeyCache` with epoch-exact invalidation); the scalar pass replays
    the *same* arrival stream one key at a time with neither batching
    nor cache.  Service times are measured wall-clock and advance the
    emulated clock, so latency percentiles and saturation throughput
    are comparable across the two passes.

    Midway (``churn_at``), the :class:`~repro.control.ControlLoop`
    applies a membership change under live traffic; the run records
    whether invalidation evicted *exactly* the remapped cached keys and
    whether every surviving cache entry still matches the data plane.
    """

    requests: int = 8_000
    #: Offered load in requests per emulated second.
    request_rate: float = 200_000.0
    read_fraction: float = 0.88
    delete_fraction: float = 0.02
    #: Zipf key popularity over a ``universe`` of distinct keys.
    universe: int = 1_000_000
    zipf_exponent: float = 1.1
    #: Hottest ranks preloaded into the data plane before traffic.
    preload: int = 4_000
    initial_servers: int = 8
    max_batch: int = 256
    #: Coalescing deadline in emulated seconds.
    max_delay: float = 0.001
    cache_capacity: int = 4_096
    #: Fraction of the request stream served before the membership
    #: change (None = no churn).
    churn_at: Optional[float] = 0.5
    churn_joins: int = 1
    churn_leaves: int = 0
    #: Executor throttle for the churn epoch's migration.
    max_keys_per_tick: int = 1 << 20
    #: Reads per cache hit-rate window (recovery tracking).
    hit_window: int = 1_000
    seed: int = 0


@dataclass(frozen=True)
class ServingChurnRecord:
    """What the mid-run membership change did to the hot-key cache."""

    request_index: int
    joins: int
    leaves: int
    #: Keys cached when the epoch closed, and how many of them the
    #: migration plan named as remapped.
    cached_before: int
    moved_keys: int
    overlap: int
    #: Cache evictions the epoch actually performed, and blanket
    #: flushes taken (exactness demands zero).
    evicted: int
    flushes: int
    #: ``evicted == overlap``, no flush, and no surviving cached key
    #: was in the moved set: the invalidation was *exact*.
    exact: bool
    #: Every cache entry surviving the epoch still matches what the
    #: data plane serves for that key.
    coherent: bool
    #: Index into ``hit_rate_windows`` where the churn landed.
    window_index: int


@dataclass
class ServingScenarioResult:
    """Both passes over one arrival stream, plus the churn verdicts."""

    requests: int = 0
    snapshot: Optional[ServingSnapshot] = None
    stale_reads: int = 0
    churn: Optional[ServingChurnRecord] = None
    hit_rate_windows: List[float] = field(default_factory=list)
    scalar_p50_ms: float = 0.0
    scalar_p99_ms: float = 0.0
    scalar_throughput_rps: float = 0.0
    scalar_stale_reads: int = 0

    @property
    def speedup(self) -> float:
        """Batched saturation throughput over scalar, same offered load."""
        if self.snapshot is None or not self.scalar_throughput_rps:
            return 0.0
        return self.snapshot.throughput_rps / self.scalar_throughput_rps

    @property
    def zero_stale(self) -> bool:
        """No batched read ever diverged from ground truth."""
        return self.stale_reads == 0

    @property
    def invalidation_exact(self) -> bool:
        """The churn epoch evicted exactly the remapped cached keys."""
        return self.churn is None or (self.churn.exact and self.churn.coherent)

    @property
    def hit_rate_recovered(self) -> bool:
        """Post-churn hit rate climbed back toward the pre-churn level.

        Vacuously true without churn or without enough post-churn
        windows; otherwise the best post-churn window must reach 80% of
        the best pre-churn window -- the recovery a blanket flush of a
        Zipf-hot cache would also show eventually, but which exact
        invalidation reaches without the cold-start dip.
        """
        if self.churn is None:
            return True
        windows = self.hit_rate_windows
        pre = windows[: self.churn.window_index]
        post = windows[self.churn.window_index :]
        if not pre or not post:
            return True
        return max(post) >= 0.8 * max(pre)

    def describe(self) -> str:
        lines = [
            "serving scenario: {:,} requests".format(self.requests),
            "  batched: {}".format(
                self.snapshot.describe() if self.snapshot else "(not run)"
            ),
            "  scalar:  p50 {:.3f} ms, p99 {:.3f} ms, {:,.0f} req/s".format(
                self.scalar_p50_ms,
                self.scalar_p99_ms,
                self.scalar_throughput_rps,
            ),
            "  speedup: {:.1f}x batched over scalar".format(self.speedup),
            "  stale reads: {} (scalar {})".format(
                self.stale_reads, self.scalar_stale_reads
            ),
        ]
        if self.churn is not None:
            lines.append(
                "  churn @ request {:,}: {} cached, {} moved, "
                "{} evicted ({} overlap), {} flushes -> exact={} "
                "coherent={} recovered={}".format(
                    self.churn.request_index,
                    self.churn.cached_before,
                    self.churn.moved_keys,
                    self.churn.evicted,
                    self.churn.overlap,
                    self.churn.flushes,
                    self.churn.exact,
                    self.churn.coherent,
                    self.hit_rate_recovered,
                )
            )
        return "\n".join(lines)


class _PlanRecorder(RouterObserver):
    """Collects every epoch's migration plan (the ground truth of what
    moved, for the exactness verdict)."""

    def __init__(self):
        self.plans = []

    def on_epoch(self, result) -> None:
        self.plans.append(result.plan)


#: Sentinel for "ground truth has no value for this key".
_NO_VALUE = object()


def _serving_workload(config: ServingScenarioConfig, rng):
    """The shared arrival stream: (ops, keys, arrival times)."""
    distribution = ZipfKeys(universe=config.universe, exponent=config.zipf_exponent)
    keys = [int(key) for key in distribution.sample(config.requests, rng)]
    draws = rng.random(config.requests)
    ops = np.where(
        draws < config.read_fraction,
        "get",
        np.where(
            draws < config.read_fraction + config.delete_fraction,
            "delete",
            "put",
        ),
    )
    arrivals = np.arange(config.requests) / config.request_rate
    return ops, keys, arrivals


def _serving_stack(table_factory, config: ServingScenarioConfig):
    """Fresh plane + control loop + preloaded truth for one pass."""
    fleet = FleetState(
        ServerSpec("srv-{:03d}".format(index))
        for index in range(config.initial_servers)
    )
    router = Router(table_factory())
    plane = DataPlane(router)
    loop = ControlLoop(router, plane, fleet, max_keys_per_tick=config.max_keys_per_tick)
    loop.bootstrap()
    truth = {}
    if config.preload:
        hot = list(range(config.preload))
        plane.put_many(hot, hot)
        truth = {key: key for key in hot}
        plane.track()
    return fleet, router, plane, loop, truth


def _apply_churn(fleet: FleetState, loop: ControlLoop, config) -> None:
    for index in range(config.churn_joins):
        fleet.add(ServerSpec("join-{:03d}".format(index)))
    if config.churn_leaves:
        members = sorted(str(spec.server_id) for spec in fleet.members())
        for server_id in members[: config.churn_leaves]:
            fleet.remove(server_id)
    loop.tick()


def run_serving_scenario(
    table_factory: Callable[[], DynamicHashTable],
    config: ServingScenarioConfig = ServingScenarioConfig(),
) -> ServingScenarioResult:
    """Serve one Zipfian arrival stream batched and scalar, with churn.

    The batched pass coalesces arrivals into micro-batches
    (size-or-deadline on the emulated clock) dispatched through the
    serving tier's synchronous core; ground truth is maintained against
    the documented batch semantics (reads observe pre-batch state, then
    deletes, then puts), so ``stale_reads`` counts *any* divergence
    between a served read and what a correct tier must answer --
    including across the mid-run membership epoch.  The scalar pass
    replays the same stream unbatched and uncached on its own stack.
    """
    if config.requests < 1:
        raise ValueError("need at least one request")
    if not 0 < config.request_rate:
        raise ValueError("request rate must be positive")
    rng = np.random.default_rng(config.seed)
    ops, keys, arrivals = _serving_workload(config, rng)
    churn_index: Optional[int] = None
    if config.churn_at is not None and (config.churn_joins or config.churn_leaves):
        churn_index = min(config.requests - 1, int(config.requests * config.churn_at))

    result = ServingScenarioResult(requests=config.requests)

    # -- batched pass ------------------------------------------------------
    fleet, router, plane, loop, truth = _serving_stack(table_factory, config)
    cache = HotKeyCache(config.cache_capacity)
    metrics = ServingMetrics()
    batcher = MicroBatcher(
        plane, cache=cache, metrics=metrics, max_batch=config.max_batch
    )
    recorder = _PlanRecorder()
    router.subscribe(recorder)
    router.subscribe(EpochInvalidator(cache, router, metrics=metrics))

    server_free = 0.0
    window_marks = [0, 0]  # reads, hits at the last window boundary

    def roll_windows() -> None:
        while True:
            reads = metrics.cache_hits + metrics.cache_misses
            seen = reads - window_marks[0]
            if seen < config.hit_window:
                return
            hits = metrics.cache_hits - window_marks[1]
            # Close the window at the boundary; a flush can overshoot
            # by up to a batch, attributed to the closing window.
            result.hit_rate_windows.append(hits / seen)
            window_marks[0] = reads
            window_marks[1] = metrics.cache_hits

    def flush_batch(batch, flush_time: float) -> None:
        nonlocal server_free
        start = max(flush_time, server_free)
        gets = [entry for entry in batch if entry[0] == "get"]
        deletes = [entry for entry in batch if entry[0] == "delete"]
        puts = [entry for entry in batch if entry[0] == "put"]
        expected = [truth.get(entry[1], _NO_VALUE) for entry in gets]
        clock = perf_counter()
        values, found, __, __ = batcher.serve(
            [entry[1] for entry in gets],
            [entry[1] for entry in deletes],
            [entry[1] for entry in puts],
            [entry[2] for entry in puts],
        )
        busy = perf_counter() - clock
        completion = start + busy
        server_free = completion
        if gets:
            for want, got, present in zip(expected, values, found):
                if bool(present) != (want is not _NO_VALUE) or (
                    present and got != want
                ):
                    result.stale_reads += 1
        for __, key, _value, __arrival in deletes:
            truth.pop(key, None)
        for __, key, value, __arrival in puts:
            truth[key] = value
        metrics.observe_ops(gets=len(gets), puts=len(puts), deletes=len(deletes))
        metrics.observe_batch(len(batch), busy_seconds=busy)
        metrics.observe_latencies([completion - entry[3] for entry in batch])
        roll_windows()

    def churn_now(request_index: int) -> None:
        recorder.plans.clear()
        cached_before = {int(key) for key in cache.keys()}
        evicted_mark = metrics.invalidated_keys
        flush_mark = metrics.cache_flushes
        _apply_churn(fleet, loop, config)
        moved = {
            int(key)
            for plan in recorder.plans
            for move in plan.batches
            for key in move.keys
        }
        survivors = {int(key) for key in cache.keys()}
        evicted = metrics.invalidated_keys - evicted_mark
        flushes = metrics.cache_flushes - flush_mark
        overlap = cached_before & moved
        absent = object()
        result.churn = ServingChurnRecord(
            request_index=request_index,
            joins=config.churn_joins,
            leaves=config.churn_leaves,
            cached_before=len(cached_before),
            moved_keys=len(moved),
            overlap=len(overlap),
            evicted=evicted,
            flushes=flushes,
            exact=evicted == len(overlap) and flushes == 0 and not (survivors & moved),
            coherent=all(
                cache.peek(key, absent) == plane.get(key, absent) for key in survivors
            ),
            window_index=len(result.hit_rate_windows),
        )

    batch: List[Tuple[str, int, int, float]] = []
    deadline = 0.0
    served = 0
    churned = False
    for index in range(config.requests):
        arrival = float(arrivals[index])
        if not batch:
            deadline = arrival + config.max_delay
        batch.append((str(ops[index]), keys[index], index, arrival))
        full = len(batch) >= config.max_batch
        last = index + 1 >= config.requests
        expired = not last and float(arrivals[index + 1]) > deadline
        if full or last or expired:
            flush_batch(batch, arrival if full else deadline)
            served = index
            batch = []
            if churn_index is not None and not churned and served >= churn_index:
                churned = True
                churn_now(served)
    result.snapshot = metrics.snapshot()

    # -- scalar pass -------------------------------------------------------
    fleet, router, plane, loop, truth = _serving_stack(table_factory, config)
    scalar_free = 0.0
    scalar_busy = 0.0
    latencies = np.empty(config.requests, dtype=np.float64)
    for index in range(config.requests):
        op = str(ops[index])
        key = keys[index]
        arrival = float(arrivals[index])
        want = truth.get(key, _NO_VALUE)
        clock = perf_counter()
        if op == "get":
            got = plane.get(key, _NO_VALUE)
        elif op == "delete":
            try:
                plane.delete(key)
            except KeyError:
                pass
        else:
            plane.put(key, index)
        took = perf_counter() - clock
        scalar_busy += took
        completion = max(arrival, scalar_free) + took
        scalar_free = completion
        latencies[index] = completion - arrival
        if op == "get" and got != want:
            result.scalar_stale_reads += 1
        elif op == "delete":
            truth.pop(key, None)
        elif op == "put":
            truth[key] = index
        if churn_index is not None and index == churn_index:
            _apply_churn(fleet, loop, config)
    result.scalar_p50_ms = float(np.percentile(latencies, 50.0)) * 1e3
    result.scalar_p99_ms = float(np.percentile(latencies, 99.0)) * 1e3
    result.scalar_throughput_rps = (
        config.requests / scalar_busy if scalar_busy else 0.0
    )
    return result
