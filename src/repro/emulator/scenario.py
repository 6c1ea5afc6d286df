"""Time-stepped operational scenarios: churn, autoscaling, SLA metrics.

The single-shot experiments answer the paper's questions; operators ask
a longitudinal one: *over a day of traffic, churn and scaling decisions,
how much work does the hash table create?*  A scenario steps a table
through epochs; each epoch serves a batch of requests, may churn servers
(failures/arrivals) and may trigger a reactive autoscaler, and records
the remap fraction and load imbalance the step produced.

``examples/load_balancer.py`` shows the single-episode form; this module
generalises it with seeded stochastic churn and a load-targeting policy,
and is exercised by the integration tests.

Membership is driven declaratively: each step computes the *target*
server set (survivors of random failure, resized by the policy) and
hands it to :meth:`repro.service.router.Router.sync`, which applies the
minimal join/leave diff as one epoch.  The step's remap fraction comes
from the router's per-epoch probe accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import numpy as np

# AutoscalePolicy grew up and moved to the control plane
# (repro.control.autoscale); re-exported here for the emulator-era API.
from ..control.autoscale import Autoscaler, AutoscalePolicy, UtilizationPolicy
from ..control.loop import ControlLoop, ControlTickReport
from ..control.spec import FleetState, ServerSpec
from ..errors import MigrationError
from ..hashfn import Key
from ..hashing.base import DynamicHashTable
from ..serve import (
    EpochInvalidator,
    HotKeyCache,
    MicroBatcher,
    ServingMetrics,
    ServingSnapshot,
)
from ..service.migration import MigrationExecutor
from ..service.router import Router, RouterObserver
from ..store import DataPlane
from .distributions import KeyDistribution, UniformKeys, ZipfKeys

__all__ = [
    "AutoscalePolicy",
    "ScenarioConfig",
    "StepRecord",
    "ScenarioResult",
    "run_scenario",
    "FailoverConfig",
    "FailoverStepRecord",
    "FailoverResult",
    "run_failover_scenario",
    "LiveReshardConfig",
    "ReshardTickRecord",
    "LiveReshardResult",
    "run_live_reshard_scenario",
    "AutoscaleScenarioConfig",
    "AutoscaleStepRecord",
    "AutoscaleScenarioResult",
    "run_autoscale_scenario",
    "ServingScenarioConfig",
    "ServingChurnRecord",
    "ServingScenarioResult",
    "run_serving_scenario",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """A longitudinal workload: epochs of traffic + churn + scaling."""

    steps: int = 24
    initial_servers: int = 8
    requests_per_step: int = 8_000
    #: multiplicative traffic profile per step (cycled); models diurnal load.
    traffic_profile: tuple = (1.0, 0.7, 0.5, 0.8, 1.2, 1.5)
    distribution: Optional[KeyDistribution] = None
    failure_probability: float = 0.05
    policy: Optional[AutoscalePolicy] = None
    seed: int = 0


@dataclass
class StepRecord:
    """What one epoch did to the system."""

    step: int
    n_requests: int
    n_servers: int
    joins: int
    leaves: int
    remapped: float
    imbalance: float


@dataclass
class ScenarioResult:
    """All step records plus aggregate operational cost."""

    records: List[StepRecord] = field(default_factory=list)

    @property
    def total_remapped(self) -> float:
        """Sum of per-step remap fractions (the churn bill)."""
        return float(sum(record.remapped for record in self.records))

    @property
    def mean_imbalance(self) -> float:
        """Average max-to-mean load ratio across steps."""
        if not self.records:
            return 0.0
        return float(np.mean([record.imbalance for record in self.records]))

    @property
    def scaling_events(self) -> int:
        """Total join + leave events across the scenario."""
        return int(
            sum(record.joins + record.leaves for record in self.records)
        )


def run_scenario(
    table_factory: Callable[[], DynamicHashTable],
    config: ScenarioConfig = ScenarioConfig(),
) -> ScenarioResult:
    """Run a churn/autoscale scenario against a fresh table."""
    rng = np.random.default_rng(config.seed)
    distribution = config.distribution or UniformKeys()
    policy = config.policy or AutoscalePolicy(
        target_load=config.requests_per_step / max(1, config.initial_servers)
    )
    router = Router(table_factory())
    router.sync(range(config.initial_servers))
    next_server_id = config.initial_servers

    result = ScenarioResult()
    # The router's probe set is the reference population whose movement
    # defines each step's remap fraction.
    router.track(distribution.sample(4_000, rng))

    for step in range(config.steps):
        factor = config.traffic_profile[step % len(config.traffic_profile)]
        n_requests = max(1, int(config.requests_per_step * factor))

        # Declare this step's target membership: random failures first
        # (they are not the operator's choice), then reactive scaling
        # toward the policy's band.
        target = list(router.server_ids)
        if (
            len(target) > policy.min_servers
            and rng.random() < config.failure_probability
        ):
            del target[int(rng.integers(0, len(target)))]
        delta = policy.decide(n_requests, len(target))
        while delta > 0:
            target.append(next_server_id)
            next_server_id += 1
            delta -= 1
        while delta < 0 and len(target) > policy.min_servers:
            target.pop()
            delta += 1

        # Reconcile: one epoch (or none) per step, remap accounted by
        # the router's probe set.
        outcome = router.sync(target)
        record = outcome.record if outcome else None
        joins = len(record.joined) if record else 0
        leaves = len(record.left) if record else 0
        remapped = record.remapped if record else 0.0

        # Serve this epoch's traffic and account the step.
        keys = distribution.sample(n_requests, rng)
        assigned = router.route_batch(keys)
        counts = np.unique(np.asarray(assigned, object), return_counts=True)[1]
        imbalance = float(counts.max() / counts.mean()) if counts.size else 0.0
        result.records.append(
            StepRecord(
                step=step,
                n_requests=n_requests,
                n_servers=router.server_count,
                joins=joins,
                leaves=leaves,
                remapped=remapped,
                imbalance=imbalance,
            )
        )
    return result


@dataclass(frozen=True)
class FailoverConfig:
    """A primary dies mid-step; traffic shifts to its replicas."""

    steps: int = 6
    servers: int = 12
    requests_per_step: int = 4_000
    #: Step during which the primary fails (mid-step: half the step's
    #: traffic is served before the failure detector flags it).
    fail_step: int = 2
    #: Replica-set width used for the shift (2 = primary + 1 fallback).
    replicas: int = 2
    distribution: Optional[KeyDistribution] = None
    seed: int = 0


@dataclass
class FailoverStepRecord:
    """What one epoch of the failover scenario did."""

    step: int
    n_requests: int
    n_servers: int
    #: Fraction of this step's traffic served by a fallback replica
    #: (non-zero only while a flagged server is still in the table).
    failed_over: float
    #: Remap fraction billed by the reconciliation epoch that removed
    #: the dead server (0.0 on steps without membership change).
    remapped: float


@dataclass
class FailoverResult:
    """All step records plus the identity of the failed primary."""

    records: List[FailoverStepRecord] = field(default_factory=list)
    dead_server: Optional[Key] = None

    @property
    def failover_fraction(self) -> float:
        """Peak fraction of a step's traffic served by replicas."""
        if not self.records:
            return 0.0
        return float(max(record.failed_over for record in self.records))

    @property
    def remap_bill(self) -> float:
        """Total remap fraction paid across the scenario."""
        return float(sum(record.remapped for record in self.records))


def run_failover_scenario(
    table_factory: Callable[[], DynamicHashTable],
    config: FailoverConfig = FailoverConfig(),
) -> FailoverResult:
    """A primary dies mid-step: replicas absorb, then the fleet heals.

    At ``fail_step`` the busiest server of the first half-step's
    traffic fails.  The rest of the step is routed through the replica
    protocol -- keys whose primary is the dead server shift to their
    first healthy replica, with no membership change.  At step end the
    control plane reconciles (declarative :meth:`Router.sync` without
    the dead server) and the epoch's probe accounting bills the remap
    the *permanent* removal causes.  Both costs are recorded: the
    transient failover fraction and the reconciliation remap bill.
    """
    if not 0 <= config.fail_step < config.steps:
        raise ValueError("fail_step must fall inside the scenario")
    if config.replicas < 2:
        raise ValueError("failover needs a replica set of at least 2")
    if config.replicas > config.servers:
        raise ValueError(
            "replica set of {} cannot be distinct over {} servers".format(
                config.replicas, config.servers
            )
        )
    rng = np.random.default_rng(config.seed)
    distribution = config.distribution or UniformKeys()
    router = Router(table_factory())
    router.sync(range(config.servers))
    router.track(distribution.sample(4_000, rng))

    result = FailoverResult()
    for step in range(config.steps):
        keys = distribution.sample(config.requests_per_step, rng)
        n_requests = len(keys)
        words = router.table.words_of_keys(keys)
        failed_over = 0.0
        remapped = 0.0
        if step == config.fail_step:
            # First half served normally; then the busiest server of
            # that half dies and the failure detector flags it.
            half = n_requests // 2
            served = router.table.lookup_words(words[:half])
            ids, counts = np.unique(served, return_counts=True)
            result.dead_server = ids[int(np.argmax(counts))]
            # Remaining traffic consults the replica set: keys whose
            # primary is dead shift to their first healthy replica.
            replicas = router.table.lookup_words_replicas(
                words[half:], config.replicas
            )
            shifted = replicas[:, 0] == result.dead_server
            failed_over = float(np.sum(shifted)) / max(1, n_requests)
            # Step end: the control plane reconciles the fleet and the
            # probe accounting bills the permanent remap.
            survivors = [
                server_id
                for server_id in router.server_ids
                if server_id != result.dead_server
            ]
            outcome = router.sync(survivors)
            remapped = outcome.record.remapped if outcome else 0.0
        else:
            router.table.lookup_words(words)
        result.records.append(
            FailoverStepRecord(
                step=step,
                n_requests=n_requests,
                n_servers=router.server_count,
                failed_over=failed_over,
                remapped=remapped,
            )
        )
    return result


@dataclass(frozen=True)
class LiveReshardConfig:
    """A fleet resize executed live: traffic flows while data moves."""

    keys: int = 10_000
    initial_servers: int = 32
    target_servers: int = 48
    #: Routed reads sampled from the stored population after each
    #: migration tick (the traffic that observes in-flight keys).
    requests_per_tick: int = 1_000
    #: Executor throttle: keys committed per migration tick.
    max_keys_per_tick: int = 400
    #: SLA: ceiling on the observed miss rate (missed reads / served
    #: reads) across the whole migration -- the transient
    #: unavailability budget the operator grants the reshard.  Only
    #: keys the plan moves can miss, so the worst case is the epoch's
    #: remap fraction (which is what a full-pause migration would pay).
    miss_sla: float = 0.25
    seed: int = 0


@dataclass
class ReshardTickRecord:
    """What one migration tick (plus its traffic sample) observed."""

    tick: int
    #: Cumulative keys committed to their new owner after this tick.
    committed: int
    #: Planned keys still awaiting migration after this tick.
    in_flight: int
    requests: int
    #: Requests that missed (routed to the new owner before the key
    #: arrived there).
    misses: int


@dataclass
class LiveReshardResult:
    """The whole reshard: plan size, per-tick availability, SLA verdict."""

    records: List["ReshardTickRecord"] = field(default_factory=list)
    tracked: int = 0
    planned_moves: int = 0
    remap_fraction: float = 0.0
    served: int = 0
    misses: int = 0
    miss_sla: float = 0.25

    @property
    def miss_rate(self) -> float:
        """Missed reads per served read (the SLA's metric).

        Misses can only hit keys the plan moves, so this is bounded by
        the epoch's remap fraction and shrinks as the executor drains
        the plan.
        """
        if not self.served:
            return 0.0
        return self.misses / self.served

    @property
    def sla_met(self) -> bool:
        """Did the reshard stay inside its unavailability budget?"""
        return self.miss_rate <= self.miss_sla


def run_live_reshard_scenario(
    table_factory: Callable[[], DynamicHashTable],
    config: LiveReshardConfig = LiveReshardConfig(),
) -> LiveReshardResult:
    """Resize a fleet under load, migrating data while traffic flows.

    A :class:`~repro.store.DataPlane` is populated and tracked, the
    fleet is resized in one declarative epoch, and the epoch's
    :class:`~repro.service.migration.MigrationPlan` is executed tick by
    tick.  After every tick a batch of routed reads samples the stored
    population: keys the epoch rerouted but the executor has not yet
    committed miss at their new owner -- the transient unavailability a
    live reshard trades for never pausing traffic.  Misses are measured
    against the config's moved-keys SLA; completion is verified (every
    moved key owned by its destination, every stored key readable).
    """
    if config.target_servers == config.initial_servers:
        raise ValueError("a reshard needs the fleet size to change")
    if config.keys < 1:
        raise ValueError("need at least one stored key")
    rng = np.random.default_rng(config.seed)
    router = Router(table_factory())
    router.sync(range(config.initial_servers))

    plane = DataPlane(router)
    keys = np.arange(config.keys, dtype=np.int64)
    plane.put_many(keys, ["value-{}".format(key) for key in keys])
    plane.track()

    result_record, plan = router.sync(range(config.target_servers))
    executor = MigrationExecutor(
        plan, plane, max_keys_per_tick=config.max_keys_per_tick
    )
    result = LiveReshardResult(
        tracked=plan.tracked,
        planned_moves=plan.total_keys,
        remap_fraction=result_record.remapped,
        miss_sla=config.miss_sla,
    )
    tick = 0
    while True:
        status = executor.tick()
        sample = rng.choice(keys, size=config.requests_per_tick, replace=True)
        __, found = plane.get_many(sample)
        misses = int(np.sum(~found))
        result.served += int(sample.size)
        result.misses += misses
        result.records.append(
            ReshardTickRecord(
                tick=tick,
                committed=status.committed,
                in_flight=status.remaining,
                requests=int(sample.size),
                misses=misses,
            )
        )
        tick += 1
        if status.done:
            break
    executor.verify()
    __, found = plane.get_many(keys)
    if not bool(np.all(found)):
        raise MigrationError(
            "{} keys unreadable after the reshard completed".format(
                int(np.sum(~found))
            )
        )
    return result


@dataclass(frozen=True)
class AutoscaleScenarioConfig:
    """A day of diurnal traffic driving the *real* control plane.

    Unlike :func:`run_scenario` (whose request-counting policy only
    resizes an empty routing table), this scenario carries data: every
    step writes fresh keys into a tracked
    :class:`~repro.store.DataPlane`, the
    :class:`~repro.control.ControlLoop` reconciles (utilization-driven
    admissions, graceful drains on scale-down, an optional operator
    drain mid-run), and every migration tick samples routed reads -- so
    the miss-rate SLA is judged *while* data is in flight, drains
    included.
    """

    steps: int = 12
    #: Initial fleet: ``initial_servers`` specs with weights cycled
    #: from ``weight_cycle`` (all 1.0 for weight-blind tables).
    initial_servers: int = 4
    weight_cycle: Tuple[float, ...] = (1.0, 2.0, 4.0)
    #: Fresh keys written per step, scaled by the diurnal profile.
    writes_per_step: int = 600
    #: Accounted bytes per written value (drives byte utilization).
    value_bytes: int = 64
    #: Routed reads sampled per migration tick and at every step end.
    reads_per_sample: int = 400
    #: Multiplicative diurnal curve (cycled over the steps).
    traffic_profile: Tuple[float, ...] = (0.4, 0.7, 1.0, 1.6, 2.2, 1.6, 1.0, 0.5)
    #: Step at which the operator drains the heaviest member (None =
    #: no planned drain).
    drain_step: Optional[int] = 4
    #: Utilization policy; None derives one sized so the initial fleet
    #: sits near target at the profile's mean write rate.
    policy: Optional[UtilizationPolicy] = None
    #: Executor throttle for every migration the loop runs.
    max_keys_per_tick: int = 400
    #: Ceiling on misses per routed read across the whole scenario
    #: (the budget is spent by *unplanned* reshard traffic; graceful
    #: drains contribute zero by construction).
    miss_sla: float = 0.10
    seed: int = 0


@dataclass
class AutoscaleStepRecord:
    """What one control-loop step did and observed."""

    step: int
    n_servers: int
    total_weight: float
    utilization: float
    writes: int
    reads: int
    misses: int
    joins: int
    leaves: int
    drained: int
    moved_keys: int


@dataclass
class AutoscaleScenarioResult:
    """The whole run: per-step records plus the fleet-wide SLA verdict."""

    records: List[AutoscaleStepRecord] = field(default_factory=list)
    served: int = 0
    misses: int = 0
    miss_sla: float = 0.10

    @property
    def miss_rate(self) -> float:
        """Missed reads per routed read, drains and reshards included."""
        if not self.served:
            return 0.0
        return self.misses / self.served

    @property
    def sla_met(self) -> bool:
        return self.miss_rate <= self.miss_sla

    @property
    def scaling_events(self) -> int:
        """Join + leave membership events across the run."""
        return int(
            sum(record.joins + record.leaves for record in self.records)
        )

    @property
    def drains(self) -> int:
        """Graceful drains completed across the run."""
        return int(sum(record.drained for record in self.records))

    @property
    def peak_servers(self) -> int:
        return max((record.n_servers for record in self.records), default=0)


def run_autoscale_scenario(
    table_factory: Callable[[], DynamicHashTable],
    config: AutoscaleScenarioConfig = AutoscaleScenarioConfig(),
) -> AutoscaleScenarioResult:
    """Drive the real control plane through a diurnal load curve.

    Each step: write the step's keys (diurnal volume), run one
    :meth:`~repro.control.ControlLoop.tick` (health is quiet here;
    utilization decides admissions and graceful drains; migrations
    execute throttled, with routed reads sampled between executor
    ticks), then sample reads again at rest.  At ``drain_step`` the
    operator additionally drains the heaviest member -- the planned
    departure whose copy-first sequence must not miss.  The result's
    ``miss_rate`` is judged against ``miss_sla``.
    """
    if config.steps < 1:
        raise ValueError("need at least one step")
    if config.initial_servers < 2:
        raise ValueError("need at least two initial servers")
    rng = np.random.default_rng(config.seed)
    table = table_factory()
    weight_capable = getattr(table, "supports_weights", False)
    weights = [
        config.weight_cycle[i % len(config.weight_cycle)]
        if weight_capable
        else 1.0
        for i in range(config.initial_servers)
    ]
    fleet = FleetState(
        ServerSpec(
            "srv-{:03d}".format(index),
            weight=weights[index],
            zone="z{}".format(index % 3),
        )
        for index in range(config.initial_servers)
    )
    router = Router(table)
    plane = DataPlane(router)

    mean_factor = float(np.mean(config.traffic_profile))
    policy = config.policy
    if policy is None:
        # Size unit capacity so the initial fleet sits at target
        # utilization once ~half the steps' mean volume is stored.
        value_cost = config.value_bytes + 8
        expected = (
            config.writes_per_step * mean_factor * config.steps / 2
        ) * value_cost
        policy = UtilizationPolicy.sized_for(
            int(expected), sum(weights), min_servers=2, max_servers=64
        )
    spawn_weights = config.weight_cycle if weight_capable else (1.0,)

    def spawner(index: int) -> ServerSpec:
        return ServerSpec(
            "auto-{:03d}".format(index),
            weight=spawn_weights[index % len(spawn_weights)],
        )

    loop = ControlLoop(
        router,
        plane,
        fleet,
        autoscaler=Autoscaler(policy, spawner=spawner),
        max_keys_per_tick=config.max_keys_per_tick,
    )
    loop.bootstrap()

    result = AutoscaleScenarioResult(miss_sla=config.miss_sla)
    next_key = 0
    value = b"x" * config.value_bytes

    def sample_reads() -> Tuple[int, int]:
        # Written keys are exactly [0, next_key), so sampling needs no
        # materialized key list (it would grow quadratic over the run).
        if next_key == 0:
            return 0, 0
        sample = rng.integers(
            0, next_key, size=config.reads_per_sample, dtype=np.int64
        )
        __, found = plane.get_many(sample)
        return int(sample.size), int(np.sum(~found))

    for step in range(config.steps):
        factor = config.traffic_profile[step % len(config.traffic_profile)]
        n_writes = max(1, int(config.writes_per_step * factor))
        fresh = np.arange(next_key, next_key + n_writes, dtype=np.int64)
        next_key += n_writes
        plane.put_many(fresh, [value] * n_writes)

        reads = misses = 0

        def on_migration_tick(status) -> None:
            nonlocal reads, misses
            served, missed = sample_reads()
            reads += served
            misses += missed

        report: ControlTickReport = loop.tick(
            on_migration_tick=on_migration_tick
        )
        drained = len(report.drains)
        if config.drain_step is not None and step == config.drain_step:
            members = sorted(
                fleet.members(), key=lambda spec: (-spec.weight, str(spec.server_id))
            )
            if len(members) > policy.min_servers:
                drain_report = loop.drain(
                    members[0].server_id, on_tick=on_migration_tick
                )
                drained += 1
                report_moved = drain_report.plan.total_keys
            else:
                report_moved = 0
        else:
            report_moved = 0

        served, missed = sample_reads()
        reads += served
        misses += missed

        joins = sum(len(record.joined) for record in report.epochs)
        leaves = sum(len(record.left) for record in report.epochs)
        result.records.append(
            AutoscaleStepRecord(
                step=step,
                n_servers=router.server_count,
                total_weight=fleet.total_weight,
                # The utilization the scaling decision was actually
                # taken at (serving weight only -- draining capacity
                # is already leaving and does not count).
                utilization=report.decision.utilization,
                writes=n_writes,
                reads=reads,
                misses=misses,
                joins=joins,
                leaves=leaves,
                drained=drained,
                moved_keys=report.moved_keys + report_moved,
            )
        )
        result.served += reads
        result.misses += misses
    return result


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
