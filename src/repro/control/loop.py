"""The reconciliation loop: desired fleet -> routing -> data movement.

:class:`ControlLoop` closes the loop the previous PRs left open.  The
fleet directory (:class:`~repro.control.spec.FleetState`) says what the
operator *wants*; the router says what the routing table *is*; the data
plane says where the bytes *are*.  Each :meth:`ControlLoop.tick`
reconciles all three:

1. **health** -- poll the :class:`~repro.control.health.HealthMonitor`;
   fresh suspects are flagged into the router's ``avoid`` set (traffic
   fails over to replicas, no epoch), recoveries are readmitted, and
   deadline deaths fall through to membership reconciliation;
2. **autoscale** -- the :class:`~repro.control.autoscale.Autoscaler`
   reads real byte accounting off the data plane; admissions become
   fresh specs, scale-down nominations become graceful drains;
3. **membership** -- one declarative ``router.sync(fleet.members())``
   removes dead servers and admits new ones (weights threaded through
   the spec path); the epoch's migration plan is executed immediately,
   throttled, rescuing dead servers' keys and filling new ones -- keys
   in flight observably miss, exactly like PR 4's live reshard;
4. **drains** -- one draining server per tick goes through the
   graceful sequence (:meth:`ControlLoop.drain`): *copy first* (its
   keys land at their post-leave owners while the old owner keeps
   serving them), *then* the leave epoch (reads flip to destinations
   that already hold the data), then stale-copy cleanup.  A planned
   departure therefore moves its data without ever serving a miss,
   and the epoch's remap count equals the executed plan size
   bit-exactly -- the PR-4 invariant, now on a weighted fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..errors import StateError, UnknownServerError
from ..hashfn import Key
from ..hashing.base import DynamicHashTable
from ..service.migration import (
    DeltaTracker,
    MigrationExecutor,
    MigrationPlan,
    MigrationStatus,
)
from ..service.router import EpochRecord, MembershipUpdate, Router
from ..store import DataPlane
from .autoscale import Autoscaler, AutoscaleDecision
from .health import HealthMonitor, HealthTransition
from .spec import FleetState, Health, ServerSpec

__all__ = ["DrainReport", "ControlTickReport", "ControlLoop"]

#: Callback fed per-migration-tick status (the emulator samples traffic
#: here, which is what makes mid-migration misses observable).
TickCallback = Optional[Callable[[MigrationStatus], None]]


@dataclass(frozen=True)
class DrainReport:
    """What one graceful drain did."""

    spec: ServerSpec
    #: The authoritative plan (covers every key the leave epoch moved).
    plan: MigrationPlan
    #: The leave epoch's accounting record; ``record.probes_moved ==
    #: plan.total_keys`` holds bit-exactly.
    record: EpochRecord
    #: Keys copied ahead of the epoch (catch-up recopies included).
    copied: int
    #: Stale source copies removed after the epoch.
    cleaned: int
    #: Executor ticks the pre-copy took.
    ticks: int

    def describe(self) -> str:
        return (
            "drained {!r} (weight {}): {} keys pre-copied in {} tick(s), "
            "epoch {} remapped {}, {} stale copies cleaned".format(
                self.spec.server_id,
                self.spec.weight,
                self.plan.total_keys,
                self.ticks,
                self.record.epoch,
                self.record.probes_moved,
                self.cleaned,
            )
        )


@dataclass(frozen=True)
class ControlTickReport:
    """Everything one reconciliation tick observed and did."""

    plan_only: bool = False
    transitions: Tuple[HealthTransition, ...] = ()
    decision: Optional[AutoscaleDecision] = None
    #: Servers admitted by this tick's membership epoch.
    admitted: Tuple[Key, ...] = ()
    #: Dead servers removed by this tick's membership epoch.
    removed: Tuple[Key, ...] = ()
    #: Membership epochs applied (reconcile + one per drain).
    epochs: Tuple[EpochRecord, ...] = ()
    drains: Tuple[DrainReport, ...] = ()
    #: Draining servers still queued after this tick.
    pending_drains: Tuple[Key, ...] = ()
    #: Keys moved by migration executors this tick (drain copies
    #: included).
    moved_keys: int = 0
    #: Plan-only mode: the membership diff that *would* be applied.
    pending_update: Optional[MembershipUpdate] = None
    #: Plan-only mode: per-draining-server planned move counts.
    pending_drain_keys: Tuple[Tuple[Key, int], ...] = ()

    @property
    def is_noop(self) -> bool:
        return not (
            self.transitions
            or self.epochs
            or self.drains
            or (self.decision is not None and not self.decision.is_noop)
            or (
                self.pending_update is not None
                and not self.pending_update.is_empty
            )
        )

    def describe(self) -> str:
        lines: List[str] = []
        prefix = "would " if self.plan_only else ""
        for transition in self.transitions:
            lines.append(
                "health: {!r} {} -> {}".format(
                    transition.server_id,
                    transition.previous.value,
                    transition.current.value,
                )
            )
        if self.decision is not None:
            lines.append("autoscale: " + self.decision.describe())
        if self.pending_update is not None and not self.pending_update.is_empty:
            lines.append(
                "{}sync: +{} -{}".format(
                    prefix,
                    list(self.pending_update.joins),
                    list(self.pending_update.leaves),
                )
            )
        for record in self.epochs:
            lines.append(
                "epoch {}: +{} -{} remapped {} key(s) "
                "({:.2%})".format(
                    record.epoch,
                    list(record.joined),
                    list(record.left),
                    record.probes_moved,
                    record.remap_fraction,
                )
            )
        for drain in self.drains:
            lines.append(drain.describe())
        for server_id, planned in self.pending_drain_keys:
            lines.append(
                "{}drain {!r}: {} key(s) to move".format(
                    prefix, server_id, planned
                )
            )
        if self.pending_drains:
            lines.append(
                "pending drains: {}".format(list(self.pending_drains))
            )
        if self.moved_keys:
            lines.append("moved {} key(s)".format(self.moved_keys))
        if not lines:
            lines.append("steady state: nothing to reconcile")
        return "\n".join(lines)


class ControlLoop:
    """Reconciles a :class:`FleetState` through router + data plane."""

    def __init__(
        self,
        router: Router,
        plane: DataPlane,
        fleet: FleetState,
        monitor: Optional[HealthMonitor] = None,
        autoscaler: Optional[Autoscaler] = None,
        max_keys_per_tick: int = 1_024,
        max_bytes_per_tick: Optional[int] = None,
    ):
        if plane.router is not router:
            raise ValueError(
                "the data plane must be addressed by the loop's router"
            )
        if monitor is not None and monitor.fleet is not fleet:
            raise ValueError(
                "the health monitor must watch the loop's fleet state"
            )
        self._router = router
        self._plane = plane
        self._fleet = fleet
        self._monitor = monitor
        self._autoscaler = autoscaler
        self._max_keys = max_keys_per_tick
        self._max_bytes = max_bytes_per_tick

    # -- introspection ----------------------------------------------------

    @property
    def router(self) -> Router:
        return self._router

    @property
    def plane(self) -> DataPlane:
        return self._plane

    @property
    def fleet(self) -> FleetState:
        return self._fleet

    @property
    def monitor(self) -> Optional[HealthMonitor]:
        return self._monitor

    @property
    def autoscaler(self) -> Optional[Autoscaler]:
        return self._autoscaler

    # -- bootstrap ---------------------------------------------------------

    def bootstrap(self):
        """First reconcile: sync the declared fleet, track stored keys."""
        result = self._router.sync(self._fleet.members())
        self._plane.track()
        return result

    # -- graceful drain ----------------------------------------------------

    def _shadow_lookup(self, server_id: Key):
        """Assignment function of the table *as if* ``server_id`` left.

        Built from a state snapshot, so computing the drain plan never
        touches the live table (and the live epoch, applied later,
        reproduces exactly this assignment).
        """
        table = DynamicHashTable.from_state(self._router.table.state_dict())
        table.leave(server_id)

        def lookup(words):
            if not table.server_count:
                return None
            return table.lookup_words(words)

        return lookup

    def _check_drainable(self, server_id: Key) -> None:
        if server_id not in self._router.table:
            raise UnknownServerError(server_id)
        if self._router.server_count <= 1:
            raise StateError("cannot drain the last server in the fleet")

    def drain_plan(self, server_id: Key) -> MigrationPlan:
        """The migration plan draining ``server_id`` would execute now.

        Pure preview: the stored keys are diffed against the shadow
        assignment through a *standalone* tracker, so neither the live
        table nor the router's installed probe population is touched.
        """
        self._check_drainable(server_id)
        keys = self._plane.keys()
        table = self._router.table
        tracker = DeltaTracker(
            lambda words: (
                table.lookup_words(words) if table.server_count else None
            )
        )
        tracker.track(keys, table.words_of_keys(keys))
        delta = tracker.diff_against(self._shadow_lookup(server_id))
        return MigrationPlan.from_delta(delta, epoch=self._router.epoch + 1)

    def _drain_plan_tracked(self, server_id: Key) -> MigrationPlan:
        """The drain plan over the *router's* freshly re-tracked probes.

        The mutating twin of :meth:`drain_plan`: re-installing the
        stored keys as the router's probe population is exactly what
        makes the leave epoch's remap accounting close over the same
        baseline the plan was built from -- the bit-exact ``plan size
        == epoch remap count`` invariant.
        """
        self._check_drainable(server_id)
        self._plane.track()
        delta = self._router.delta_tracker.diff_against(
            self._shadow_lookup(server_id)
        )
        return MigrationPlan.from_delta(delta, epoch=self._router.epoch + 1)

    def drain(
        self, server_id: Key, on_tick: TickCallback = None
    ) -> DrainReport:
        """Gracefully drain one server: copy, cut over, clean up.

        The sequence guarantees planned departures never serve a miss:

        1. the server is marked ``draining`` in the fleet directory;
        2. every key the departure will move (the shadow diff -- for
           minimally-disruptive algorithms exactly the drained server's
           keys, for modular-family tables the full collateral) is
           *copied* to its post-leave owner, sources retained, so reads
           keep hitting at the old owners throughout (``on_tick`` runs
           between throttled executor ticks -- traffic sampled there
           observes zero drain misses);
        3. if traffic *wrote* during the copy (the plane's mutation
           counter moved), a catch-up pass re-tracks and re-copies so
           late writes are not stranded; read-only drains skip it;
        4. the server is flagged into the router's ``avoid`` set (new
           ownership excluded) and the leave epoch lands -- reads flip
           to destinations that already hold the data, and the epoch's
           remap count equals the plan size bit-exactly;
        5. stale source copies are deleted, the empty store pruned, and
           the spec leaves the directory.
        """
        spec = self._fleet.get(server_id)
        if spec.health is Health.DEAD:
            raise StateError(
                "cannot drain dead server {!r}; reconcile it out".format(
                    server_id
                )
            )
        if spec.health is not Health.DRAINING:
            spec = self._fleet.mark_draining(server_id)

        mutations_before = self._plane.mutation_count
        plan = self._drain_plan_tracked(server_id)
        executor = MigrationExecutor(
            plan,
            self._plane,
            max_keys_per_tick=self._max_keys,
            max_bytes_per_tick=self._max_bytes,
            delete_source=False,
        )
        while not executor.status.done:
            status = executor.tick()
            if on_tick is not None:
                on_tick(status)
        copied = executor.status.copied
        ticks = executor.status.ticks
        executors = [executor]

        if self._plane.mutation_count != mutations_before:
            # Traffic wrote (or deleted) between ticks; re-track and
            # re-copy so nothing written mid-drain is stranded and no
            # pass-1 copy of a since-rewritten value goes stale.  The
            # second pass is authoritative for the epoch invariant;
            # read-only drains skip it entirely (the common case pays
            # the copy exactly once), while a write-dirty drain
            # re-copies the whole plan -- the plane tracks one global
            # mutation counter, not per-key dirt, trading a 2x copy on
            # the rare dirty drain for zero bookkeeping on every write.
            plan = self._drain_plan_tracked(server_id)
            catch_up = MigrationExecutor(
                plan,
                self._plane,
                max_keys_per_tick=self._max_keys,
                max_bytes_per_tick=self._max_bytes,
                delete_source=False,
            )
            while not catch_up.status.done:
                status = catch_up.tick()
                if on_tick is not None:
                    on_tick(status)
            copied += catch_up.status.copied
            ticks += catch_up.status.ticks
            executors.append(catch_up)

        # Every moving key now sits at its post-leave owner as well as
        # its current one; exclude the drained server from new
        # ownership and land the epoch (which lifts the flag again).
        self._router.avoid(server_id)
        result = self._router.sync(
            [
                member
                for member in self._fleet.members()
                if member.server_id != server_id
            ]
        )
        if result is None:  # pragma: no cover - drained server is a member
            raise StateError(
                "drain epoch for {!r} was a no-op".format(server_id)
            )

        cleaned = self._reconcile_retained(executors)
        self._fleet.mark_dead(server_id)
        self._fleet.remove(server_id)
        if self._monitor is not None:
            self._monitor.forget(server_id)
        self._plane.prune()
        return DrainReport(
            spec=spec,
            plan=plan,
            record=result.record,
            copied=copied,
            cleaned=cleaned,
            ticks=ticks,
        )

    def _reconcile_retained(self, executors) -> int:
        """Post-epoch cleanup across every retained-source executor.

        Each key is reconciled exactly once (the catch-up pass re-runs
        overlapping plans, and a second look at an already-reconciled
        key -- destination-only by then -- would misread it as a
        mid-drain delete and drop live data):

        * present at source and destination: the normal pre-copy pair;
          the destination is now authoritative, drop the source copy;
        * present only at the destination: the key was deleted at its
          (then-authoritative) source mid-drain, so the pre-copied
          destination copy is stale -- drop it, keeping the delete
          deleted across the cutover.
        """
        cleaned = 0
        seen = set()
        copied = frozenset().union(
            *(worker.copied_keys for worker in executors)
        )
        for worker in executors:
            for batch, keys in worker.processed_batches():
                fresh = [key for key in keys if key not in seen]
                if not fresh:
                    continue
                seen.update(fresh)
                # Keys never copied by any pass are left alone: either
                # deleted before the cursor reached them, or never at
                # their planned source (in-flight backlog from an
                # earlier migration living at some third store).
                # Nothing of ours to reconcile -- and the destination
                # store may hold such a key's ONLY copy, so it must not
                # be misread as a mid-drain delete.
                candidates = [key for key in fresh if key in copied]
                if not candidates:
                    continue
                source = self._plane.store(batch.source)
                destination = self._plane.store(batch.destination)
                __, at_source = source.get_many(candidates)
                __, at_destination = destination.get_many(candidates)
                both = at_source & at_destination
                stale = at_destination & ~at_source
                drop_source = [
                    key
                    for key, hit in zip(candidates, both.tolist())
                    if hit
                ]
                drop_destination = [
                    key
                    for key, hit in zip(candidates, stale.tolist())
                    if hit
                ]
                if drop_source:
                    cleaned += int(source.delete_many(drop_source).sum())
                if drop_destination:
                    cleaned += int(destination.delete_many(drop_destination).sum())
        return cleaned

    # -- the reconciliation tick -------------------------------------------

    def _plan_only_tick(self) -> ControlTickReport:
        decision = (
            self._autoscaler.decide(self._plane, self._fleet)
            if self._autoscaler is not None
            else None
        )
        draining = self._fleet.ids(Health.DRAINING)
        pending = tuple(
            (server_id, self.drain_plan(server_id).total_keys)
            for server_id in draining
            if self._router.server_count > 1
            and server_id in self._router.table
        )
        return ControlTickReport(
            plan_only=True,
            decision=decision,
            pending_update=self._router.diff(self._fleet.members()),
            pending_drains=draining,
            pending_drain_keys=pending,
        )

    def tick(
        self,
        now: Optional[float] = None,
        plan_only: bool = False,
        on_migration_tick: TickCallback = None,
    ) -> ControlTickReport:
        """One reconciliation pass (see the module docstring).

        ``plan_only`` computes the decisions and plans without mutating
        anything -- the CI smoke mode.  ``on_migration_tick`` receives
        every migration executor status (reconcile moves and drain
        copies), which is where the emulator samples traffic.
        """
        if plan_only:
            return self._plan_only_tick()

        transitions = (
            self._monitor.poll(now) if self._monitor is not None else ()
        )
        # Reconcile the router's avoid set against fleet health
        # declaratively (recoveries may have arrived through
        # heartbeats between ticks, not just through this poll):
        # suspects and not-yet-removed dead servers are served around,
        # everything else serves.
        flagged = {
            spec.server_id
            for spec in self._fleet.specs
            if spec.health in (Health.SUSPECT, Health.DEAD)
            and spec.server_id in self._router.table
        }
        for server_id in self._router.avoided - flagged:
            self._router.readmit(server_id)
        for server_id in flagged:
            self._router.avoid(server_id)

        decision = (
            self._autoscaler.decide(self._plane, self._fleet)
            if self._autoscaler is not None
            else None
        )
        if decision is not None:
            for spec in decision.add:
                self._fleet.add(spec)
            for server_id in decision.drain:
                if self._fleet.get(server_id).health is Health.HEALTHY:
                    self._fleet.mark_draining(server_id)

        # Membership reconcile: dead servers out, admissions in, one
        # epoch; its plan executes immediately (keys in flight miss,
        # the live-reshard trade).  The diff is computed first so the
        # steady-state tick never pays the O(stored keys) re-track --
        # the probe population is only refreshed when an epoch is
        # actually about to close over it.
        update = self._router.diff(self._fleet.members())
        result = None
        if not update.is_empty:
            self._plane.track()
            result = self._router.apply(update)
        epochs: List[EpochRecord] = []
        admitted: Tuple[Key, ...] = ()
        removed: Tuple[Key, ...] = ()
        moved = 0
        if result is not None:
            record, plan = result
            epochs.append(record)
            admitted = record.joined
            removed = record.left
            if not plan.is_empty:
                executor = MigrationExecutor(
                    plan,
                    self._plane,
                    max_keys_per_tick=self._max_keys,
                    max_bytes_per_tick=self._max_bytes,
                )
                while not executor.status.done:
                    status = executor.tick()
                    if on_migration_tick is not None:
                        on_migration_tick(status)
                executor.verify()
                moved += executor.status.committed
        for spec in self._fleet.sweep_dead():
            if self._monitor is not None:
                self._monitor.forget(spec.server_id)

        # Graceful drains: one server per tick bounds tick latency.
        # A drain that cannot proceed yet (last server in the table --
        # capacity has to be admitted first) stays pending instead of
        # wedging the loop.
        drains: List[DrainReport] = []
        draining = tuple(
            server_id
            for server_id in self._fleet.ids(Health.DRAINING)
            if server_id in self._router.table
            and self._router.server_count > 1
        )
        if draining:
            report = self.drain(draining[0], on_tick=on_migration_tick)
            drains.append(report)
            epochs.append(report.record)
            moved += report.plan.total_keys

        self._plane.prune()
        return ControlTickReport(
            transitions=transitions,
            decision=decision,
            admitted=admitted,
            removed=removed,
            epochs=tuple(epochs),
            drains=tuple(drains),
            pending_drains=self._fleet.ids(Health.DRAINING),
            moved_keys=moved,
        )
