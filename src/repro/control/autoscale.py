"""Autoscaling: scale decisions from byte utilization.

Capacity is *weighted bytes*: a unit-weight server holds
``capacity_bytes_per_weight`` accounted bytes, a weight-4 server four
times that, and utilization is the fleet's stored bytes (real
:class:`~repro.store.DataPlane` / :class:`~repro.store.ServerStore`
accounting, not request counts) over the live capacity.  Above the
band the :class:`Autoscaler` admits unit-weight servers; below it
nominates the emptiest servers to *drain* -- scale-down is always the
graceful path, never a hard leave.

Decisions are pure data (:class:`AutoscaleDecision`); the
:class:`~repro.control.loop.ControlLoop` is what applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..hashfn import Key
from .spec import FleetState, Health, ServerSpec

__all__ = [
    "UtilizationPolicy",
    "AutoscaleDecision",
    "Autoscaler",
]


@dataclass(frozen=True)
class UtilizationPolicy:
    """Byte-utilization band over weighted capacity."""

    #: Accounted bytes one unit of server weight can hold.
    capacity_bytes_per_weight: int = 1 << 20
    #: Utilization the fleet is resized *toward* when out of band.
    target_utilization: float = 0.60
    #: Scale up above this utilization...
    upper: float = 0.80
    #: ...and nominate drains below this one.
    lower: float = 0.35
    min_servers: int = 2
    max_servers: int = 1_024

    def __post_init__(self):
        if self.capacity_bytes_per_weight < 1:
            raise ValueError("capacity_bytes_per_weight must be positive")
        if not 0 < self.lower < self.target_utilization < self.upper <= 1.0:
            raise ValueError(
                "need 0 < lower < target < upper <= 1, got {} < {} < "
                "{}".format(self.lower, self.target_utilization, self.upper)
            )
        if not 1 <= self.min_servers <= self.max_servers:
            raise ValueError("need 1 <= min_servers <= max_servers")

    @classmethod
    def sized_for(
        cls, used_bytes: int, total_weight: float, **overrides: object
    ) -> "UtilizationPolicy":
        """A policy whose capacity puts a workload at target utilization.

        The one place the "size the capacity so ``used_bytes`` on a
        fleet of ``total_weight`` sits exactly at the target" arithmetic
        lives -- the CLI demo fleet and the ``control_tick`` benchmark
        both derive their in-band steady state from it instead of
        hard-coding the target's default.
        """
        target = float(
            overrides.get("target_utilization", cls.target_utilization)
        )
        capacity = max(
            1, int(used_bytes / (target * max(total_weight, 1e-9)))
        )
        return cls(capacity_bytes_per_weight=capacity, **overrides)

    def capacity_bytes(self, total_weight: float) -> float:
        """Fleet capacity at a given summed weight."""
        return self.capacity_bytes_per_weight * float(total_weight)

    def utilization(self, used_bytes: int, total_weight: float) -> float:
        """Stored bytes over weighted capacity (inf on zero capacity)."""
        capacity = self.capacity_bytes(total_weight)
        if capacity <= 0:
            return float("inf") if used_bytes else 0.0
        return used_bytes / capacity

    def wanted_weight(self, used_bytes: int) -> float:
        """Summed weight that puts ``used_bytes`` at target utilization."""
        return used_bytes / (
            self.capacity_bytes_per_weight * self.target_utilization
        )


@dataclass(frozen=True)
class AutoscaleDecision:
    """What the autoscaler wants done (the control loop applies it)."""

    #: Fresh specs to admit.
    add: Tuple[ServerSpec, ...] = ()
    #: Members to drain gracefully (scale-down never hard-leaves).
    drain: Tuple[Key, ...] = ()
    #: The utilization the decision was taken at.
    utilization: float = 0.0

    @property
    def is_noop(self) -> bool:
        return not self.add and not self.drain

    def describe(self) -> str:
        if self.is_noop:
            return "hold (utilization {:.0%})".format(self.utilization)
        actions = []
        if self.add:
            actions.append(
                "add {} ({})".format(
                    len(self.add),
                    ", ".join(str(spec.server_id) for spec in self.add),
                )
            )
        if self.drain:
            actions.append(
                "drain {} ({})".format(
                    len(self.drain), ", ".join(map(str, self.drain))
                )
            )
        return "{} (utilization {:.0%})".format(
            " + ".join(actions), self.utilization
        )


class Autoscaler:
    """Turns data-plane accounting + fleet state into scale decisions."""

    def __init__(
        self,
        policy: UtilizationPolicy,
        spawner: Optional[Callable[[int], ServerSpec]] = None,
    ):
        self._policy = policy
        self._spawner = spawner or self._default_spawner

    @staticmethod
    def _default_spawner(index: int) -> ServerSpec:
        return ServerSpec("auto-{:05d}".format(index))

    @property
    def policy(self) -> UtilizationPolicy:
        return self._policy

    def decide(self, plane, fleet: FleetState) -> AutoscaleDecision:
        """One scaling decision from live byte accounting.

        Pure: nothing on the autoscaler, plane or fleet is mutated, so
        a plan-only preview and the real tick that follows compute the
        *same* decision (spawned identifiers restart from index 0 every
        call and skip ids already in the directory, so applying a
        decision naturally shifts the next one onto fresh names).
        Capacity counts healthy + suspect members only (draining
        capacity is already leaving); used bytes count everything the
        plane holds, because all of it must land somewhere that stays.
        """
        policy = self._policy
        serving = [
            spec
            for spec in fleet.members()
            if spec.health in (Health.HEALTHY, Health.SUSPECT)
        ]
        total_weight = float(sum(spec.weight for spec in serving))
        used = int(plane.total_bytes)
        utilization = policy.utilization(used, total_weight)

        if utilization > policy.upper and len(serving) < policy.max_servers:
            deficit = policy.wanted_weight(used) - total_weight
            add = []
            index = 0
            # Bounded: a spawner that keeps emitting taken ids must not
            # spin forever.
            limit = len(fleet) + policy.max_servers
            while (
                deficit > 0
                and len(serving) + len(add) < policy.max_servers
                and index < limit
            ):
                spec = self._spawner(index)
                index += 1
                if spec.server_id in fleet:
                    continue
                add.append(spec)
                deficit -= spec.weight
            return AutoscaleDecision(
                add=tuple(add), utilization=utilization
            )

        if utilization < policy.lower and len(serving) > policy.min_servers:
            surplus = total_weight - policy.wanted_weight(used)
            stores = plane.stores
            healthy = sorted(
                (
                    spec
                    for spec in serving
                    if spec.health is Health.HEALTHY
                ),
                key=lambda spec: (
                    stores[spec.server_id].nbytes
                    if spec.server_id in stores
                    else 0
                ),
            )
            drain = []
            remaining = len(serving)
            for spec in healthy:
                if surplus < spec.weight or remaining <= policy.min_servers:
                    break
                drain.append(spec.server_id)
                surplus -= spec.weight
                remaining -= 1
            return AutoscaleDecision(
                drain=tuple(drain), utilization=utilization
            )

        return AutoscaleDecision(utilization=utilization)
