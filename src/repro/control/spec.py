"""Fleet metadata: per-server specs and the fleet-state directory.

The routing layer (PR 1's ``Router``, PR 3's ``ClusterRouter``) speaks
bare server-id lists: a server is either present or absent, and every
server is the same size.  Production fleets are neither anonymous nor
homogeneous -- a member has a capacity (instance size), a placement
zone, and a *lifecycle*: it is healthy, draining out gracefully, suspect
(missed heartbeats), or dead.  :class:`ServerSpec` carries that
metadata and :class:`FleetState` is the directory the control plane
reconciles from: its :meth:`FleetState.members` tuple is exactly what
``Router.sync`` / ``ClusterRouter.sync`` accept (specs flow through
:func:`~repro.service.router.normalize_fleet`, threading weights into
the tables).

Health is a small state machine::

    healthy <-> suspect --> dead        (failure detector)
    healthy --> draining --> (removed)  (planned departure)
    suspect --> draining                (operator overrides the detector)
    draining --> healthy                (drain cancelled)

``dead`` is terminal: a recovered machine re-joins as a fresh admission
(fresh spec), never by resurrecting its old record -- the data the
control plane rescued off it has already moved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Iterable, Iterator, Tuple

from ..errors import DuplicateServerError, StateError, UnknownServerError
from ..hashfn import Key

__all__ = ["Health", "ServerSpec", "FleetState"]


class Health(str, Enum):
    """One server's lifecycle state, as the control plane sees it."""

    HEALTHY = "healthy"
    DRAINING = "draining"
    SUSPECT = "suspect"
    DEAD = "dead"


#: Transitions the fleet directory accepts (``DEAD`` is terminal).
_ALLOWED_TRANSITIONS = {
    Health.HEALTHY: (Health.DRAINING, Health.SUSPECT, Health.DEAD),
    Health.SUSPECT: (Health.HEALTHY, Health.DRAINING, Health.DEAD),
    Health.DRAINING: (Health.HEALTHY, Health.DEAD),
    Health.DEAD: (),
}


@dataclass(frozen=True)
class ServerSpec:
    """One fleet member: identity, capacity, placement, lifecycle."""

    server_id: Key
    #: Relative capacity (> 0); weight 2 targets twice the keys/bytes
    #: of weight 1.  Threaded into weight-capable tables by the router.
    weight: float = 1.0
    #: Placement zone label (informational; zone-aware policies group
    #: on it).
    zone: str = ""
    health: Health = Health.HEALTHY

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(
                "weight for {!r} must be positive, got {}".format(
                    self.server_id, self.weight
                )
            )
        if not isinstance(self.health, Health):
            object.__setattr__(self, "health", Health(self.health))

    @property
    def in_fleet(self) -> bool:
        """Should this server be in the routing table right now?

        Everything but ``dead``: a draining server still serves its
        keys until they are moved off, and a suspect one is failed
        *around* (routing-level ``avoid``), not removed.
        """
        return self.health is not Health.DEAD

    def with_health(self, health: Health) -> "ServerSpec":
        """A copy in the given health state (transition validated)."""
        health = Health(health)
        if health is self.health:
            return self
        if health not in _ALLOWED_TRANSITIONS[self.health]:
            raise StateError(
                "illegal health transition {} -> {} for {!r}".format(
                    self.health.value, health.value, self.server_id
                )
            )
        return replace(self, health=health)


class FleetState:
    """The control plane's server directory: desired fleet + lifecycle.

    Insertion-ordered; every mutation goes through :meth:`add`,
    :meth:`remove` or :meth:`set_health` so the transition rules hold
    by construction.
    """

    def __init__(self, specs: Iterable[ServerSpec] = ()):
        self._specs: Dict[Key, ServerSpec] = {}
        for spec in specs:
            self.add(spec)

    # -- directory ---------------------------------------------------------

    def add(self, spec: ServerSpec) -> ServerSpec:
        """Admit one spec (duplicate ids rejected)."""
        if spec.server_id in self._specs:
            raise DuplicateServerError(spec.server_id)
        self._specs[spec.server_id] = spec
        return spec

    def remove(self, server_id: Key) -> ServerSpec:
        """Forget one server entirely; returns its final spec."""
        try:
            return self._specs.pop(server_id)
        except KeyError:
            raise UnknownServerError(server_id) from None

    def get(self, server_id: Key) -> ServerSpec:
        try:
            return self._specs[server_id]
        except KeyError:
            raise UnknownServerError(server_id) from None

    def __contains__(self, server_id: Key) -> bool:
        return server_id in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ServerSpec]:
        return iter(self._specs.values())

    def __repr__(self) -> str:
        states = {health: 0 for health in Health}
        for spec in self._specs.values():
            states[spec.health] += 1
        return "FleetState({})".format(
            ", ".join(
                "{}={}".format(health.value, count)
                for health, count in states.items()
                if count
            )
            or "empty"
        )

    @property
    def specs(self) -> Tuple[ServerSpec, ...]:
        """Every spec, admission-ordered (dead ones included)."""
        return tuple(self._specs.values())

    # -- views -------------------------------------------------------------

    def members(self) -> Tuple[ServerSpec, ...]:
        """The specs that belong in the routing table right now.

        This is the declarative target for ``Router.sync`` /
        ``ClusterRouter.sync``: everything not dead, weights attached.
        """
        return tuple(spec for spec in self._specs.values() if spec.in_fleet)

    def ids(self, *healths: Health) -> Tuple[Key, ...]:
        """Server ids, optionally filtered to the given health states."""
        wanted = (
            {Health(h) for h in healths} if healths else set(Health)
        )
        return tuple(
            spec.server_id
            for spec in self._specs.values()
            if spec.health in wanted
        )

    def by_zone(self, zone: str) -> Tuple[ServerSpec, ...]:
        """Members placed in ``zone``."""
        return tuple(
            spec for spec in self.members() if spec.zone == zone
        )

    def weights(self) -> Dict[Key, float]:
        """``{server_id: weight}`` over current members."""
        return {spec.server_id: spec.weight for spec in self.members()}

    @property
    def total_weight(self) -> float:
        """Summed capacity weight of current members."""
        return float(sum(spec.weight for spec in self.members()))

    # -- lifecycle ---------------------------------------------------------

    def set_health(self, server_id: Key, health: Health) -> ServerSpec:
        """Transition one server's health (rules enforced); new spec."""
        spec = self.get(server_id).with_health(health)
        self._specs[server_id] = spec
        return spec

    def mark_healthy(self, server_id: Key) -> ServerSpec:
        return self.set_health(server_id, Health.HEALTHY)

    def mark_draining(self, server_id: Key) -> ServerSpec:
        return self.set_health(server_id, Health.DRAINING)

    def mark_suspect(self, server_id: Key) -> ServerSpec:
        return self.set_health(server_id, Health.SUSPECT)

    def mark_dead(self, server_id: Key) -> ServerSpec:
        return self.set_health(server_id, Health.DEAD)

    def sweep_dead(self) -> Tuple[ServerSpec, ...]:
        """Drop every dead spec from the directory; returns them."""
        dead = tuple(
            spec
            for spec in self._specs.values()
            if spec.health is Health.DEAD
        )
        for spec in dead:
            del self._specs[spec.server_id]
        return dead
