"""Heartbeat-deadline failure detection driving fleet health.

A :class:`HealthMonitor` watches the :class:`~repro.control.spec.
FleetState` directory: servers report :meth:`HealthMonitor.heartbeat`
and :meth:`HealthMonitor.poll` applies the deadline rules --

* no heartbeat for ``suspect_after`` seconds: ``healthy -> suspect``
  (the router's ``avoid`` set picks this up; traffic fails over to
  replicas, no membership change, no remap bill);
* no heartbeat for ``dead_after`` seconds: ``-> dead`` (the control
  loop removes the server and rescues its keys);
* a heartbeat from a suspect server: ``suspect -> healthy`` (flag
  lifted, traffic returns).

Draining servers are exempt -- their departure is already planned --
and dead is terminal (a recovered machine re-joins as a fresh spec).
Time is injected (``clock``), so tests and the emulator drive
deterministic timelines; :meth:`HealthMonitor.poll` and
:meth:`HealthMonitor.heartbeat` return every transition they make.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..errors import StateError
from ..hashfn import Key
from .spec import FleetState, Health

__all__ = ["HealthTransition", "HealthMonitor"]


class HealthTransition(NamedTuple):
    """One health-state change the monitor applied."""

    server_id: Key
    previous: Health
    current: Health
    at: float


class HealthMonitor:
    """Deadline-based failure detector over a fleet directory."""

    def __init__(
        self,
        fleet: FleetState,
        suspect_after: float = 3.0,
        dead_after: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0 < suspect_after < dead_after:
            raise ValueError(
                "need 0 < suspect_after < dead_after, got {} and {}".format(
                    suspect_after, dead_after
                )
            )
        self._fleet = fleet
        self._suspect_after = float(suspect_after)
        self._dead_after = float(dead_after)
        self._clock = clock
        self._last_beat: Dict[Key, float] = {}

    # -- introspection ----------------------------------------------------

    @property
    def fleet(self) -> FleetState:
        """The directory this monitor transitions."""
        return self._fleet

    @property
    def suspect_after(self) -> float:
        return self._suspect_after

    @property
    def dead_after(self) -> float:
        return self._dead_after

    def forget(self, server_id: Key) -> None:
        """Drop a server's heartbeat state (call on directory removal).

        Without this, a machine re-admitted under its old identifier (a
        fresh spec, the documented recovery path) would inherit the
        stale deadline clock and be declared dead on the next poll
        instead of getting the first-watch grace period.
        :meth:`poll` also prunes state for ids no longer in the fleet,
        so removals outside the control loop heal at the next poll.
        """
        self._last_beat.pop(server_id, None)

    # -- the detector ------------------------------------------------------

    def heartbeat(
        self, server_id: Key, now: Optional[float] = None
    ) -> Optional[HealthTransition]:
        """Record a liveness report; lifts a suspect flag if one is set.

        Returns the recovery transition when one happened, else None.
        Heartbeats from dead servers are rejected: dead is terminal,
        the machine re-joins as a fresh spec.
        """
        spec = self._fleet.get(server_id)
        if spec.health is Health.DEAD:
            raise StateError(
                "dead server {!r} cannot heartbeat; re-admit it as a "
                "fresh spec".format(server_id)
            )
        at = self._clock() if now is None else float(now)
        self._last_beat[server_id] = at
        if spec.health is Health.SUSPECT:
            self._fleet.mark_healthy(server_id)
            return HealthTransition(server_id, Health.SUSPECT, Health.HEALTHY, at)
        return None

    def poll(self, now: Optional[float] = None) -> Tuple[HealthTransition, ...]:
        """Apply the deadline rules; returns the transitions made.

        A server seen for the first time starts its deadline clock at
        this poll (a grace period equal to ``suspect_after``), so a
        freshly admitted server is not instantly suspect.
        """
        at = self._clock() if now is None else float(now)
        for server_id in list(self._last_beat):
            if server_id not in self._fleet:
                del self._last_beat[server_id]
        transitions: List[HealthTransition] = []
        for spec in self._fleet.specs:
            if spec.health in (Health.DEAD, Health.DRAINING):
                continue
            last = self._last_beat.get(spec.server_id)
            if last is None:
                self._last_beat[spec.server_id] = at
                continue
            age = at - last
            if age >= self._dead_after:
                self._fleet.mark_dead(spec.server_id)
                transitions.append(
                    HealthTransition(
                        spec.server_id, spec.health, Health.DEAD, at
                    )
                )
            elif age >= self._suspect_after and spec.health is Health.HEALTHY:
                self._fleet.mark_suspect(spec.server_id)
                transitions.append(
                    HealthTransition(
                        spec.server_id, Health.HEALTHY, Health.SUSPECT, at
                    )
                )
        return tuple(transitions)
