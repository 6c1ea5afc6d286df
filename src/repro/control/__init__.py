"""The control plane: fleet metadata, health, autoscaling, reconciliation.

The layers below speak mechanisms -- :class:`~repro.service.Router`
reconciles membership, :class:`~repro.service.MigrationExecutor` moves
data, :class:`~repro.store.DataPlane` accounts bytes.  This package
speaks *policy* over a heterogeneous fleet:

* :class:`ServerSpec` / :class:`FleetState` -- per-server capacity
  weight, zone and health lifecycle (healthy / draining / suspect /
  dead), the directory every reconcile targets;
* :class:`HealthMonitor` -- heartbeat deadlines driving
  suspect/dead transitions, each returned to the caller;
* :class:`Autoscaler` + :class:`UtilizationPolicy` -- scaling decisions
  from real byte accounting against weighted capacity;
* :class:`ControlLoop` -- the reconciliation tick gluing it together:
  health -> avoid-set failover, autoscale -> admissions and graceful
  drains, fleet diff -> ``Router.sync`` -> throttled
  :class:`~repro.service.MigrationExecutor`, with copy-before-cutover
  drains that never serve a miss.

Quickstart::

    from repro.control import (
        Autoscaler, ControlLoop, FleetState, HealthMonitor,
        ServerSpec, UtilizationPolicy,
    )
    from repro.hashing import weighted_table
    from repro.service import Router
    from repro.store import DataPlane

    fleet = FleetState([
        ServerSpec("small", weight=1), ServerSpec("medium", weight=2),
        ServerSpec("large", weight=4, zone="b"),
    ])
    router = Router(weighted_table("hd", dim=4096, codebook_size=512))
    plane = DataPlane(router)
    loop = ControlLoop(
        router, plane, fleet,
        monitor=HealthMonitor(fleet),
        autoscaler=Autoscaler(UtilizationPolicy()),
    )
    loop.bootstrap()          # fleet -> routing table (weights threaded)
    loop.drain("large")       # copy out, cut over, zero read misses
    loop.tick()               # one full reconciliation pass
"""

from .autoscale import (
    AutoscaleDecision,
    Autoscaler,
    UtilizationPolicy,
)
from .health import HealthMonitor, HealthTransition
from .loop import ControlLoop, ControlTickReport, DrainReport
from .spec import FleetState, Health, ServerSpec

__all__ = [
    "AutoscaleDecision",
    "Autoscaler",
    "ControlLoop",
    "ControlTickReport",
    "DrainReport",
    "FleetState",
    "Health",
    "HealthMonitor",
    "HealthTransition",
    "ServerSpec",
    "UtilizationPolicy",
]
