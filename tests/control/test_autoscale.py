"""Autoscaler: utilization math, band decisions, drain nominations."""

import numpy as np
import pytest

from repro.control import (
    AutoscaleDecision,
    Autoscaler,
    FleetState,
    ServerSpec,
    UtilizationPolicy,
)
from repro.hashing import weighted_table
from repro.service import Router
from repro.store import DataPlane


def _plane_with(fleet, n_keys, value_bytes=56):
    router = Router(weighted_table("rendezvous", seed=2))
    router.sync(fleet.members())
    plane = DataPlane(router)
    if n_keys:
        keys = np.arange(n_keys, dtype=np.int64)
        plane.put_many(keys, [b"x" * value_bytes] * n_keys)
    return plane


class TestUtilizationPolicy:
    def test_band_validation(self):
        with pytest.raises(ValueError):
            UtilizationPolicy(lower=0.7, target_utilization=0.6, upper=0.8)
        with pytest.raises(ValueError):
            UtilizationPolicy(capacity_bytes_per_weight=0)
        with pytest.raises(ValueError):
            UtilizationPolicy(min_servers=5, max_servers=2)

    def test_utilization_math(self):
        policy = UtilizationPolicy(capacity_bytes_per_weight=1_000)
        assert policy.capacity_bytes(4.0) == 4_000
        assert policy.utilization(2_000, 4.0) == pytest.approx(0.5)
        assert policy.utilization(0, 0.0) == 0.0
        assert policy.utilization(1, 0.0) == float("inf")

    def test_wanted_weight_targets_the_band_center(self):
        policy = UtilizationPolicy(
            capacity_bytes_per_weight=1_000, target_utilization=0.5
        )
        # 3000 bytes at 50% target utilization needs weight 6.
        assert policy.wanted_weight(3_000) == pytest.approx(6.0)


class TestDecisions:
    def test_in_band_is_noop(self):
        fleet = FleetState([ServerSpec("a"), ServerSpec("b")])
        plane = _plane_with(fleet, n_keys=100)
        used = plane.total_bytes
        policy = UtilizationPolicy(
            capacity_bytes_per_weight=int(used / (0.6 * 2))
        )
        decision = Autoscaler(policy).decide(plane, fleet)
        assert decision.is_noop
        assert 0.35 < decision.utilization < 0.8
        assert "hold" in decision.describe()

    def test_over_band_admits_enough_weight(self):
        fleet = FleetState([ServerSpec("a"), ServerSpec("b")])
        plane = _plane_with(fleet, n_keys=400)
        used = plane.total_bytes
        # Capacity sized so the fleet sits at ~160% utilization.
        policy = UtilizationPolicy(
            capacity_bytes_per_weight=int(used / (1.6 * 2)),
            max_servers=32,
        )
        scaler = Autoscaler(policy)
        decision = scaler.decide(plane, fleet)
        assert decision.add and not decision.drain
        added_weight = sum(spec.weight for spec in decision.add)
        wanted = policy.wanted_weight(used)
        assert 2 + added_weight >= wanted
        # decide() is pure: an unapplied preview repeats identically...
        again = scaler.decide(plane, fleet)
        assert again.add == decision.add
        # ...and once applied, the next decision skips the taken ids.
        for spec in decision.add:
            fleet.add(spec)
        after = scaler.decide(plane, fleet)
        taken = {spec.server_id for spec in decision.add}
        assert not taken & {spec.server_id for spec in after.add}

    def test_under_band_nominates_emptiest_healthy_drains(self):
        fleet = FleetState(
            [ServerSpec("a"), ServerSpec("b"), ServerSpec("c"), ServerSpec("d")]
        )
        plane = _plane_with(fleet, n_keys=60)
        used = plane.total_bytes
        # Utilization ~10%: well under the band.
        policy = UtilizationPolicy(
            capacity_bytes_per_weight=int(used / (0.10 * 4)),
            min_servers=2,
        )
        decision = Autoscaler(policy).decide(plane, fleet)
        assert decision.drain and not decision.add
        # Never below the server floor.
        assert len(decision.drain) <= 2
        # Nominations are the emptiest stores first.
        loads = {s: plane.store(s).nbytes for s in ("a", "b", "c", "d")}
        nominated = list(decision.drain)
        assert nominated == sorted(loads, key=loads.get)[: len(nominated)]

    def test_admissions_stop_at_max_servers(self):
        fleet = FleetState([ServerSpec("a"), ServerSpec("b")])
        plane = _plane_with(fleet, n_keys=400)
        # ~160% utilization wants about five unit servers in all.
        capacity = int(plane.total_bytes / (1.6 * 2))
        capped = UtilizationPolicy(
            capacity_bytes_per_weight=capacity, max_servers=3
        )
        decision = Autoscaler(capped).decide(plane, fleet)
        assert decision.utilization > capped.upper
        assert len(decision.add) == 1
        full = UtilizationPolicy(
            capacity_bytes_per_weight=capacity, max_servers=2
        )
        assert Autoscaler(full).decide(plane, fleet).is_noop

    def test_no_drain_at_min_servers(self):
        fleet = FleetState([ServerSpec("a"), ServerSpec("b")])
        plane = _plane_with(fleet, n_keys=60)
        policy = UtilizationPolicy(
            capacity_bytes_per_weight=int(plane.total_bytes / (0.10 * 2)),
            min_servers=2,
        )
        decision = Autoscaler(policy).decide(plane, fleet)
        assert decision.utilization < policy.lower
        assert decision.is_noop

    def test_suspect_servers_count_capacity_but_never_drain(self):
        fleet = FleetState([ServerSpec("a"), ServerSpec("b"), ServerSpec("c")])
        fleet.mark_suspect("a")
        plane = _plane_with(fleet, n_keys=10)
        policy = UtilizationPolicy(
            capacity_bytes_per_weight=10**9, min_servers=2
        )
        decision = Autoscaler(policy).decide(plane, fleet)
        assert "a" not in decision.drain

    def test_custom_spawner(self):
        fleet = FleetState([ServerSpec("a"), ServerSpec("b")])
        plane = _plane_with(fleet, n_keys=500)
        policy = UtilizationPolicy(capacity_bytes_per_weight=8, max_servers=8)
        scaler = Autoscaler(
            policy,
            spawner=lambda index: ServerSpec(
                "big-{}".format(index), weight=4.0
            ),
        )
        decision = scaler.decide(plane, fleet)
        assert decision.add
        assert all(spec.weight == 4.0 for spec in decision.add)
        assert decision.add[0].server_id == "big-0"


class TestDecisionDescribe:
    def test_describe_lists_actions(self):
        decision = AutoscaleDecision(
            add=(ServerSpec("x"),), drain=("y",), utilization=0.9
        )
        text = decision.describe()
        assert "add 1" in text and "drain 1" in text and "90%" in text
