"""ServerSpec / FleetState: metadata, lifecycle rules, persistence."""

import pytest

from repro.control import FleetState, Health, ServerSpec
from repro.errors import DuplicateServerError, StateError, UnknownServerError


class TestServerSpec:
    def test_defaults(self):
        spec = ServerSpec("a")
        assert spec.weight == 1.0
        assert spec.zone == ""
        assert spec.health is Health.HEALTHY
        assert spec.in_fleet

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            ServerSpec("a", weight=0.0)
        with pytest.raises(ValueError):
            ServerSpec("a", weight=-2.0)

    def test_health_coerced_from_string(self):
        spec = ServerSpec("a", health="draining")
        assert spec.health is Health.DRAINING

    def test_dead_is_not_in_fleet(self):
        assert not ServerSpec("a", health=Health.DEAD).in_fleet
        assert ServerSpec("a", health=Health.SUSPECT).in_fleet
        assert ServerSpec("a", health=Health.DRAINING).in_fleet

    def test_transitions_validated(self):
        spec = ServerSpec("a")
        suspect = spec.with_health(Health.SUSPECT)
        assert suspect.health is Health.SUSPECT
        assert suspect.with_health(Health.HEALTHY).health is Health.HEALTHY
        dead = suspect.with_health(Health.DEAD)
        # Dead is terminal.
        for target in (Health.HEALTHY, Health.SUSPECT, Health.DRAINING):
            with pytest.raises(StateError):
                dead.with_health(target)
        # Draining cannot become suspect (departure already planned).
        with pytest.raises(StateError):
            spec.with_health(Health.DRAINING).with_health(Health.SUSPECT)


class TestFleetState:
    def _fleet(self):
        return FleetState(
            [
                ServerSpec("a", weight=1.0, zone="z0"),
                ServerSpec("b", weight=2.0, zone="z1"),
                ServerSpec("c", weight=4.0, zone="z0"),
            ]
        )

    def test_directory_basics(self):
        fleet = self._fleet()
        assert len(fleet) == 3
        assert "b" in fleet
        assert fleet.get("b").weight == 2.0
        with pytest.raises(UnknownServerError):
            fleet.get("nope")
        with pytest.raises(DuplicateServerError):
            fleet.add(ServerSpec("a"))

    def test_members_exclude_dead_only(self):
        fleet = self._fleet()
        fleet.mark_suspect("a")
        fleet.mark_draining("b")
        fleet.mark_dead("c")
        assert [spec.server_id for spec in fleet.members()] == ["a", "b"]
        assert fleet.ids(Health.DEAD) == ("c",)
        assert fleet.total_weight == 3.0

    def test_weights_view(self):
        fleet = self._fleet()
        assert fleet.weights() == {"a": 1.0, "b": 2.0, "c": 4.0}
        fleet.mark_dead("c")
        assert fleet.weights() == {"a": 1.0, "b": 2.0}

    def test_by_zone(self):
        fleet = self._fleet()
        assert [s.server_id for s in fleet.by_zone("z0")] == ["a", "c"]

    def test_sweep_dead(self):
        fleet = self._fleet()
        fleet.mark_dead("b")
        swept = fleet.sweep_dead()
        assert [spec.server_id for spec in swept] == ["b"]
        assert "b" not in fleet
        assert fleet.sweep_dead() == ()

    def test_remove_returns_final_spec(self):
        fleet = self._fleet()
        fleet.mark_draining("a")
        spec = fleet.remove("a")
        assert spec.health is Health.DRAINING
        with pytest.raises(UnknownServerError):
            fleet.remove("a")

    def test_members_flow_into_router_sync(self):
        """Specs are accepted by Router.sync verbatim, weights threaded."""
        from repro.hashing import make_table
        from repro.service import Router

        fleet = self._fleet()
        router = Router(make_table("weighted", algorithm="rendezvous", seed=1))
        router.sync(fleet.members())
        assert set(router.server_ids) == {"a", "b", "c"}
        assert router.table.weight_of("c") == 4.0
