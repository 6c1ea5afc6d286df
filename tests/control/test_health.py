"""HealthMonitor: heartbeat deadlines and the transitions they return."""

import pytest

from repro.control import FleetState, Health, HealthMonitor, ServerSpec
from repro.errors import StateError


def _fleet():
    return FleetState([ServerSpec("a"), ServerSpec("b"), ServerSpec("c")])


def _monitor(fleet, **kwargs):
    kwargs.setdefault("suspect_after", 3.0)
    kwargs.setdefault("dead_after", 10.0)
    kwargs.setdefault("clock", lambda: 0.0)
    return HealthMonitor(fleet, **kwargs)


class TestDeadlines:
    def test_bad_deadlines_rejected(self):
        with pytest.raises(ValueError):
            HealthMonitor(_fleet(), suspect_after=5.0, dead_after=5.0)
        with pytest.raises(ValueError):
            HealthMonitor(_fleet(), suspect_after=0.0, dead_after=5.0)

    def test_first_poll_starts_grace_period(self):
        fleet = _fleet()
        monitor = _monitor(fleet)
        # Never beaten: first poll registers, no transition.
        assert monitor.poll(now=100.0) == ()
        assert fleet.get("a").health is Health.HEALTHY
        # Within the suspect deadline: still quiet.
        assert monitor.poll(now=102.9) == ()

    def test_missed_heartbeats_suspect_then_dead(self):
        fleet = _fleet()
        monitor = _monitor(fleet)
        for server_id in ("a", "b", "c"):
            monitor.heartbeat(server_id, now=0.0)
        monitor.heartbeat("b", now=5.0)
        transitions = monitor.poll(now=5.0)
        assert {t.server_id for t in transitions} == {"a", "c"}
        assert all(t.current is Health.SUSPECT for t in transitions)
        # a and c stay silent past the dead deadline; b keeps beating.
        monitor.heartbeat("b", now=11.0)
        transitions = monitor.poll(now=11.0)
        assert {t.server_id for t in transitions} == {"a", "c"}
        assert all(t.current is Health.DEAD for t in transitions)
        assert fleet.get("b").health is Health.HEALTHY

    def test_heartbeat_recovers_suspect(self):
        fleet = _fleet()
        monitor = _monitor(fleet)
        monitor.heartbeat("a", now=0.0)
        monitor.poll(now=4.0)
        assert fleet.get("a").health is Health.SUSPECT
        recovery = monitor.heartbeat("a", now=4.5)
        assert recovery is not None
        assert recovery.previous is Health.SUSPECT
        assert recovery.current is Health.HEALTHY
        assert fleet.get("a").health is Health.HEALTHY

    def test_draining_exempt_from_deadlines(self):
        fleet = _fleet()
        monitor = _monitor(fleet)
        monitor.heartbeat("a", now=0.0)
        fleet.mark_draining("a")
        assert monitor.poll(now=50.0) == ()
        assert fleet.get("a").health is Health.DRAINING

    def test_dead_heartbeat_rejected(self):
        fleet = _fleet()
        monitor = _monitor(fleet)
        monitor.heartbeat("a", now=0.0)
        monitor.poll(now=20.0)
        assert fleet.get("a").health is Health.DEAD
        with pytest.raises(StateError):
            monitor.heartbeat("a", now=21.0)


class TestTransitions:
    def test_every_transition_returned_once(self):
        """What ``poll()`` and ``heartbeat()`` return, concatenated, is
        every health change the fleet went through, each exactly once."""
        fleet = _fleet()
        monitor = _monitor(fleet)
        returned = []
        monitor.heartbeat("a", now=0.0)
        returned += monitor.poll(now=4.0)  # b and c start their grace here
        returned += monitor.poll(now=4.0)  # nothing new to report
        returned.append(monitor.heartbeat("a", now=4.5))
        returned += monitor.poll(now=8.0)
        returned += monitor.poll(now=14.5)
        assert [
            (t.server_id, t.previous, t.current, t.at) for t in returned
        ] == [
            ("a", Health.HEALTHY, Health.SUSPECT, 4.0),
            ("a", Health.SUSPECT, Health.HEALTHY, 4.5),
            ("a", Health.HEALTHY, Health.SUSPECT, 8.0),
            ("b", Health.HEALTHY, Health.SUSPECT, 8.0),
            ("c", Health.HEALTHY, Health.SUSPECT, 8.0),
            ("a", Health.SUSPECT, Health.DEAD, 14.5),
            ("b", Health.SUSPECT, Health.DEAD, 14.5),
            ("c", Health.SUSPECT, Health.DEAD, 14.5),
        ]
        assert monitor.poll(now=100.0) == ()

    def test_clock_stamps_transitions_without_now(self):
        now = [0.0]
        fleet = _fleet()
        monitor = _monitor(fleet, clock=lambda: now[0])
        monitor.heartbeat("a")
        now[0] = 3.5
        transitions = monitor.poll()
        assert {(t.server_id, t.at) for t in transitions} == {("a", 3.5)}
        now[0] = 4.0
        recovery = monitor.heartbeat("a")
        assert (recovery.current, recovery.at) == (Health.HEALTHY, 4.0)

    def test_forget_restarts_the_grace_period(self):
        """A server re-admitted under its old id after ``forget`` gets
        the first-watch grace period, not its stale deadline."""
        fleet = FleetState([ServerSpec("a")])
        monitor = _monitor(fleet)
        monitor.heartbeat("a", now=0.0)
        fleet.remove("a")
        monitor.forget("a")
        fleet.add(ServerSpec("a"))
        assert monitor.poll(now=20.0) == ()
        assert fleet.get("a").health is Health.HEALTHY
        transitions = monitor.poll(now=23.0)
        assert [(t.server_id, t.current) for t in transitions] == [
            ("a", Health.SUSPECT)
        ]

    def test_poll_prunes_servers_removed_from_the_fleet(self):
        """A removal outside the monitor heals at the next poll: the
        re-admitted server starts a fresh grace period there."""
        fleet = FleetState([ServerSpec("a")])
        monitor = _monitor(fleet)
        monitor.heartbeat("a", now=0.0)
        fleet.remove("a")
        assert monitor.poll(now=1.0) == ()
        fleet.add(ServerSpec("a"))
        assert monitor.poll(now=20.0) == ()
        assert fleet.get("a").health is Health.HEALTHY
