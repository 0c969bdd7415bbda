"""Unit tests for one-shot events and timeouts."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import EventState


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, sim):
        ev = sim.event()
        assert ev.state is EventState.PENDING
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed("result")
        assert ev.triggered
        assert ev.ok
        assert ev.value == "result"

    def test_succeed_twice_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SchedulingError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_fail_carries_exception(self, sim):
        ev = sim.event()
        exc = RuntimeError("x")
        ev.fail(exc)
        assert ev.triggered
        assert not ev.ok
        assert ev.value is exc

    def test_delayed_succeed(self, sim):
        ev = sim.event()
        hits = []
        ev.callbacks.append(lambda _e: hits.append(sim.now))
        ev.succeed(delay=12.0)
        sim.run()
        assert hits == [12.0]

    def test_callbacks_cleared_after_processing(self, sim):
        ev = sim.event()
        ev.succeed()
        sim.run()
        assert ev.processed
        assert ev.callbacks is None


class TestTimeout:
    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, sim):
        hits = []
        ev = sim.timeout(0.0, value="v")
        ev.callbacks.append(lambda e: hits.append(e.value))
        sim.run()
        assert hits == ["v"]
        assert sim.now == 0.0

    def test_timeout_value_passthrough(self, sim):
        def waiter(sim):
            got = yield sim.timeout(5.0, value=99)
            return got

        proc = sim.process(waiter(sim))
        sim.run()
        assert proc.value == 99
