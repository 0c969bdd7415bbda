"""Unit tests for the BaseSystem plumbing."""

import pytest

from repro.errors import SimulationError
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import Request, RequestState
from repro.systems.base import BaseSystem
from repro.units import us


class _MiniSystem(BaseSystem):
    """Serves every request instantly (no workers)."""

    name = "mini"

    def _start(self) -> None:
        pass

    def _server_ingress(self, request):
        request.stamp("nic_rx", self.sim.now)
        self.respond(request)


class TestClientWire:
    def test_wire_charged_both_ways(self, sim, rngs, metrics):
        system = _MiniSystem(sim, rngs, metrics, client_wire_ns=us(1.0))
        system.start()
        request = Request(service_ns=0.0, arrival_ns=0.0)
        metrics.record_arrival(request)
        system.ingress(request)
        sim.run()
        # 1 us there + 1 us back.
        assert request.latency_ns == pytest.approx(us(2.0))
        assert request.stamps["nic_rx"] == pytest.approx(us(1.0))

    def test_zero_wire_synchronous(self, sim, rngs, metrics):
        system = _MiniSystem(sim, rngs, metrics, client_wire_ns=0.0)
        system.start()
        request = Request(service_ns=0.0, arrival_ns=0.0)
        system.ingress(request)
        assert request.state is RequestState.COMPLETED

    def test_negative_wire_rejected(self, sim, rngs, metrics):
        with pytest.raises(SimulationError):
            _MiniSystem(sim, rngs, metrics, client_wire_ns=-1.0)


class TestLifecycle:
    def test_ingress_before_start_rejected(self, sim, rngs, metrics):
        system = _MiniSystem(sim, rngs, metrics)
        with pytest.raises(SimulationError):
            system.ingress(Request(1.0))

    def test_double_start_rejected(self, sim, rngs, metrics):
        system = _MiniSystem(sim, rngs, metrics)
        system.start()
        with pytest.raises(SimulationError):
            system.start()

    def test_completion_recorded_in_metrics(self, sim, rngs, metrics):
        system = _MiniSystem(sim, rngs, metrics, client_wire_ns=0.0)
        system.start()
        request = Request(service_ns=0.0, arrival_ns=0.0)
        metrics.record_arrival(request)
        system.ingress(request)
        sim.run()
        assert metrics.completed == 1

    def test_drop_recorded(self, sim, rngs, metrics):
        system = _MiniSystem(sim, rngs, metrics)
        system.start()
        request = Request(service_ns=0.0, arrival_ns=0.0)
        system.drop(request)
        assert request.state is RequestState.DROPPED
        assert metrics.dropped == 1

    def test_completion_records_latency_sample(self, sim, rngs, metrics):
        system = _MiniSystem(sim, rngs, metrics, client_wire_ns=us(1.0))
        system.start()
        request = Request(service_ns=0.0, arrival_ns=0.0)
        system.ingress(request)
        sim.run()
        assert metrics.completed == 1
        assert metrics.latency.samples() == [request.latency_ns]
