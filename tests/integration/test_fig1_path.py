"""Integration test: a request walks Figure 1's five numbered steps.

❶ packet received by the SmartNIC / networking subsystem
❷ networker passes the request to the dispatcher
❸ dispatcher hands the request to the worker through the Stingray
❹ worker preempted if the time slice expires
❺ worker notifies the dispatcher (finished or preempted); finished
   requests get a response to the client
"""

from repro.config import PreemptionConfig, ShinjukuOffloadConfig
from repro.metrics.collector import MetricsCollector
from repro.runtime.request import Request
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.systems.shinjuku_offload import ShinjukuOffloadSystem
from repro.units import ms, us


def _run_single_request(service_ns, slice_ns=us(10.0)):
    sim = Simulator()
    rngs = RngRegistry(1)
    metrics = MetricsCollector(sim)
    config = ShinjukuOffloadConfig(
        workers=2, outstanding_per_worker=2,
        preemption=PreemptionConfig(time_slice_ns=slice_ns))
    system = ShinjukuOffloadSystem(sim, rngs, metrics, config=config)
    system.start()
    request = Request(service_ns=service_ns, arrival_ns=0.0)
    metrics.record_arrival(request)
    system.ingress(request)
    sim.run(until=ms(5.0))
    return request, system, metrics


class TestShortRequestPath:
    def test_steps_1_2_3_5_in_order(self):
        request, _system, metrics = _run_single_request(us(2.0))
        # ❶ the packet entered the NIC
        assert "nic_rx" in request.stamps
        # ❷ the networker parsed it
        assert "networker_done" in request.stamps
        # ❸ the dispatcher assigned and sent it
        assert "dispatched" in request.stamps
        assert "first_run" in request.stamps
        # ❺ finished: notify + client response
        assert request.completion_ns is not None
        order = [request.stamps["nic_rx"], request.stamps["networker_done"],
                 request.stamps["dispatched"], request.stamps["first_run"],
                 request.completion_ns]
        assert order == sorted(order)
        assert metrics.completed == 1

    def test_dispatcher_counts_pipeline_actions(self):
        """The queue manager assigned it once and the RX core parsed one
        "finished" notification."""
        _request, system, _metrics = _run_single_request(us(2.0))
        dispatcher = system.dispatcher
        assert dispatcher.dispatched == 1
        assert dispatcher.completions == 1
        assert dispatcher.preemption_returns == 0
        assert dispatcher.tracker.total == 0

    def test_no_preemption_for_short_request(self):
        request, _system, _metrics = _run_single_request(us(2.0))
        assert request.preemptions == 0


class TestLongRequestPath:
    def test_step_4_preemption_round_trip(self):
        """A 25 µs request under a 10 µs slice is preempted twice and
        re-dispatched through the central queue each time."""
        request, system, metrics = _run_single_request(us(25.0))
        assert request.completion_ns is not None
        assert request.preemptions == 2
        dispatcher = system.dispatcher
        # ❺ two preempted notifications flowed back, then one finished.
        assert dispatcher.preemption_returns == 2
        assert dispatcher.completions == 1
        # ❸ dispatched three times (initial + 2 re-dispatches).
        assert dispatcher.dispatched == 3
        assert metrics.completed == 1

    def test_context_saved_and_restored_per_preemption(self):
        request, _system, _metrics = _run_single_request(us(25.0))
        assert request.context.saves == 2
        assert request.context.restores == 2

    def test_latency_accounts_for_round_trips(self):
        """Each preemption adds a full NIC round trip, so the 25 µs
        request takes far longer than its service time."""
        request, _system, _metrics = _run_single_request(us(25.0))
        assert request.latency_ns > us(25.0) + 2 * 2 * 2560.0
