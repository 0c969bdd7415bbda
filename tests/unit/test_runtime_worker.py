"""Unit tests for the worker execution state machine."""

import pytest

from repro.config import PreemptionConfig
from repro.core.preemption import PreemptionDriver
from repro.errors import SimulationError
from repro.hw.cpu import CpuCore
from repro.runtime.context import ContextCosts
from repro.runtime.request import Request, RequestState
from repro.runtime.worker import ExecutionOutcome, WorkerCore
from repro.units import us

ZERO_COSTS = ContextCosts(spawn_ns=0.0, save_ns=0.0, restore_ns=0.0)


def _worker(sim, preemption_config=None, costs=ZERO_COSTS):
    thread = CpuCore(sim, "c0", clock_ghz=2.3).threads[0]
    preemption = None
    if preemption_config is not None:
        preemption = PreemptionDriver(thread, preemption_config)
    return WorkerCore(sim, worker_id=0, thread=thread,
                      context_costs=costs, preemption=preemption)


def _drive(sim, worker, request, results):
    def loop():
        outcome = yield from worker.run_request(request)
        results.append(outcome)

    process = sim.process(loop())
    worker.attach_process(process)
    return process


class TestRunToCompletion:
    def test_short_request_finishes(self, sim):
        worker = _worker(sim)
        request = Request(service_ns=us(2.0))
        results = []
        _drive(sim, worker, request, results)
        sim.run()
        assert results == [ExecutionOutcome.FINISHED]
        assert request.finished_work
        assert worker.completed == 1
        assert sim.now == pytest.approx(us(2.0))

    def test_requires_attached_process(self, sim):
        worker = _worker(sim)
        request = Request(service_ns=100.0)

        def loop():
            yield from worker.run_request(request)

        proc = sim.process(loop())
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, SimulationError)

    def test_context_spawned_once(self, sim):
        worker = _worker(sim)
        request = Request(service_ns=100.0)
        results = []
        _drive(sim, worker, request, results)
        sim.run()
        assert request.context is not None
        assert request.context.saves == 0

    def test_context_costs_charged(self, sim):
        costs = ContextCosts(spawn_ns=150.0, save_ns=0.0, restore_ns=0.0)
        worker = _worker(sim, costs=costs)
        request = Request(service_ns=1000.0)
        _drive(sim, worker, request, [])
        sim.run()
        assert sim.now == pytest.approx(1150.0)

    def test_service_time_accrues_to_thread(self, sim):
        worker = _worker(sim)
        request = Request(service_ns=500.0)
        _drive(sim, worker, request, [])
        sim.run()
        assert worker.thread.busy_ns == pytest.approx(500.0)
        assert worker.service_ns == pytest.approx(500.0)


class TestPreemption:
    SLICE = PreemptionConfig(time_slice_ns=us(10.0), mechanism="dune")

    def test_long_request_preempted_at_slice(self, sim):
        worker = _worker(sim, self.SLICE)
        request = Request(service_ns=us(100.0))
        results = []
        _drive(sim, worker, request, results)
        sim.run()
        assert results == [ExecutionOutcome.PREEMPTED]
        assert request.state is RequestState.PREEMPTED
        assert request.preemptions == 1
        # Exactly one slice of work was done.
        assert request.remaining_ns == pytest.approx(us(90.0), rel=0.01)

    def test_short_request_not_preempted(self, sim):
        worker = _worker(sim, self.SLICE)
        request = Request(service_ns=us(3.0))
        results = []
        _drive(sim, worker, request, results)
        sim.run()
        assert results == [ExecutionOutcome.FINISHED]
        assert request.preemptions == 0
        assert worker.preemption.cancelled == 1

    def test_preempted_request_context_saved(self, sim):
        worker = _worker(sim, self.SLICE)
        request = Request(service_ns=us(100.0))
        _drive(sim, worker, request, [])
        sim.run()
        assert request.context.saves == 1

    def test_resume_restores_context(self, sim):
        worker = _worker(sim, self.SLICE)
        request = Request(service_ns=us(15.0))
        results = []

        def loop():
            outcome = yield from worker.run_request(request)
            results.append(outcome)
            if outcome is ExecutionOutcome.PREEMPTED:
                outcome = yield from worker.run_request(request)
                results.append(outcome)

        process = sim.process(loop())
        worker.attach_process(process)
        sim.run()
        assert results == [ExecutionOutcome.PREEMPTED,
                           ExecutionOutcome.FINISHED]
        assert request.context.restores == 1
        assert request.finished_work

    def test_receipt_cost_charged_on_preemption(self, sim):
        worker = _worker(sim, self.SLICE)
        request = Request(service_ns=us(100.0))
        done_at = []

        def loop():
            yield from worker.run_request(request)
            done_at.append(sim.now)

        process = sim.process(loop())
        worker.attach_process(process)
        sim.run()
        # slice + receipt (zero context costs; the slice countdown
        # starts at the arm register write, overlapping the arm cost).
        expected = us(10.0) + worker.preemption.receipt_cost_ns
        assert done_at[0] == pytest.approx(expected, rel=0.01)

    def test_preemptions_counted(self, sim):
        worker = _worker(sim, self.SLICE)
        request = Request(service_ns=us(100.0))
        _drive(sim, worker, request, [])
        sim.run()
        assert worker.preempted == 1
        assert worker.completed == 0


class TestWaitAccounting:
    def test_begin_end_wait(self, sim):
        worker = _worker(sim)
        worker.begin_wait()
        sim.defer(100.0, worker.end_wait)
        sim.run()
        assert worker.wait_ns == pytest.approx(100.0)

    def test_double_begin_keeps_first(self, sim):
        worker = _worker(sim)
        worker.begin_wait()
        sim.defer(50.0, worker.begin_wait)
        sim.defer(100.0, worker.end_wait)
        sim.run()
        assert worker.wait_ns == pytest.approx(100.0)

    def test_end_without_begin_noop(self, sim):
        worker = _worker(sim)
        worker.end_wait()
        assert worker.wait_ns == 0.0

    def test_crash_while_waiting_stops_the_wait(self, sim):
        """A core that dies waiting accrues the wait up to its death and
        none after it, however long the run goes on."""
        worker = _worker(sim)
        worker.begin_wait()
        sim.defer(100.0, worker.crash)
        sim.defer(200.0, worker.begin_wait)
        sim.defer(500.0, worker.end_wait)
        sim.run()
        assert worker.wait_ns == pytest.approx(100.0)
        assert worker._wait_started is None


class TestSpuriousInterrupts:
    def test_interrupt_between_requests_is_spurious(self, sim):
        """A late packet interrupt with nothing running must not crash
        the worker loop (§3.4.4's unnecessary-preemption artifact)."""
        worker = _worker(sim, self.SLICE if False else
                         PreemptionConfig(time_slice_ns=us(10.0),
                                          mechanism="dune"))
        request = Request(service_ns=us(1.0))
        _drive(sim, worker, request, [])
        sim.run()
        # Fire the delivery hook manually with nothing running.
        worker._on_interrupt(cause=None)
        assert worker.spurious_interrupts == 1
