"""Unit tests for the centralized task queue (§3.4.1)."""

import pytest

from repro.runtime.request import Request, RequestState
from repro.runtime.taskqueue import QueuePolicy, TaskQueue


class TestFifo:
    def test_fifo_order(self, sim):
        queue = TaskQueue(sim)
        requests = [Request(float(i + 1)) for i in range(3)]
        for req in requests:
            assert queue.enqueue(req)
        out = [queue.try_dequeue()[1] for _ in range(3)]
        assert out == requests

    def test_enqueue_sets_state_and_stamp(self, sim):
        queue = TaskQueue(sim)
        req = Request(100.0)
        queue.enqueue(req)
        assert req.state is RequestState.QUEUED
        assert "queued" in req.stamps

    def test_preempted_request_goes_to_tail(self, sim):
        """§3.4.1: 'the dispatcher adds the request to the end of the
        task queue.'"""
        queue = TaskQueue(sim)
        first = Request(100.0)
        preempted = Request(100.0)
        preempted.preemptions = 1
        queue.enqueue(first)
        queue.enqueue(preempted)
        assert queue.try_dequeue()[1] is first

    def test_blocking_dequeue(self, sim):
        queue = TaskQueue(sim)
        got = []

        def dispatcher(sim):
            req = yield queue.dequeue()
            got.append((sim.now, req))

        sim.process(dispatcher(sim))
        req = Request(10.0)
        sim.defer(50.0, lambda: queue.enqueue(req))
        sim.run()
        assert got == [(50.0, req)]

    def test_try_dequeue_empty(self, sim):
        assert TaskQueue(sim).try_dequeue() == (False, None)

    def test_peek(self, sim):
        queue = TaskQueue(sim)
        assert queue.peek() is None
        req = Request(10.0)
        queue.enqueue(req)
        assert queue.peek() is req
        assert len(queue) == 1

    def test_cancel_dequeue(self, sim):
        queue = TaskQueue(sim)
        ev = queue.dequeue()
        queue.cancel_dequeue(0)
        queue.enqueue(Request(10.0))
        assert len(queue) == 1
        assert not ev.triggered

    def test_cancel_dequeue_withdraws_only_that_rank(self, sim):
        queue = TaskQueue(sim)
        first = queue.dequeue(1)
        second = queue.dequeue(2)
        queue.cancel_dequeue(1)
        request = Request(10.0)
        queue.enqueue(request)
        assert not first.triggered
        assert second.triggered and second.value is request


class TestCapacity:
    def test_drop_when_full(self, sim):
        queue = TaskQueue(sim, capacity=2)
        assert queue.enqueue(Request(1.0))
        assert queue.enqueue(Request(1.0))
        overflow = Request(1.0)
        assert not queue.enqueue(overflow)
        assert overflow.state is RequestState.DROPPED
        assert queue.dropped == 1

    def test_handoff_bypasses_capacity(self, sim):
        """A waiting dispatcher takes the request directly, so a full
        buffer does not matter."""
        queue = TaskQueue(sim, capacity=1)
        queue.enqueue(Request(1.0))
        got = []

        def dispatcher(sim):
            got.append((yield queue.dequeue()))
            got.append((yield queue.dequeue()))

        sim.process(dispatcher(sim))
        sim.run()
        # Queue drained; a waiter is pending. This enqueue hands over
        # directly even though capacity is 1 and depth currently 0.
        assert queue.enqueue(Request(2.0))
        sim.run()
        assert len(got) == 2

    def test_max_depth_statistic(self, sim):
        queue = TaskQueue(sim)
        for _ in range(5):
            queue.enqueue(Request(1.0))
        queue.try_dequeue()
        assert queue.max_depth == 5


class TestSrpt:
    def test_shortest_remaining_first(self, sim):
        queue = TaskQueue(sim, policy=QueuePolicy.SRPT)
        long_req = Request(1000.0)
        short_req = Request(10.0)
        mid_req = Request(100.0)
        for req in (long_req, short_req, mid_req):
            queue.enqueue(req)
        order = [queue.try_dequeue()[1] for _ in range(3)]
        assert order == [short_req, mid_req, long_req]

    def test_srpt_uses_remaining_not_total(self, sim):
        queue = TaskQueue(sim, policy=QueuePolicy.SRPT)
        mostly_done = Request(1000.0)
        mostly_done.run_for(995.0)  # 5 remaining
        fresh = Request(10.0)
        queue.enqueue(fresh)
        queue.enqueue(mostly_done)
        assert queue.try_dequeue()[1] is mostly_done

    def test_srpt_ties_fifo(self, sim):
        queue = TaskQueue(sim, policy=QueuePolicy.SRPT)
        a, b = Request(10.0), Request(10.0)
        queue.enqueue(a)
        queue.enqueue(b)
        assert queue.try_dequeue()[1] is a
