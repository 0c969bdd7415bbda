"""Unit tests for the load-feedback channel (§2.3, §3.2-2, §5.1-2)."""

import pytest

from repro.config import ARM_HOST_ONE_WAY_NS
from repro.core.feedback import (
    CoreStatusBoard,
    FeedbackChannel,
    WorkerStatus,
)
from repro.errors import ConfigError


class TestStatusBoard:
    def test_initial_state_all_idle(self, sim):
        board = CoreStatusBoard(sim, n_workers=4)
        assert board.idle_workers() == [0, 1, 2, 3]
        assert board.oldest_running() is None

    def test_apply_updates_entry(self, sim):
        board = CoreStatusBoard(sim, n_workers=2)
        board.apply(WorkerStatus(worker_id=1, busy=True, outstanding=3,
                                 running_since=5.0))
        status = board.get(1)
        assert status.busy
        assert status.outstanding == 3
        assert board.updates == 1

    def test_unknown_worker_rejected(self, sim):
        board = CoreStatusBoard(sim, n_workers=2)
        with pytest.raises(ConfigError):
            board.apply(WorkerStatus(worker_id=9))

    def test_least_outstanding(self, sim):
        board = CoreStatusBoard(sim, n_workers=3)
        board.apply(WorkerStatus(worker_id=0, outstanding=5))
        board.apply(WorkerStatus(worker_id=1, outstanding=1))
        board.apply(WorkerStatus(worker_id=2, outstanding=3))
        assert board.least_outstanding() == 1

    def test_oldest_running_identifies_preemption_target(self, sim):
        """The abstract's 'execution status of active requests': the
        NIC knows which request has run longest."""
        board = CoreStatusBoard(sim, n_workers=3)
        board.apply(WorkerStatus(worker_id=0, busy=True, running_since=100.0))
        board.apply(WorkerStatus(worker_id=1, busy=True, running_since=20.0))
        board.apply(WorkerStatus(worker_id=2, busy=False))
        assert board.oldest_running() == 1

    def test_idle_workers_ordered_by_staleness(self, sim):
        board = CoreStatusBoard(sim, n_workers=2)
        sim.defer(10.0, lambda: board.apply(WorkerStatus(worker_id=1)))
        sim.defer(20.0, lambda: board.apply(WorkerStatus(worker_id=0)))
        sim.run()
        assert board.idle_workers() == [1, 0]

    def test_needs_at_least_one_worker(self, sim):
        with pytest.raises(ConfigError):
            CoreStatusBoard(sim, n_workers=0)


class TestChannels:
    @pytest.mark.parametrize("latency_ns", [ARM_HOST_ONE_WAY_NS, 300.0],
                             ids=["packet", "cxl"])
    def test_update_lands_after_latency(self, sim, latency_ns):
        """The prototype's 2.56 µs notification packets, or a CXL-class
        store visible a few hundred ns later (§5.1-2)."""
        board = CoreStatusBoard(sim, n_workers=1)
        applied = []
        channel = FeedbackChannel(sim, board, latency_ns,
                                  on_update=lambda s: applied.append(sim.now))
        channel.send(WorkerStatus(worker_id=0, busy=True))
        sim.run()
        assert applied == [pytest.approx(latency_ns)]
        assert board.get(0).busy

    def test_staleness_window(self, sim):
        """Until the update lands, the board holds the stale value —
        the fundamental gap informed scheduling must tolerate."""
        board = CoreStatusBoard(sim, n_workers=1)
        channel = FeedbackChannel(sim, board, ARM_HOST_ONE_WAY_NS)
        channel.send(WorkerStatus(worker_id=0, busy=True))
        # Immediately after send, the NIC still believes the worker idle.
        assert not board.get(0).busy
        sim.run()
        assert board.get(0).busy

    def test_negative_latency_rejected(self, sim):
        board = CoreStatusBoard(sim, n_workers=1)
        with pytest.raises(ConfigError):
            FeedbackChannel(sim, board, latency_ns=-1.0)

    def test_sent_counter(self, sim):
        board = CoreStatusBoard(sim, n_workers=1)
        channel = FeedbackChannel(sim, board, 300.0)
        channel.send(WorkerStatus(worker_id=0))
        channel.send(WorkerStatus(worker_id=0))
        assert channel.sent == 2
