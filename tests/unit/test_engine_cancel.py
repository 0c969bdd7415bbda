"""Cancellation memory-retention regression tests.

The engine skips cancelled entries at dispatch and compacts them out
of the heap once they dominate it.  Before that fix, a cancel-heavy arm/cancel loop (retry
timers, watchdogs) grew the schedule without bound: every cancelled
entry sat in the heap until its original deadline arrived.
"""

import pytest

from repro.sim.engine import Simulator, _COMPACT_MIN


class TestCancelledEntriesAreReclaimed:
    def test_arm_cancel_loop_keeps_pending_bounded(self):
        """The retry-timer pattern: arm a guard, cancel it, repeat.
        Pending entries must stay O(compaction window), not O(loop)."""
        sim = Simulator()
        high_water = 0
        for i in range(20_000):
            # Near, mid-range and far-future deadlines alike.
            delay = (float(i % 7), 163_840.0, 4_915_200.0, 1e12)[i % 4]
            sim.timeout(delay).cancel()
            high_water = max(high_water, sim.pending_count())
        # The heap tolerates one compaction window of dead entries
        # before rebuilding.
        assert high_water <= _COMPACT_MIN + 1
        sim.run()
        assert sim.pending_count() == 0

    def test_cancelled_timeout_never_fires(self):
        sim = Simulator()
        fired = []
        live = sim.timeout(5.0)
        live.callbacks.append(lambda _e: fired.append("live"))
        for delay in (1.0, 5.0, 32_768.0, 1e12):
            dead = sim.timeout(delay)
            dead.callbacks.append(lambda _e: fired.append("dead"))
            assert dead.cancel() is True
        sim.run()
        assert fired == ["live"]
        assert sim.now == 5.0  # clock never advanced to dead deadlines

    def test_cancel_interleaved_with_live_work_preserves_order(self):
        """Heavy cancellation around live timers must not perturb the
        survivors' fire order or drop any of them."""
        sim = Simulator()
        order = []
        for i in range(50):
            ev = sim.timeout(float(100 - i))  # reverse creation order
            ev.callbacks.append(lambda _e, i=i: order.append(i))
            for _ in range(40):
                sim.timeout(float(50 + i)).cancel()
        sim.run()
        assert order == list(range(49, -1, -1))
        assert sim.pending_count() == 0

    def test_cancel_after_partial_run(self):
        """Entries cancelled mid-run by a callback are skipped at
        dispatch."""
        sim = Simulator()
        fired = []
        early = sim.timeout(1.0)
        later = sim.timeout(2.0)
        later.callbacks.append(lambda _e: fired.append("later"))
        early.callbacks.append(lambda _e: later.cancel())
        tail = sim.timeout(3.0)
        tail.callbacks.append(lambda _e: fired.append("tail"))
        sim.run()
        assert fired == ["tail"]

    def test_run_drains_the_cancel_count(self):
        """run() must forget each cancelled entry it skips,
        as step() does; a stale count would fire compaction on a heap
        that is mostly live."""
        sim = Simulator()
        live = [sim.timeout(float(i % 7)) for i in range(4 * _COMPACT_MIN)]
        for i in range(2 * _COMPACT_MIN):
            sim.timeout(float(i % 7)).cancel()
        # Below the compaction trigger: the dead entries stay queued.
        assert sim._cancelled == 2 * _COMPACT_MIN
        sim.run()
        assert all(ev.processed for ev in live)
        assert sim._cancelled == 0


def _drain_with_step(sim):
    while sim.peek() != float("inf"):
        sim.step()


def _drain_until_event(sim, last):
    sim.run_until_event(last)


class TestCancelCount:
    """The count that triggers compaction tracks the dead entries
    still queued, whichever entry point drives the loop."""

    @staticmethod
    def _arm(sim):
        """Queue live and cancelled entries, both Timeouts and plain
        events, below the compaction trigger."""
        live = [sim.timeout(float(i % 7)) for i in range(4 * _COMPACT_MIN)]
        for i in range(_COMPACT_MIN):
            sim.timeout(float(i % 7)).cancel()
            sim.event().succeed(delay=float(i % 5)).cancel()
        assert sim._cancelled == 2 * _COMPACT_MIN
        last = sim.timeout(8.0)
        return live + [last]

    @pytest.mark.parametrize("drain", [
        lambda sim, last: sim.run(),
        lambda sim, last: _drain_with_step(sim),
        _drain_until_event,
    ], ids=["run", "step", "run-until-event"])
    def test_every_drain_path_uncounts_skipped_entries(self, drain):
        sim = Simulator()
        live = self._arm(sim)
        drain(sim, live[-1])
        assert all(ev.processed for ev in live)
        assert sim._cancelled == 0

    def test_partial_run_leaves_count_of_dead_entries_queued(self):
        sim = Simulator()
        self._arm(sim)
        sim.run(until=2.5)
        dead = sum(1 for entry in sim._heap if entry[2].cancelled)
        assert dead > 0
        assert sim._cancelled == dead

    def test_compaction_fires_only_on_a_mostly_dead_heap(self):
        """A retry-guard loop that arms a near timeout per request and
        cancels most of them: every compaction must find more than half
        the heap dead, as its trigger intends."""
        fractions = []

        class Recording(Simulator):
            def _compact_near(self):
                heap = self._heap
                dead = sum(1 for entry in heap if entry[2].cancelled)
                fractions.append(dead / len(heap))
                super()._compact_near()

        sim = Recording()

        def client(sim, offset):
            for i in range(2_000):
                guard = sim.timeout(50.0 + offset)
                yield sim.timeout(1.0)
                if i % 4:
                    guard.cancel()

        for offset in range(8):
            sim.process(client(sim, float(offset)))
        sim.run()
        assert fractions, "the loop should trigger compaction"
        assert min(fractions) > 0.5
        assert sim._cancelled == 0
