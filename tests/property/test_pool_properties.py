"""Property tests for the kernel's event freelist/pools (hypothesis).

The run loop recycles exact-class :class:`Timeout`/:class:`Event`
objects it holds the last reference to, plus every ``defer()`` cell.
Recycling must be invisible: equal-timestamp FIFO order survives any
interleaving of fresh and pooled objects, an object is never handed
out while it still sits in the schedule, and ``Simulator.close()``
drops every pooled object.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout


#: Batches of same-instant timeouts, sized to cycle objects through the
#: pools repeatedly (each batch reuses the previous batch's recycles).
batch_sizes = st.lists(st.integers(min_value=1, max_value=40),
                       min_size=2, max_size=12)

delays = st.lists(st.floats(min_value=0.0, max_value=1e5,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=120)


class TestFifoStabilityAcrossRecycling:
    @given(batch_sizes)
    @settings(max_examples=50, deadline=None)
    def test_equal_timestamp_fifo_survives_pooled_batches(self, sizes):
        """Each batch fires in creation order even when its event
        objects are recycled carcasses of earlier batches."""
        order = []
        sim = Simulator()

        def run_batch(start, size, gap):
            for k in range(size):
                ev = sim.timeout(gap)  # same instant within the batch
                ev.callbacks.append(
                    lambda _e, i=start + k: order.append(i))

        index = 0
        for batch, size in enumerate(sizes):
            # Distinct gaps per batch keep batches at distinct instants;
            # within a batch every event lands on the same timestamp.
            run_batch(index, size, float(batch + 1))
            index += size
            sim.run()  # drain, recycling this batch's events
        assert order == list(range(sum(sizes)))

    @given(delays)
    @settings(max_examples=50, deadline=None)
    def test_mixed_delay_order_matches_stable_sort(self, ds):
        """Pooled and fresh events together still fire in stable
        (time, creation) order across two full drain cycles."""
        sim = Simulator()
        for cycle in range(2):  # second cycle runs on recycled objects
            order = []
            start = sim.now  # nonzero on cycle 2: delays may absorb
            for index, delay in enumerate(ds):
                ev = sim.timeout(delay)
                ev.callbacks.append(lambda _e, i=index: order.append(i))
            sim.run()
            expected = [i for _t, i in
                        sorted((start + d, i) for i, d in enumerate(ds))]
            assert order == expected, f"cycle {cycle} reordered"


class TestNoReuseWhileScheduled:
    @given(st.lists(st.sampled_from(["timeout", "event", "defer", "run"]),
                    min_size=1, max_size=80),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_pools_never_hold_a_scheduled_object(self, ops, delay_mod):
        """Invariant: nothing in a freelist is also in the heap.

        A pooled object that is still scheduled would fire twice (or
        fire as somebody else's event) — the one corruption pooling
        must never introduce.
        """
        sim = Simulator()

        def check():
            scheduled = {id(entry[2]) for entry in sim.pending_entries()}
            pooled = ({id(ev) for ev in sim._timeout_pool}
                      | {id(ev) for ev in sim._event_pool}
                      | {id(cell) for cell in sim._deferred_pool})
            assert not (scheduled & pooled)

        for step, op in enumerate(ops):
            delay = float(step % (delay_mod + 1))
            if op == "timeout":
                sim.timeout(delay)
            elif op == "event":
                sim.event(label="prop").succeed(delay=delay)
            elif op == "defer":
                sim.defer(delay, lambda: None)
            else:
                sim.run()
            check()
        sim.run()
        check()

    def test_held_timeout_is_not_recycled(self):
        """An event the caller still references survives processing
        untouched — only kernel-owned carcasses are pooled."""
        sim = Simulator()
        held = sim.timeout(1.0, value="mine")
        for _ in range(8):
            sim.timeout(1.0)
        sim.run()
        assert held.processed and held.value == "mine"
        assert all(ev is not held for ev in sim._timeout_pool)
        # The next pooled allocation must hand out a different object:
        # `held` is still live and must never be aliased.
        fresh = sim.timeout(2.0)
        assert fresh is not held
        sim.run()

    def test_recycled_timeout_arrives_clean(self):
        """A pooled object is re-issued with empty callbacks and the
        caller's value, never a previous life's state."""
        sim = Simulator()
        sim.timeout(1.0, value="old").callbacks.append(lambda _e: None)
        sim.run()
        assert sim.pool_sizes()["timeout"] >= 1
        reused = sim.timeout(3.0, value="new")
        assert reused.value == "new"  # the new life's value, not "old"
        assert reused.callbacks == []
        fired = []
        reused.callbacks.append(lambda ev: fired.append(ev.value))
        sim.run()
        assert fired == ["new"]


class TestPoolDrainOnTeardown:
    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_close_empties_every_pool(self, n):
        sim = Simulator()
        for i in range(n):
            sim.timeout(float(i % 7))
            sim.defer(float(i % 5), lambda: None)
            sim.event(label="drain").succeed()
        sim.run()
        # Something must actually have been pooled for the drain to
        # mean anything.
        assert sum(sim.pool_sizes().values()) > 0
        sim.close()
        assert sim.pool_sizes() == {"timeout": 0, "event": 0,
                                    "deferred": 0}

    def test_close_keeps_simulator_usable(self):
        sim = Simulator()
        for _ in range(10):
            sim.timeout(1.0)
        sim.run()
        sim.close()
        fired = []
        ev = sim.timeout(1.0, value=7)
        ev.callbacks.append(lambda e: fired.append(e.value))
        sim.run()
        assert fired == [7]
        assert isinstance(ev, Timeout) and isinstance(ev, Event)
