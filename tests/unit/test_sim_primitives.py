"""Unit tests for Store and Signal."""

import pytest

from repro.errors import SimulationError
from repro.sim.primitives import Signal, Store


class TestStoreBasics:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append(item)

        sim.process(consumer(sim))
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append((sim.now, item))

        sim.process(consumer(sim))
        sim.defer(25.0, lambda: store.put("late"))
        sim.run()
        assert got == [(25.0, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        got = []

        def consumer(sim):
            for _ in range(5):
                got.append((yield store.get()))

        sim.process(consumer(sim))
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_waiter_order(self, sim):
        store = Store(sim)
        got = []

        def consumer(tag, sim):
            item = yield store.get()
            got.append((tag, item))

        sim.process(consumer("first", sim))
        sim.process(consumer("second", sim))
        sim.defer(5.0, lambda: store.put("a"))
        sim.defer(6.0, lambda: store.put("b"))
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_try_get_nonblocking(self, sim):
        store = Store(sim)
        assert store.try_get() == (False, None)
        store.put(7)
        assert store.try_get() == (True, 7)

    def test_peek_leaves_item(self, sim):
        store = Store(sim)
        store.put("head")
        assert store.peek() == "head"
        assert len(store) == 1

    def test_peek_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            Store(sim).peek()

    def test_max_depth_tracking(self, sim):
        store = Store(sim)
        for i in range(3):
            store.put(i)
        store.try_get()
        assert store.max_depth == 3
        assert store.total_put == 3


class TestBoundedStore:
    def test_try_put_drops_when_full(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_blocking_put_waits_for_space(self, sim):
        store = Store(sim, capacity=1)
        store.put("first")
        done = []

        def producer(sim):
            yield store.put("second")
            done.append(sim.now)

        def consumer(sim):
            yield sim.timeout(30.0)
            yield store.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert done == [30.0]
        assert len(store) == 1

    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_cancel_get_removes_waiter(self, sim):
        store = Store(sim)
        ev = store.get()
        store.cancel_get(ev)
        store.put("x")
        # The cancelled waiter must not have consumed the item.
        assert len(store) == 1
        assert not ev.triggered


class TestSignal:
    def test_fire_wakes_all_waiters(self, sim):
        signal = Signal(sim)
        woken = []

        def waiter(tag, sim):
            value = yield signal.wait()
            woken.append((tag, value))

        sim.process(waiter("a", sim))
        sim.process(waiter("b", sim))
        sim.defer(10.0, lambda: signal.fire("go"))
        sim.run()
        assert sorted(woken) == [("a", "go"), ("b", "go")]

    def test_fire_with_no_waiters(self, sim):
        signal = Signal(sim)
        assert signal.fire() == 0
        assert signal.fired == 1

    def test_waits_are_one_shot(self, sim):
        signal = Signal(sim)
        wakeups = []

        def waiter(sim):
            yield signal.wait()
            wakeups.append(sim.now)

        sim.process(waiter(sim))
        sim.defer(5.0, lambda: signal.fire())
        sim.defer(15.0, lambda: signal.fire())
        sim.run()
        # The process waited once; the second fire finds no waiters.
        assert wakeups == [5.0]
