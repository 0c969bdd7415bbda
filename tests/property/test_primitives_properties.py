"""Property-based tests for Store FIFO conservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.primitives import Store


class TestStoreConservation:
    @given(st.lists(st.integers(), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_everything_put_comes_out_in_order(self, items):
        sim = Simulator()
        store = Store(sim)
        out = []

        def consumer(sim):
            for _ in range(len(items)):
                out.append((yield store.get()))

        sim.process(consumer(sim))
        for i, item in enumerate(items):
            sim.defer(float(i), lambda it=item: store.put(it))
        sim.run()
        assert out == items

    @given(st.lists(st.integers(), min_size=1, max_size=100),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_bounded_store_never_exceeds_capacity(self, items, capacity):
        sim = Simulator()
        store = Store(sim, capacity=capacity)
        accepted = sum(1 for item in items if store.try_put(item))
        assert accepted == min(len(items), capacity)
        assert len(store) <= capacity

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_ops_conserve_items(self, ops):
        """Any interleaving of puts (True) and gets (False) conserves
        items: puts == gets_served + remaining."""
        sim = Simulator()
        store = Store(sim)
        puts = 0
        served = 0
        for op in ops:
            if op:
                store.try_put(puts)
                puts += 1
            else:
                ok, _item = store.try_get()
                if ok:
                    served += 1
        assert puts == served + len(store)
