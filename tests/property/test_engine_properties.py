"""Property-based tests for the event kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator, _COMPACT_MIN
from repro.sim.events import _Deferred


delays = st.lists(st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=200)


class TestTimeMonotonicity:
    @given(delays)
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, ds):
        sim = Simulator()
        fire_times = []
        for d in ds:
            ev = sim.timeout(d)
            ev.callbacks.append(lambda _e: fire_times.append(sim.now))
        sim.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(ds)

    @given(delays)
    @settings(max_examples=60, deadline=None)
    def test_clock_ends_at_max_delay(self, ds):
        sim = Simulator()
        for d in ds:
            sim.timeout(d)
        sim.run()
        assert sim.now == max(ds)

    @given(delays)
    @settings(max_examples=40, deadline=None)
    def test_event_count_conserved(self, ds):
        sim = Simulator()
        for d in ds:
            sim.timeout(d)
        sim.run()
        assert sim.event_count == len(ds)


class TestSimultaneityFifo:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_equal_time_events_fifo_by_creation(self, groups):
        """Among events scheduled for the same instant, creation order
        is execution order — the determinism guarantee."""
        sim = Simulator()
        order = []
        for index, delay in enumerate(groups):
            ev = sim.timeout(float(delay))
            ev.callbacks.append(lambda _e, i=index: order.append(i))
        sim.run()
        # Stable sort by delay must reproduce the observed order.
        expected = [i for _d, i in
                    sorted((d, i) for i, d in enumerate(groups))]
        # sorted() on (delay, index) is exactly time-then-creation.
        assert order == expected


class TestFifoAcrossDrains:
    @given(st.lists(st.integers(min_value=1, max_value=40),
                    min_size=2, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_equal_timestamp_fifo_across_batches(self, sizes):
        """Batches of same-instant timeouts, each drained before the
        next is armed, fire in creation order."""
        order = []
        sim = Simulator()
        index = 0
        for batch, size in enumerate(sizes):
            # Distinct gaps per batch keep batches at distinct instants;
            # within a batch every event lands on the same timestamp.
            for k in range(size):
                ev = sim.timeout(float(batch + 1))
                ev.callbacks.append(
                    lambda _e, i=index + k: order.append(i))
            index += size
            sim.run()
        assert order == list(range(sum(sizes)))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_mixed_delay_order_matches_stable_sort(self, ds):
        """Mixed delays fire in stable (time, creation) order across two
        full drain cycles."""
        sim = Simulator()
        for cycle in range(2):
            order = []
            start = sim.now  # nonzero on cycle 2: delays may absorb
            for index, delay in enumerate(ds):
                ev = sim.timeout(delay)
                ev.callbacks.append(lambda _e, i=index: order.append(i))
            sim.run()
            expected = [i for _t, i in
                        sorted((start + d, i) for i, d in enumerate(ds))]
            assert order == expected, f"cycle {cycle} reordered"

    @given(st.lists(st.sampled_from(["timeout", "event", "defer", "run"]),
                    min_size=1, max_size=80),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_every_entry_fires_once(self, ops, delay_mod):
        """Timeouts, succeeded events and deferred cells armed between
        drains each fire exactly once, and each counts as one event."""
        sim = Simulator()
        fired = []
        for step, op in enumerate(ops):
            delay = float(step % (delay_mod + 1))
            if op == "timeout":
                sim.timeout(delay).callbacks.append(
                    lambda _e, i=step: fired.append(i))
            elif op == "event":
                ev = sim.event(label="prop")
                ev.callbacks.append(lambda _e, i=step: fired.append(i))
                ev.succeed(delay=delay)
            elif op == "defer":
                sim.defer(delay, fired.append, step)
            else:
                sim.run()
        sim.run()
        armed = [i for i, op in enumerate(ops) if op != "run"]
        assert sorted(fired) == armed
        assert sim.event_count == len(armed)


class TestProcessScheduling:
    @given(st.lists(st.floats(min_value=0.1, max_value=1000.0,
                              allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_sequential_timeouts_sum(self, ds):
        sim = Simulator()

        def runner(sim):
            for d in ds:
                yield sim.timeout(d)
            return sim.now

        proc = sim.process(runner(sim))
        sim.run()
        assert proc.value <= sum(ds) * (1 + 1e-9)
        assert proc.value >= sum(ds) * (1 - 1e-9)


class TestEngineOrderAcrossDrains:
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e7,
                                        allow_nan=False,
                                        allow_infinity=False),
                              st.booleans()),
                    min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_timeout_cancel_rearm_fires_in_stable_order(self, plan):
        """Full-engine check: randomized delays, cancellations, and
        re-armed replacements fire in stable (time, creation) order,
        over two drain cycles."""
        sim = Simulator()
        for cycle in range(2):
            order = []
            start = sim.now
            handles = []
            created = []  # (when, tag) in creation == seq order
            for i, (delay, cancel) in enumerate(plan):
                ev = sim.timeout(delay)
                ev.callbacks.append(lambda _e, i=i: order.append(i))
                handles.append((ev, cancel))
                created.append((start + delay, i, cancel))
            for ev, cancel in handles:
                if cancel:
                    assert ev.cancel() is True
            for j, (ev, cancel) in enumerate(handles):
                if cancel:  # re-arm a replacement for each cancel
                    redo = sim.timeout(float(j) * 31.0)
                    redo.callbacks.append(
                        lambda _e, j=j: order.append(1000 + j))
                    created.append((start + float(j) * 31.0,
                                    1000 + j, False))
            sim.run()
            expected = [tag for _w, tag, cancel in
                        sorted(created, key=lambda c: c[0])
                        if not cancel]
            assert order == expected, f"cycle {cycle} reordered"


#: Delays on a coarse 5 ns grid, so equal timestamps are common.
_grid_delays = st.integers(min_value=0, max_value=12).map(lambda k: k * 5.0)

kernel_ops = st.lists(st.one_of(
    st.tuples(st.just("timeout"), _grid_delays),
    st.tuples(st.just("defer"), _grid_delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=500)),
    st.tuples(st.just("rearm"), st.integers(min_value=0, max_value=500)),
    st.tuples(st.just("advance"), _grid_delays),
    # The retry-guard pattern: arm far-future guards and cancel them
    # at once, enough of them to trigger compaction.
    st.tuples(st.just("storm"), st.integers(min_value=1,
                                            max_value=3 * _COMPACT_MIN)),
), min_size=1, max_size=120)


class TestOneHeapSchedule:
    @given(kernel_ops)
    @settings(max_examples=80, deadline=None)
    def test_survivors_fire_in_when_creation_order(self, ops):
        """Random timeouts, defers, cancels, re-arms and partial runs:
        every survivor fires once, in ``(when, creation)`` order, no
        cancelled entry fires, and dead entries never outgrow the
        compaction window."""
        sim = Simulator()
        fired = []
        created = {}     # tag -> when; tags count up in creation order
        handles = []     # (tag, timeout) pairs cancel/rearm pick from
        cancelled = set()

        def arm(kind, delay):
            tag = len(created)
            created[tag] = sim.now + delay
            if kind == "defer":
                sim.defer(delay, fired.append, tag)
            else:
                ev = sim.timeout(delay)
                ev.callbacks.append(lambda _e, tag=tag: fired.append(tag))
                handles.append((tag, ev))

        def check_window():
            dead = sum(1 for entry in sim._heap
                       if entry[2].__class__ is not _Deferred
                       and entry[2].cancelled)
            assert dead == sim._cancelled
            assert dead <= max(_COMPACT_MIN, sim.pending_count() - dead)

        for op, arg in ops:
            if op in ("timeout", "defer"):
                arm(op, arg)
            elif op == "advance":
                sim.run(until=sim.now + arg)
            elif op == "storm":
                for _ in range(arg):
                    tag = len(created)
                    created[tag] = sim.now + 1e9
                    ev = sim.timeout(1e9)
                    ev.callbacks.append(lambda _e, tag=tag: fired.append(tag))
                    assert ev.cancel() is True
                    cancelled.add(tag)
            elif handles:
                tag, ev = handles[arg % len(handles)]
                alive = tag not in fired and tag not in cancelled
                assert ev.cancel() is alive
                if alive:
                    cancelled.add(tag)
                if op == "rearm":
                    arm("timeout", float(arg % 13) * 5.0)
            check_window()
        sim.run()
        check_window()
        assert sim.pending_count() == 0
        assert not cancelled.intersection(fired)
        survivors = sorted((when, tag) for tag, when in created.items()
                           if tag not in cancelled)
        assert fired == [tag for _when, tag in survivors]


def _replay(ops, with_inf, drain):
    """Run the *ops* program on a fresh simulator, finishing with
    *drain*; return what fired (with the clock at each firing), the
    final clock and the event count."""
    sim = Simulator()
    fired = []
    handles = []
    tags = iter(range(len(ops) + 1))
    if with_inf:  # an idle watchdog that only an unbounded drain reaches
        ev = sim.timeout_at(float("inf"))
        ev.callbacks.append(lambda _e: fired.append(("watchdog", sim.now)))
    for op, arg in ops:
        tag = next(tags)
        if op == "timeout":
            ev = sim.timeout(arg)
            ev.callbacks.append(
                lambda _e, tag=tag: fired.append((tag, sim.now)))
            handles.append(ev)
        elif op == "defer":
            sim.defer(arg, lambda tag=tag: fired.append((tag, sim.now)))
        elif op == "advance":
            sim.run(until=sim.now + arg)
        elif op == "storm":
            for _ in range(arg):
                sim.timeout(1e9).cancel()
        elif handles:
            handles[arg % len(handles)].cancel()
            if op == "rearm":
                ev = sim.timeout(float(arg % 13) * 5.0)
                ev.callbacks.append(
                    lambda _e, tag=tag: fired.append((tag, sim.now)))
                handles.append(ev)
    drain(sim)
    assert sim.pending_count() == 0
    return fired, sim.now, sim.event_count


def _drain_by_step(sim):
    while True:
        before = sim.event_count
        try:
            sim.step()
        except SimulationError:  # nothing live left to dispatch
            assert sim.event_count == before
            return
        assert sim.event_count == before + 1


class TestDrainPathsAgree:
    @given(kernel_ops, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_step_drain_replays_run(self, ops, with_inf):
        """Draining one ``step()`` at a time replays ``run()`` exactly:
        same callbacks in the same order, same final clock (``inf``
        once a watchdog fires), same event count; cancelled stragglers
        and compaction leave no trace on either path."""
        by_run = _replay(ops, with_inf, lambda sim: sim.run())
        by_step = _replay(ops, with_inf, _drain_by_step)
        assert by_step == by_run
        assert (by_run[1] == float("inf")) is with_inf
