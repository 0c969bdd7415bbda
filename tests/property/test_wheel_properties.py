"""Property tests: the timer wheel must replay the heap's pop order.

The engine's split schedule (near heap + :class:`TimerWheel`) replaced
a single binary heap.  These tests drive randomized schedule / cancel /
re-arm sequences — including equal-timestamp batches and pooled-event
recycling — against a plain sorted reference and require identical pop
order, tie-breaks included.

``GRANULARITY`` is shrunk for the duration of each test (the wheel
reads the module global at call time) so ordinary test-sized schedules
exercise L1 cascades, overflow retargets, and window re-seating instead
of living entirely inside one L0 window.
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.wheel as wheel_mod
from repro.sim.engine import Simulator
from repro.sim.wheel import TimerWheel, _COMPACT_MIN


@contextmanager
def granularity(value):
    """Temporarily shrink the wheel slot width to force cascades."""
    saved = wheel_mod.GRANULARITY
    wheel_mod.GRANULARITY = value
    try:
        yield
    finally:
        wheel_mod.GRANULARITY = saved


class _Stub:
    """Minimal event carcass: just the cancellation flag the wheel and
    drain path inspect (3 == cancelled, matching Event._state)."""

    __slots__ = ("_state",)

    def __init__(self):
        self._state = 0


#: (op, raw, scale-index) tuples.  The raw value doubles as a
#: timestamp seed (scaled to land on L0 / L1 / overflow) and as the
#: pick index for cancels.  Small raw ranges make equal timestamps
#: common, exercising the tie-break contract.
_SCALES = (1.0, 16.0, 300.0, 4099.0, 70000.0)

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["push", "push", "push", "cancel", "drain"]),
              st.integers(min_value=0, max_value=60),
              st.integers(min_value=0, max_value=len(_SCALES) - 1)),
    min_size=1, max_size=160)


class TestWheelMatchesHeapOrder:
    @given(ops_strategy, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_pop_order_identical_to_sorted_reference(self, ops, with_inf):
        """Randomized push/cancel/drain: concatenated batch pops (each
        batch heap-sorted, dead entries skipped) equal the reference
        heap's total order over the surviving entries."""
        with granularity(16.0):
            wheel = TimerWheel()
            reference = []  # live entries, insertion order
            popped = []
            seq = 0
            # The engine adopts each batch's ``end`` as its routing
            # boundary; entries below it go to the near heap, so the
            # wheel only ever sees pushes at or past the boundary.
            boundary = wheel.near_end
            if with_inf:  # idle-watchdog sentinel rides the overflow
                seq += 1
                entry = (float("inf"), seq, _Stub())
                wheel.push(entry)
                reference.append(entry)
            for op, raw, scale_idx in ops:
                if op == "push":
                    when = max(float(raw) * _SCALES[scale_idx],
                               boundary, wheel.near_end)
                    seq += 1
                    entry = (when, seq, _Stub())
                    wheel.push(entry)
                    reference.append(entry)
                elif op == "cancel" and reference:
                    entry = reference.pop(raw % len(reference))
                    entry[2]._state = 3
                    # Eager removal or lazy mark — either way the entry
                    # must never reach the popped order.
                    wheel.discard(entry[2], entry[0])
                else:  # drain one batch
                    batch = wheel.next_batch()
                    if batch is None:
                        assert not reference
                        continue
                    entries, end = batch
                    boundary = end
                    live = sorted(e for e in entries if e[2]._state != 3)
                    popped.extend(live)
                    for e in live:
                        # Half-open window, except the terminal batch
                        # of ``inf`` sentinels which arrives closed.
                        assert e[0] < end or e[0] == end == float("inf")
                        reference.remove(e)
                    assert all(e[0] >= end for e in reference)
            while True:  # final drain
                batch = wheel.next_batch()
                if batch is None:
                    break
                entries, _end = batch
                live = sorted(e for e in entries if e[2]._state != 3)
                popped.extend(live)
                for e in live:
                    reference.remove(e)
            assert not reference
            # Finite entries must replay the heap's exact total order.
            # ``inf`` sentinels all land in the terminal batch; their
            # relative order is unspecified (nothing ever fires at
            # infinity) — they just must all come last.
            inf = float("inf")
            first_inf = next((i for i, e in enumerate(popped)
                              if e[0] == inf), len(popped))
            assert all(e[0] == inf for e in popped[first_inf:])
            finite = popped[:first_inf]
            assert finite == sorted(finite)

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_equal_timestamp_batches_pop_in_seq_order(self, sizes):
        """Entries sharing a timestamp come back in tie-key order (keys
        permuted against insertion order, as a tie-break policy does),
        and one instant's batch never splits across windows."""
        with granularity(16.0):
            wheel = TimerWheel()
            seq = 0
            expected = []
            for i, size in enumerate(sizes):
                when = wheel.near_end + float(i) * 997.0
                for _ in range(size + 1):
                    seq += 1
                    # An odd multiplier mod 2**16 is a bijection: keys
                    # stay unique but leave insertion order.
                    entry = (when, (seq * 40503) & 0xFFFF, _Stub())
                    wheel.push(entry)
                    expected.append(entry)
            expected.sort()
            popped = []
            while True:
                batch = wheel.next_batch()
                if batch is None:
                    break
                entries, end = batch
                whens = {e[0] for e in entries}
                for e in expected:  # no instant straddles the boundary
                    if e[0] in whens:
                        assert e[0] < end
                popped.extend(sorted(entries))
            assert popped == expected


class TestWheelCancellation:
    def test_level_resident_discard_is_eager(self):
        with granularity(16.0):
            wheel = TimerWheel()
            ev = _Stub()
            when = wheel.near_end + 100.0
            wheel.push((when, 1, ev))
            assert wheel.count == 1
            ev._state = 3
            assert wheel.discard(ev, when) is True
            assert wheel.count == 0
            assert list(wheel.entries()) == []

    def test_overflow_discard_compacts_once_dead_dominates(self):
        with granularity(16.0):
            wheel = TimerWheel()
            far = wheel.overflow_from + 10.0
            events = []
            for i in range(3 * _COMPACT_MIN):
                ev = _Stub()
                events.append(ev)
                wheel.push((far + i, i + 1, ev))
            for ev in events[:-1]:
                ev._state = 3
                assert wheel.discard(ev, far) is True
            # Lazy marks must have been compacted away: only the one
            # live entry (plus at most a compaction-window of dead
            # stragglers) remains resident.
            assert wheel.count <= _COMPACT_MIN + 1
            batches = []
            while True:
                batch = wheel.next_batch()
                if batch is None:
                    break
                batches.extend(e for e in batch[0] if e[2]._state != 3)
            assert [e[2] for e in batches] == [events[-1]]


class TestEngineOrderUnderRecycling:
    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e7,
                                        allow_nan=False,
                                        allow_infinity=False),
                              st.booleans()),
                    min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_timeout_cancel_rearm_fires_in_stable_order(self, plan):
        """Full-engine check: randomized delays (spanning near heap,
        both wheel levels, and overflow), cancellations, and re-armed
        replacements fire in stable (time, creation) order.  Two drain
        cycles run the second on recycled pooled objects."""
        with granularity(64.0):
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
