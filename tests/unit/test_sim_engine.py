"""Unit tests for the discrete-event loop."""

import hashlib
import json
import math

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.primitives import Store


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=500.0).now == 500.0

    def test_timeout_advances_clock(self, sim):
        sim.timeout(25.0)
        sim.run()
        assert sim.now == 25.0

    def test_run_until_leaves_clock_at_horizon(self, sim):
        sim.timeout(10.0)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_run_until_does_not_process_later_events(self, sim):
        fired = []
        ev = sim.timeout(50.0)
        ev.callbacks.append(lambda _e: fired.append(sim.now))
        sim.run(until=20.0)
        assert fired == []
        assert sim.now == 20.0
        sim.run()
        assert fired == [50.0]

    def test_run_until_in_past_rejected(self, sim):
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.run(until=5.0)


class TestOrdering:
    def test_fifo_among_simultaneous_events(self, sim):
        order = []
        for tag in ("a", "b", "c"):
            ev = sim.timeout(10.0)
            ev.callbacks.append(lambda _e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_earlier_events_first(self, sim):
        order = []
        late = sim.timeout(20.0)
        late.callbacks.append(lambda _e: order.append("late"))
        early = sim.timeout(5.0)
        early.callbacks.append(lambda _e: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_determinism_across_runs(self):
        def build_and_run():
            sim = Simulator()
            order = []
            for i in range(100):
                ev = sim.timeout((i * 7) % 13)
                ev.callbacks.append(lambda _e, i=i: order.append(i))
            sim.run()
            return order

        assert build_and_run() == build_and_run()


class TestStepAndPeek:
    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_returns_next_time(self, sim):
        sim.timeout(30.0)
        sim.timeout(10.0)
        assert sim.peek() == 10.0

    def test_step_on_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_event_count_increments(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.event_count == 5


class TestCallHelpers:
    def test_call_in_runs_function(self, sim):
        hits = []
        sim.call_in(15.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [15.0]

    def test_call_at_absolute_time(self, sim):
        sim.timeout(5.0)
        hits = []
        sim.call_at(40.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [40.0]

    def test_call_at_in_past_rejected(self, sim):
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(5.0, lambda: None)


class TestTimeoutAt:
    def test_fires_at_exactly_when(self, sim):
        sim.timeout(21.7)
        sim.run()
        # 21.7 + (63.9 - 21.7) != 63.9 in binary floating point;
        # timeout_at must land on 63.9 itself.
        assert 21.7 + (63.9 - 21.7) != 63.9
        ev = sim.timeout_at(63.9, value="v")
        hits = []
        ev.callbacks.append(lambda e: hits.append((sim.now, e.value)))
        sim.run()
        assert hits == [(63.9, "v")]

    def test_past_rejected(self, sim):
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.timeout_at(5.0)

    def test_can_be_cancelled(self, sim):
        ev = sim.timeout_at(7.0)
        hits = []
        ev.callbacks.append(lambda _e: hits.append(sim.now))
        assert ev.cancel()
        sim.run()
        assert hits == []


class TestNanDelays:
    """NaN (and negative) delays fail at the call site with
    SchedulingError instead of deep inside the timer wheel."""

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_timeout(self, sim, bad):
        with pytest.raises(SchedulingError):
            sim.timeout(bad)

    def test_timeout_after_pool_warmup(self, sim):
        sim.timeout(1.0)
        sim.run()
        assert sim.pool_sizes()["timeout"] == 1
        with pytest.raises(SchedulingError):
            sim.timeout(math.nan)

    def test_timeout_at(self, sim):
        with pytest.raises(SchedulingError):
            sim.timeout_at(math.nan)

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_defer(self, sim, bad):
        with pytest.raises(SchedulingError):
            sim.defer(bad, lambda: None)

    def test_defer_at(self, sim):
        with pytest.raises(SchedulingError):
            sim.defer_at(math.nan, lambda: None)

    def test_succeed_and_fail_delay(self, sim):
        with pytest.raises(SchedulingError):
            sim.event().succeed(delay=math.nan)
        with pytest.raises(SchedulingError):
            sim.event().fail(RuntimeError("x"), delay=math.nan)

    def test_nan_sleep_fails_its_process_not_the_run(self, sim):
        def sleeper(sim):
            yield math.nan

        proc = sim.process(sleeper(sim))
        sim.run()  # must not raise
        assert not proc.ok
        assert isinstance(proc.value, SchedulingError)
        assert sim.pending_count() == 0


class TestRunGuards:
    def test_max_events_guard_trips(self, sim):
        def forever(sim):
            while True:
                yield sim.timeout(1.0)

        sim.process(forever(sim))
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_run_until_event_returns_value(self, sim):
        def worker(sim):
            yield sim.timeout(3.0)
            return "payload"

        proc = sim.process(worker(sim))
        assert sim.run_until_event(proc) == "payload"

    def test_run_until_event_raises_failure(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("boom")

        proc = sim.process(bad(sim))
        with pytest.raises(ValueError, match="boom"):
            sim.run_until_event(proc)

    def test_run_until_event_drained_schedule(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_event(ev)

    def test_run_is_not_reentrant(self, sim):
        def reenter(sim):
            yield sim.timeout(1.0)
            sim.run()

        proc = sim.process(reenter(sim))
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, SimulationError)


def _timeout_storm(n):
    """Raw schedule/dispatch with heavy heap churn."""
    sim = Simulator()
    for i in range(n):
        sim.timeout(float(i % 97))
    sim.run()
    return ["timeouts", sim.event_count, sim.now]


def _store_pingpong(n_pairs):
    """The generator trampoline every worker/dispatcher loop runs."""
    sim = Simulator()
    store = Store(sim)

    def producer(sim):
        for i in range(n_pairs):
            yield sim.timeout(1.0)
            store.put(i)

    def consumer(sim):
        total = 0
        for _ in range(n_pairs):
            total += yield store.get()
        return total

    sim.process(producer(sim))
    consumer_proc = sim.process(consumer(sim))
    sim.run()
    return ["pingpong", sim.event_count, sim.now, consumer_proc.value]


def _defer_drain(n):
    """Many same-instant callbacks, FIFO within each batch."""
    sim = Simulator()
    fired = []
    for i in range(n):
        sim.defer(float(i % 13), (lambda k: (lambda: fired.append(k)))(i))
    sim.run()
    return ["defer", sim.event_count, sim.now, len(fired), fired[0],
            fired[-1]]


#: Each witness with its input and the exact result it must give.
WITNESSES = [
    (_timeout_storm, 20_000, ["timeouts", 20000, 96.0]),
    (_store_pingpong, 4_000, ["pingpong", 12004, 4000.0, 7998000]),
    (_defer_drain, 10_000, ["defer", 10000, 12.0, 10000, 0, 9996]),
]
WITNESS_IDS = ["timeout-storm", "store-pingpong", "defer-drain"]


class TestKernelWitness:
    """Three kernel workloads with no system model, no workload and no
    RNG: their event counts, end clocks and results are exact, so any
    change to dispatch order or event accounting moves the digest."""

    #: SHA-256 over the JSON of the three witnesses below.
    DIGEST = ("a11b7b238d8aaf466c174e276a670d509305f3bad188f4003e5e4d80"
              "d1f0f41c")

    def test_microbench_witnesses(self):
        witnesses = [_timeout_storm(20_000), _store_pingpong(4_000),
                     _defer_drain(10_000)]
        assert witnesses == [
            ["timeouts", 20000, 96.0],
            ["pingpong", 12004, 4000.0, 7998000],
            ["defer", 10000, 12.0, 10000, 0, 9996],
        ]
        payload = json.dumps(witnesses, sort_keys=True)
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() \
            == self.DIGEST

    @pytest.mark.parametrize("workload, size, expected", WITNESSES,
                             ids=WITNESS_IDS)
    def test_witness_is_exact(self, workload, size, expected):
        assert workload(size) == expected

    @pytest.mark.parametrize("workload, size, expected", WITNESSES,
                             ids=WITNESS_IDS)
    def test_perturbed_size_moves_witness(self, workload, size, expected):
        """The pins witness their inputs: one more unit of work shows."""
        assert workload(size + 1) != expected
