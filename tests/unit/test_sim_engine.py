"""Unit tests for the discrete-event loop."""

import hashlib
import json
import math

import pytest

from repro.analysis.sanitizer import SanitizedSimulator
from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventState
from repro.sim.primitives import Signal, Store


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


class TestDeferHelpers:
    def test_defer_runs_function_with_args(self, sim):
        hits = []
        sim.defer(15.0, lambda tag: hits.append((sim.now, tag)), "x")
        sim.run()
        assert hits == [(15.0, "x")]

    def test_defer_at_absolute_time(self, sim):
        sim.timeout(5.0)
        hits = []
        sim.defer_at(40.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [40.0]

    def test_defer_at_in_past_rejected(self, sim):
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.defer_at(5.0, lambda: None)

    def test_zero_delay_runs_at_now(self, sim):
        sim.timeout(7.0)
        sim.run()
        hits = []
        sim.defer(0.0, lambda: hits.append(sim.now))
        sim.defer_at(sim.now, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [7.0, 7.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.defer(-1.0, lambda: None)

    def test_same_instant_in_scheduling_order_with_timeouts(self, sim):
        """defer and timeout draw tie keys from the same counter, so
        entries for one instant run in the order they were scheduled."""
        order = []
        sim.defer(5.0, order.append, "defer-1")
        sim.timeout(5.0).callbacks.append(lambda ev: order.append("timeout"))
        sim.defer_at(5.0, order.append, "defer-2")
        sim.run()
        assert order == ["defer-1", "timeout", "defer-2"]


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


class TestTimeoutEvents:
    @pytest.mark.parametrize("make", [
        lambda sim: sim.timeout(4.0),
        lambda sim: sim.timeout_at(4.0),
        lambda sim: sim.timeout_ranked(4.0, 0),
    ], ids=["timeout", "timeout_at", "timeout_ranked"])
    def test_builds_a_plain_triggered_event(self, sim, make):
        """Each timeout factory skips ``Event.__init__`` yet sets every
        slot it would: a plain triggered Event with no callbacks that
        fires once, at its time."""
        ev = make(sim)
        assert type(ev) is Event
        assert ev.state is EventState.TRIGGERED
        assert ev.ok and ev.value is None
        assert ev.callbacks == [] and ev.label == ""
        hits = []
        ev.callbacks.append(lambda e: hits.append(sim.now))
        sim.run()
        assert hits == [4.0]
        assert ev.processed

    def test_held_timeout_keeps_its_value(self, sim):
        """A timeout the caller still holds keeps its own value after it
        fires, and later timeouts are new objects with their own."""
        held = sim.timeout(1.0, value="mine")
        for _ in range(8):
            sim.timeout(1.0, value="other")
        sim.run()
        assert held.processed and held.value == "mine"
        fresh = sim.timeout(2.0, value="new")
        assert fresh is not held
        fired = []
        fresh.callbacks.append(lambda ev: fired.append(ev.value))
        sim.run()
        assert fired == ["new"]
        assert held.value == "mine"


class TestNanDelays:
    """NaN (and negative) delays fail at the call site with
    SchedulingError instead of deep inside the schedule heap."""

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_timeout(self, sim, bad):
        with pytest.raises(SchedulingError):
            sim.timeout(bad)

    def test_timeout_after_a_drained_run(self, sim):
        sim.timeout(1.0)
        sim.run()
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


class TestNoReentry:
    """A callback may not drive the loop it runs inside: ``step()`` and
    ``run_until_event()`` are refused like a nested ``run()``, and the
    outer run keeps its clock and its count."""

    @pytest.mark.parametrize("drive", [
        lambda sim, later: sim.step(),
        lambda sim, later: sim.run_until_event(later),
        lambda sim, later: sim.run(),
    ], ids=["step", "run_until_event", "run"])
    def test_nested_drive_raises(self, drive):
        sim = Simulator()
        seen = []
        later = sim.timeout(3.0)

        def callback(_ev):
            with pytest.raises(SimulationError, match="not reentrant"):
                drive(sim, later)
            seen.append(sim.now)

        sim.timeout(1.0).callbacks.append(callback)
        sim.timeout(5.0)
        sim.run()
        assert seen == [1.0]
        assert later.processed
        assert sim.event_count == 3
        assert sim.now == 5.0


def _log_at(log, sim, tag):
    return lambda *_: log.append((tag, sim.now))


def _wake_try_put(sim, log):
    store = Store(sim)

    def waiter():
        yield store.get()
        log.append(("woken", sim.now))
    sim.process(waiter())
    return lambda: store.try_put("x")


def _wake_fire(sim, log):
    sig = Signal(sim)

    def waiter():
        yield sig.wait()
        log.append(("woken", sim.now))
    sim.process(waiter())
    return sig.fire


def _wake_get(sim, log):
    store = Store(sim)
    store.try_put("x")

    def get():
        store.get().callbacks.append(_log_at(log, sim, "woken"))
    return get


@pytest.mark.parametrize("sim_cls", [Simulator, SanitizedSimulator])
@pytest.mark.parametrize("arm", [_wake_try_put, _wake_fire, _wake_get],
                         ids=["try_put", "fire", "get"])
def test_same_instant_fifo_after_a_run_stopped_at_until(sim_cls, arm):
    """Once ``run(until=...)`` has moved the clock to its horizon,
    a timeout(0) and a store/signal wake-up scheduled after it
    at the same instant still dispatch in scheduling order."""
    sim = sim_cls()
    log = []
    wake = arm(sim, log)
    sim.run(until=100_000.0)
    sim.timeout(0).callbacks.append(_log_at(log, sim, "timeout"))
    wake()
    sim.run()
    assert log == [("timeout", 100_000.0), ("woken", 100_000.0)]


class TestObserver:
    """``Simulator.observer`` runs once per counted event on every entry
    point into the loop, and never for a skipped cancelled entry."""

    @staticmethod
    def _observed():
        sim = Simulator()
        calls = []
        sim.observer = lambda: calls.append(sim.now)
        return sim, calls

    def test_one_call_per_counted_event_on_every_entry_point(self):
        sim, calls = self._observed()

        def sleeper(sim):
            for _ in range(3):
                yield 2.0

        sim.process(sleeper(sim))
        sim.defer(1.0, lambda: None)
        target = sim.timeout(4.0)
        sim.timeout(9.0)
        sim.step()
        assert len(calls) == sim.event_count == 1
        sim.run_until_event(target)
        assert len(calls) == sim.event_count
        sim.run(until=5.0)
        assert len(calls) == sim.event_count
        sim.run()
        # start, three sleeps, the process's own completion, the
        # deferred call and two timeouts
        assert len(calls) == sim.event_count == 8
        assert calls == sorted(calls) and calls[-1] == 9.0

    def test_never_called_for_a_cancelled_skip(self):
        sim, calls = self._observed()
        sim.timeout(1.0).cancel()
        sim.event().succeed(delay=2.0).cancel()
        sim.timeout(3.0)
        sim.run()
        assert calls == [3.0]
        assert sim.event_count == 1
        sim.timeout(1.0).cancel()
        with pytest.raises(SimulationError, match="empty schedule"):
            sim.step()
        assert calls == [3.0]

    def test_max_events_counts_observed_events(self):
        sim, calls = self._observed()
        for i in range(5):
            sim.timeout(float(i))
        with pytest.raises(SimulationError, match="max_events=2"):
            sim.run(max_events=2)
        assert len(calls) == sim.event_count == 3


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
