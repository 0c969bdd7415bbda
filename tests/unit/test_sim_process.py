"""Unit tests for generator-based processes and interrupts."""

import math
from fractions import Fraction

import pytest

from repro.errors import ProcessInterrupt, SchedulingError, SimulationError
from repro.sim.engine import Simulator


class TestBasicExecution:
    def test_process_returns_value(self, sim):
        def worker(sim):
            yield sim.timeout(10.0)
            return 42

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.ok
        assert proc.value == 42

    def test_process_sequences_timeouts(self, sim):
        times = []

        def worker(sim):
            for delay in (5.0, 10.0, 15.0):
                yield sim.timeout(delay)
                times.append(sim.now)

        sim.process(worker(sim))
        sim.run()
        assert times == [5.0, 15.0, 30.0]

    def test_needs_a_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    @pytest.mark.parametrize("delay", [42, 42.0])
    def test_yielding_a_delay_sleeps_like_a_timeout(self, delay):
        """``yield d`` resumes at the same instant, with the same value
        and after the same number of kernel events as
        ``yield sim.timeout(d)``."""
        def trace(use_timeout):
            sim = Simulator()
            seen = []

            def sleeper(sim):
                for _ in range(3):
                    got = yield (sim.timeout(delay) if use_timeout
                                 else delay)
                    seen.append((sim.now, got))
                return sim.now

            proc = sim.process(sleeper(sim))
            sim.run()
            return seen, proc.value, sim.event_count

        assert trace(False) == trace(True)
        assert trace(False)[0] == [(42.0, None), (84.0, None),
                                   (126.0, None)]

    @pytest.mark.parametrize("delay", [3.0, 50_000.0, 5e9])
    def test_every_sleep_push_matches_a_timeout(self, delay):
        """A sleep pushed after an Event wait, after a sleep (both
        inline in ``_resume``) and on the slow path for other reals
        (``_wait_on``) orders same-instant ties and counts events
        exactly as ``yield sim.timeout(d)``, for short, mid-range and
        far-future delays alike.  Process ``t`` always waits on
        timeouts and ties with the sleepers at every step."""
        def trace(use_timeout):
            sim = Simulator()
            go = sim.event()
            seen = []

            def sleeper(sim, name):
                yield go
                # Pushed by _resume after an event, then after a
                # sleep, then by _wait_on.
                for step, kind in enumerate(("inline", "wake", "slow")):
                    if use_timeout or name == "t":
                        yield sim.timeout(delay)
                    elif kind == "slow":
                        yield Fraction(delay)
                    else:
                        yield delay
                    seen.append((sim.now, name, step))

            for name in "tab":
                sim.process(sleeper(sim, name))
            sim.defer(1.0, go.succeed)
            sim.run()
            return seen, sim.event_count

        assert trace(False) == trace(True)
        assert [t for t, _, _ in trace(False)[0]] == [
            1.0 + k * delay for k in (1, 1, 1, 2, 2, 2, 3, 3, 3)]

    def test_yielding_non_event_fails_process(self):
        """Anything but an Event or a real delay >= 0 fails the process
        (bools are not delays)."""
        for target, error in [(True, SimulationError),
                              (None, SimulationError),
                              ("x", SimulationError),
                              (-1.0, SchedulingError),
                              (math.nan, SchedulingError)]:
            sim = Simulator()

            def bad(sim):
                yield target

            proc = sim.process(bad(sim))
            sim.run()
            assert not proc.ok, target
            assert isinstance(proc.value, error), target

    @pytest.mark.parametrize("delay", [Fraction(7, 2), 3.5])
    def test_other_real_delays_sleep_as_float(self, sim, delay):
        def sleeper(sim):
            yield delay
            return sim.now

        proc = sim.process(sleeper(sim))
        sim.run()
        assert proc.value == 3.5

    def test_numpy_float_delay_sleeps(self, sim):
        np = pytest.importorskip("numpy")

        def sleeper(sim):
            yield np.float64(2.5)
            return sim.now

        proc = sim.process(sleeper(sim))
        sim.run()
        assert proc.value == 2.5

    def test_yielding_foreign_event_fails_process(self, sim):
        other = Simulator()

        def bad(sim):
            yield other.timeout(1.0)

        proc = sim.process(bad(sim))
        sim.run()
        assert not proc.ok

    def test_exception_fails_process(self, sim):
        def bad(sim):
            yield sim.timeout(1.0)
            raise KeyError("missing")

        proc = sim.process(bad(sim))
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, KeyError)

    def test_process_waits_on_another_process(self, sim):
        def child(sim):
            yield sim.timeout(7.0)
            return "child-result"

        def parent(sim):
            result = yield sim.process(child(sim))
            return ("parent", result, sim.now)

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == ("parent", "child-result", 7.0)

    def test_waiting_on_already_processed_event(self, sim):
        ev = sim.timeout(1.0, value="early")

        def late_waiter(sim):
            yield sim.timeout(10.0)
            got = yield ev  # processed long ago
            return got

        proc = sim.process(late_waiter(sim))
        sim.run()
        assert proc.value == "early"

    def test_failed_event_throws_into_process(self, sim):
        ev = sim.event()

        def waiter(sim):
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        proc = sim.process(waiter(sim))
        ev.fail(RuntimeError("wire down"))
        sim.run()
        assert proc.value == "caught wire down"


class TestInterrupts:
    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def worker(sim):
            try:
                yield sim.timeout(100.0)
            except ProcessInterrupt as pi:
                causes.append((sim.now, pi.cause))

        proc = sim.process(worker(sim))
        sim.defer(30.0, lambda: proc.interrupt("preempt!"))
        sim.run()
        assert causes == [(30.0, "preempt!")]

    def test_interrupted_process_can_continue(self, sim):
        log = []

        def worker(sim):
            try:
                yield sim.timeout(100.0)
            except ProcessInterrupt:
                log.append("interrupted")
            yield sim.timeout(10.0)
            log.append("resumed-done")
            return sim.now

        proc = sim.process(worker(sim))
        sim.defer(40.0, lambda: proc.interrupt())
        sim.run()
        assert log == ["interrupted", "resumed-done"]
        assert proc.value == 50.0

    def test_uncaught_interrupt_fails_process(self, sim):
        def worker(sim):
            yield sim.timeout(100.0)

        proc = sim.process(worker(sim))
        sim.defer(10.0, lambda: proc.interrupt("die"))
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, ProcessInterrupt)

    def test_interrupting_finished_process_is_noop(self, sim):
        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        proc.interrupt("too late")
        sim.run()
        assert proc.ok
        assert proc.value == "done"

    def test_interrupt_detaches_from_waited_event(self, sim):
        """After an interrupt, the originally awaited event firing must
        not resume the process a second time."""
        resumed = []

        def worker(sim):
            try:
                yield sim.timeout(50.0)
                resumed.append("timeout")
            except ProcessInterrupt:
                resumed.append("interrupt")
                yield sim.timeout(100.0)
                resumed.append("second-wait")

        proc = sim.process(worker(sim))
        sim.defer(10.0, lambda: proc.interrupt())
        sim.run()
        # The 50ns timeout fires at t=50 while we wait until t=110;
        # it must not corrupt the second wait.
        assert resumed == ["interrupt", "second-wait"]
        assert proc.ok

    def test_interrupt_during_sleep(self, sim):
        """An interrupted bare-delay sleep never resumes the process;
        its stale cell still fires and counts, like an orphaned
        timeout."""
        log = []

        def worker(sim):
            try:
                yield 50.0
                log.append("slept")
            except ProcessInterrupt:
                log.append(("interrupt", sim.now))
            yield 100.0
            log.append(("second-sleep", sim.now))

        proc = sim.process(worker(sim))
        sim.defer(10.0, lambda: proc.interrupt())
        sim.run()
        assert log == [("interrupt", 10.0), ("second-sleep", 110.0)]
        assert proc.ok
        # bootstrap, defer, poke, stale cell at 50, sleep end, exit
        assert sim.event_count == 6

    def test_cut_wait_resumes_now_and_detaches(self, sim):
        log = []
        never = sim.event()

        def worker(sim):
            got = yield never
            log.append((sim.now, got, never.triggered))
            got = yield 20.0
            log.append((sim.now, got))

        proc = sim.process(worker(sim))
        sim.defer(5.0, lambda: proc.cut_wait())
        sim.defer(6.0, lambda: never.succeed("late"))
        sim.run()
        assert log == [(5.0, None, False), (25.0, None)]
        assert proc.ok

    def test_cut_wait_during_sleep(self, sim):
        def worker(sim):
            got = yield 50.0
            return (sim.now, got)

        proc = sim.process(worker(sim))
        sim.defer(5.0, lambda: proc.cut_wait())
        sim.run()
        assert proc.value == (5.0, None)
        assert sim.now == 50.0  # the stale cell still fired

    def test_interrupt_is_alive_property(self, sim):
        def worker(sim):
            yield sim.timeout(10.0)

        proc = sim.process(worker(sim))
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_two_processes_interleave(self, sim):
        log = []

        def ping(sim):
            for _ in range(3):
                yield sim.timeout(10.0)
                log.append(("ping", sim.now))

        def pong(sim):
            yield sim.timeout(5.0)
            for _ in range(3):
                yield sim.timeout(10.0)
                log.append(("pong", sim.now))

        sim.process(ping(sim))
        sim.process(pong(sim))
        sim.run()
        assert log == [("ping", 10.0), ("pong", 15.0), ("ping", 20.0),
                       ("pong", 25.0), ("ping", 30.0), ("pong", 35.0)]
