"""Unit tests for the runtime determinism sanitizer.

Each invariant gets a deliberate violation injected and the diagnostic
asserted; the equivalence tests hold the sanitizer to its
observation-only contract (bit-identical values and metrics).
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.analysis.sanitizer import (
    CountingRandom,
    SanitizedRngRegistry,
    SanitizedSimulator,
)
from repro.config import ShinjukuConfig
from repro.errors import SanitizerError
from repro.experiments.executor import ConfiguredFactory
from repro.experiments.harness import (
    RunConfig,
    run_point_with_events,
    sanitize_enabled,
)
from repro.runtime.request import Request, RequestState
from repro.runtime.taskqueue import TaskQueue
from repro.sim.rng import RngRegistry
from repro.systems.shinjuku import ShinjukuSystem
from repro.units import ms, us
from repro.workload.distributions import Fixed


class TestCountingRandom:
    def test_values_identical_to_plain_random(self):
        counting = CountingRandom(1234, "s")
        plain = random.Random(1234)
        assert [counting.random() for _ in range(50)] == \
               [plain.random() for _ in range(50)]
        assert [counting.expovariate(2.0) for _ in range(20)] == \
               [plain.expovariate(2.0) for _ in range(20)]
        assert [counting.randrange(1000) for _ in range(20)] == \
               [plain.randrange(1000) for _ in range(20)]

    def test_draws_counted(self):
        counting = CountingRandom(1, "s")
        counting.random()
        counting.expovariate(1.0)
        assert counting.draws >= 2

    def test_high_level_methods_count_primitives(self):
        counting = CountingRandom(9, "s")
        counting.gauss(0.0, 1.0)
        assert counting.draws > 0


class TestSanitizedRngRegistry:
    def test_streams_match_plain_registry(self):
        sanitized = SanitizedRngRegistry(seed=42)
        plain = RngRegistry(seed=42)
        assert [sanitized.stream("arrivals").random() for _ in range(20)] \
            == [plain.stream("arrivals").random() for _ in range(20)]

    def test_streams_cached_and_counted(self):
        rngs = SanitizedRngRegistry(seed=7)
        stream = rngs.stream("service")
        assert rngs.stream("service") is stream
        stream.random()
        stream.random()
        assert rngs.draw_counts() == {"service": 2}

    def test_fork_stays_sanitized_and_matches_plain(self):
        sanitized = SanitizedRngRegistry(seed=5).fork("rep1")
        plain = RngRegistry(seed=5).fork("rep1")
        assert isinstance(sanitized, SanitizedRngRegistry)
        assert sanitized.stream("x").random() == plain.stream("x").random()


class TestClockMonotonicity:
    def test_normal_run_passes(self):
        sim = SanitizedSimulator()
        sim.timeout(5.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.now == pytest.approx(5.0)

    def test_injected_regression_diagnosed(self):
        sim = SanitizedSimulator()
        sim.timeout(10.0)
        sim.run()
        # Bypass the scheduling guards to plant an event in the past.
        heapq.heappush(sim._heap, (sim.now - 4.0, 999, sim.event()))
        with pytest.raises(SanitizerError, match="clock regressed"):
            sim.step()


    def test_checks_ride_the_plain_loop(self):
        """The sanitizer observes through the loop's hook; it has no
        loop of its own."""
        assert "step" not in vars(SanitizedSimulator)
        assert "run" not in vars(SanitizedSimulator)
        sim = SanitizedSimulator()
        assert sim.observer is not None


class TestQueueInvariants:
    def test_clean_traffic_passes(self):
        sim = SanitizedSimulator()
        queue = TaskQueue(sim, name="q")
        sim.watch_queue(queue)
        request = Request(service_ns=us(1.0))
        queue.enqueue(request)
        sim.timeout(1.0)
        sim.run()
        assert len(queue) == 1

    def test_smuggled_request_diagnosed(self):
        sim = SanitizedSimulator()
        queue = TaskQueue(sim, name="q")
        sim.watch_queue(queue)
        # A request placed in the backing deque without enqueue() —
        # depth now exceeds the queue's own accounting.
        queue._fifo.append(Request(service_ns=us(1.0)))
        sim.timeout(1.0)
        with pytest.raises(SanitizerError, match="accounting corrupted"):
            sim.run()

    def test_diagnostic_names_the_queue(self):
        sim = SanitizedSimulator()
        queue = TaskQueue(sim, name="nic-taskq")
        sim.watch_queue(queue)
        queue._fifo.append(Request(service_ns=us(1.0)))
        sim.timeout(1.0)
        with pytest.raises(SanitizerError, match="nic-taskq"):
            sim.run()


class TestRequestConservation:
    def test_leaked_request_diagnosed_after_drain(self):
        rngs = SanitizedRngRegistry(seed=1)
        sim = SanitizedSimulator(rngs=rngs)
        rngs.stream("arrivals").random()
        queue = TaskQueue(sim, name="q")
        request = Request(service_ns=us(1.0))
        sim.track_request(request)
        queue.enqueue(request)  # nobody ever dequeues
        sim.run()
        with pytest.raises(SanitizerError) as excinfo:
            sim.finalize()
        message = str(excinfo.value)
        assert "leaked" in message
        assert f"#{request.request_id}" in message
        assert "queued" in message
        # The divergence is localized to named streams.
        assert "arrivals=1" in message

    def test_in_flight_requests_legal_while_events_pend(self):
        sim = SanitizedSimulator()
        request = Request(service_ns=us(1.0))
        request.state = RequestState.QUEUED
        sim.track_request(request)
        sim.timeout(5.0)  # schedule not drained
        report = sim.finalize()
        assert not report.drained
        assert report.in_flight == 1

    def test_terminated_requests_pass_after_drain(self):
        sim = SanitizedSimulator()
        completed = Request(service_ns=us(1.0))
        completed.complete(now=3.0)
        dropped = Request(service_ns=us(1.0))
        dropped.state = RequestState.DROPPED
        sim.track_request(completed)
        sim.track_request(dropped)
        report = sim.finalize()
        assert report.drained
        assert (report.completed, report.dropped) == (1, 1)

    def test_tracking_ingress_wraps_transparently(self):
        sim = SanitizedSimulator()
        seen = []
        wrapped = sim.tracking_ingress(seen.append)
        request = Request(service_ns=us(1.0))
        wrapped(request)
        assert seen == [request]
        request.complete(now=1.0)  # terminate so drain-finalize passes
        assert sim.finalize().tracked == 1


class TestWatchSystem:
    def test_discovers_nested_taskqueues(self):
        from repro.metrics.collector import MetricsCollector
        rngs = SanitizedRngRegistry(seed=3)
        sim = SanitizedSimulator(rngs=rngs)
        system = ShinjukuSystem(sim, rngs, MetricsCollector(sim),
                                config=ShinjukuConfig(workers=2))
        assert sim.watch_system(system) == 1

    def test_plain_object_finds_nothing(self):
        sim = SanitizedSimulator()
        assert sim.watch_system(object()) == 0


class TestObservationOnly:
    FACTORY = ConfiguredFactory(ShinjukuSystem, ShinjukuConfig(workers=2))
    CONFIG = RunConfig(seed=11, horizon_ns=ms(1.0), warmup_ns=ms(0.2))

    def test_run_point_metrics_bit_identical(self):
        plain, plain_events = run_point_with_events(
            self.FACTORY, 120e3, Fixed(us(2.0)), self.CONFIG,
            sanitize=False)
        sanitized, sanitized_events = run_point_with_events(
            self.FACTORY, 120e3, Fixed(us(2.0)), self.CONFIG,
            sanitize=True)
        assert sanitized == plain
        assert sanitized_events == plain_events

    def test_env_hook_enables_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        env_run, _ = run_point_with_events(
            self.FACTORY, 120e3, Fixed(us(2.0)), self.CONFIG)
        plain, _ = run_point_with_events(
            self.FACTORY, 120e3, Fixed(us(2.0)), self.CONFIG,
            sanitize=False)
        assert env_run == plain

    def test_env_hook_off_spellings(self, monkeypatch):
        for value in ("", "0", "false", "no", "off", "FALSE"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not sanitize_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize_enabled()
