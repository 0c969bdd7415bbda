"""Chaos matrix: every fault class against every registered system.

Each cell runs one tiny point on the observation-only sanitizing
simulator with a live :class:`~repro.faults.injector.FaultInjector`
and asserts the conservation law — every tracked request terminates
completed or dropped (or is verifiably still in flight at the
horizon), and every drop carries a reason that lands in the metrics.
Scenario-specific assertions then prove the fault actually fired and
that at least one recovery path (retry, failover, timeout reaping,
staleness fallback) engaged where the plan armed one.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import SanitizedRngRegistry, SanitizedSimulator
from repro.config import PreemptionConfig, ShinjukuOffloadConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import parse_fault_spec
from repro.metrics.collector import MetricsCollector
from repro.systems import registry
from repro.units import ms, us
from repro.workload.arrivals import PoissonArrivals
from repro.workload.distributions import Fixed
from repro.workload.generator import OpenLoopLoadGenerator

HORIZON = ms(0.6)
WARMUP = ms(0.1)
DIST = Fixed(us(2.0))
SEED = 7

ALL_NAMES = [entry.name for entry in registry.list_systems()]

#: The two systems whose dataplane crosses the SmartNIC fabric; wire
#: faults are definitionally inert on the shared-memory systems.
PACKET_SYSTEMS = {"shinjuku-offload", "ideal-offload"}

#: scenario -> (--faults spec, offered rate).
SCENARIOS = {
    "crash": ("crash=0@150,timeout-us=250,retries=1", 150e3),
    "stall": ("stall=0@150+200,timeout-us=400", 150e3),
    "straggle": ("straggle=0@150+250,straggle-factor=6", 150e3),
    "overflow": ("queue-cap=1", 1.2e6),
    "wire": ("link-loss=0.08,link-corrupt=0.02,link-reorder=0.05,"
             "retries=2,timeout-us=300", 150e3),
    "tight-timeout": ("timeout-us=25", 2.6e6),
}


def run_chaos(name, spec, rate, config=None):
    """One sanitized faulty point; returns (sanitizer report, metrics)."""
    plan = parse_fault_spec(spec)
    rngs = SanitizedRngRegistry(SEED)
    sim = SanitizedSimulator(rngs=rngs)
    collector = MetricsCollector(sim, warmup_ns=WARMUP)
    if config is None:
        system = registry.build(name, sim, rngs, collector)
    else:
        system = registry.build(name, sim, rngs, collector, config=config)
    injector = FaultInjector(sim, rngs, plan, metrics=collector)
    injector.attach(system)
    sim.watch_system(system)
    ingress = sim.tracking_ingress(system.ingress)
    system.start()
    generator = OpenLoopLoadGenerator(
        sim, ingress, PoissonArrivals(rate), rngs, collector,
        horizon_ns=HORIZON, distribution=DIST)
    generator.start()
    sim.run(until=HORIZON, max_events=50_000_000)
    report = sim.finalize()
    return report, collector.summarize(offered_rps=rate)


def assert_conserved(report, metrics):
    """The chaos invariants every cell must satisfy.

    Request conservation (nothing leaks), work still completes, and
    every measured drop is accounted under exactly one reason.
    """
    assert report.tracked > 0
    assert report.tracked == (report.completed + report.dropped
                              + report.in_flight)
    assert report.completed > 0
    faults = metrics.faults
    assert faults is not None
    assert metrics.throughput.dropped == (faults.drops_overflow
                                          + faults.drops_fault
                                          + faults.drops_timeout)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_chaos_matrix(scenario, name):
    spec, rate = SCENARIOS[scenario]
    report, metrics = run_chaos(name, spec, rate)
    assert_conserved(report, metrics)
    faults = metrics.faults

    if scenario == "crash":
        assert faults.worker_crashes == 1
        # The orphan either failed over, timed out, or the system
        # absorbed the dead core with no measured loss at all.
        assert (faults.failovers > 0 or faults.timeouts > 0
                or report.dropped == 0)
    elif scenario == "stall":
        assert faults.worker_stalls >= 1
    elif scenario == "overflow":
        assert faults.drops_overflow > 0
        assert faults.drops_fault == 0 and faults.drops_timeout == 0
    elif scenario == "wire":
        wire_hits = (faults.link_drops + faults.link_corruptions
                     + faults.link_reorders)
        if name in PACKET_SYSTEMS:
            assert wire_hits > 0
            assert faults.retries > 0
            assert faults.retry_successes > 0
        else:
            # Shared-memory systems have no wire to fault.
            assert wire_hits == 0
    elif scenario == "tight-timeout":
        # Every system either reaps late requests or provably kept
        # scheduling delay under the 25us deadline (no drops at all).
        assert faults.timeouts > 0 or report.dropped == 0
        assert faults.drops_overflow == 0 and faults.drops_fault == 0


def test_crash_failover_completes_requests():
    """The failover path does not just drop — re-steered orphans finish."""
    results = {}
    for name in ALL_NAMES:
        report, metrics = run_chaos(
            name, "crash=0@150,timeout-us=250,retries=1", 150e3)
        results[name] = metrics.faults
    assert any(f.failover_successes > 0 for f in results.values()), \
        "no system completed a failed-over request"


def test_wire_retry_recovers_goodput():
    """Bounded retry recovers most wire losses on the packet systems."""
    for name in sorted(PACKET_SYSTEMS):
        report, metrics = run_chaos(
            name, "link-loss=0.08,link-corrupt=0.02,retries=2,timeout-us=300",
            150e3)
        assert_conserved(report, metrics)
        faults = metrics.faults
        assert faults.retry_successes > 0
        # Retries must carry the vast majority of stranded requests to
        # completion: measured drops stay under 10% of completions.
        assert metrics.throughput.dropped <= metrics.throughput.completed / 10


def test_staleness_fallback_engages_on_silent_feedback():
    """With the board gone silent, steering falls back to round-robin."""
    config = ShinjukuOffloadConfig(
        preemption=PreemptionConfig(time_slice_ns=us(10.0),
                                    mechanism="nic_scan"))
    report, metrics = run_chaos("shinjuku-offload", "stale-after-us=5",
                                150e3, config=config)
    assert_conserved(report, metrics)
    assert metrics.faults.stale_fallbacks > 0


def test_timeout_reaper_bounds_scheduling_delay():
    """Under heavy overload the reaper converts queueing into timeouts."""
    report, metrics = run_chaos("shinjuku", "timeout-us=25", 2.0e6)
    assert_conserved(report, metrics)
    faults = metrics.faults
    assert faults.timeouts > 0
    assert faults.drops_timeout > 0
    # With a 25us deadline and 2us service, survivors' latency is
    # bounded: the p99 cannot sit far beyond deadline + service + wire.
    assert metrics.latency is not None
    assert metrics.latency.p99_ns < us(60.0)


@pytest.mark.parametrize("name", sorted(PACKET_SYSTEMS))
def test_lost_dispatch_packets_refund_their_credit(name):
    """A request packet destroyed on its way to a worker VF never
    produces the notification that debits its dispatcher credit; the
    injector refunds it.  Under heavy wire loss, once the load stops and
    every retry has played out, no worker may still hold a credit."""
    plan = parse_fault_spec("link-loss=0.2,retries=4,timeout-us=300")
    rngs = SanitizedRngRegistry(SEED)
    sim = SanitizedSimulator(rngs=rngs)
    collector = MetricsCollector(sim, warmup_ns=WARMUP)
    system = registry.build(name, sim, rngs, collector)
    injector = FaultInjector(sim, rngs, plan, metrics=collector)
    injector.attach(system)
    system.start()
    OpenLoopLoadGenerator(
        sim, system.ingress, PoissonArrivals(600e3), rngs, collector,
        horizon_ns=HORIZON, distribution=DIST).start()
    sim.run(until=HORIZON + ms(5.0), max_events=50_000_000)
    tracker = system.dispatcher.tracker
    assert injector.counters.link_drops > 0
    assert [tracker.outstanding(w) for w in range(tracker.n_workers)] \
        == [0] * tracker.n_workers
    assert collector.completed_all > 0
