"""Per-system smoke matrix: every registered system runs sanitized.

One tiny point per registry entry, on the observation-only sanitizing
simulator (``REPRO_SANITIZE=1``): clock monotonicity, queue accounting,
and — the assertion this matrix exists for — request conservation:
every injected request terminates completed or dropped, none leak.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    SanitizedRngRegistry,
    SanitizedSimulator,
)
from repro.experiments.executor import ConfiguredFactory
from repro.experiments.harness import SANITIZE_ENV, RunConfig, run_point
from repro.metrics.collector import MetricsCollector
from repro.systems import registry
from repro.units import ms, us
from repro.workload.arrivals import PoissonArrivals
from repro.workload.distributions import Fixed
from repro.workload.generator import OpenLoopLoadGenerator

TINY = RunConfig(seed=7, horizon_ns=ms(0.5), warmup_ns=ms(0.1))
RATE = 150e3
DIST = Fixed(us(2.0))

ALL_NAMES = [entry.name for entry in registry.list_systems()]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_sanitized_point_per_system(name, monkeypatch):
    """`REPRO_SANITIZE=1` + default config: the run must survive every
    runtime invariant and complete work."""
    monkeypatch.setenv(SANITIZE_ENV, "1")
    metrics = run_point(ConfiguredFactory.by_name(name), RATE, DIST, TINY)
    throughput = metrics.throughput
    assert throughput.completed > 0
    assert throughput.completed + throughput.dropped <= throughput.generated


@pytest.mark.parametrize("name", ALL_NAMES)
def test_request_conservation_per_system(name):
    """Direct sanitizer wiring so the conservation ledger is visible:
    tracked == completed + dropped + in-flight, and a drained schedule
    leaves nothing in flight (finalize raises otherwise)."""
    rngs = SanitizedRngRegistry(TINY.seed)
    sim = SanitizedSimulator(rngs=rngs)
    metrics = MetricsCollector(sim, warmup_ns=TINY.warmup_ns)
    system = registry.build(name, sim, rngs, metrics)
    sim.watch_system(system)
    ingress = sim.tracking_ingress(system.ingress)
    system.start()
    generator = OpenLoopLoadGenerator(
        sim, ingress, PoissonArrivals(RATE), rngs, metrics,
        horizon_ns=TINY.horizon_ns, distribution=DIST)
    generator.start()
    sim.run(until=TINY.horizon_ns, max_events=TINY.max_events)
    report = sim.finalize()
    assert report.tracked > 0
    assert report.tracked == (report.completed + report.dropped
                              + report.in_flight)
    assert report.completed > 0
