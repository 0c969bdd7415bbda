"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.experiments.harness import RunConfig
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.units import ms


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rngs() -> RngRegistry:
    """A seeded RNG registry."""
    return RngRegistry(seed=1234)


@pytest.fixture
def fast_config() -> RunConfig:
    """A short-horizon run config for system-level tests."""
    return RunConfig(seed=7, horizon_ns=ms(3.0), warmup_ns=ms(0.5))


@pytest.fixture
def metrics(sim: Simulator) -> MetricsCollector:
    """A collector with no warmup (every request measured)."""
    return MetricsCollector(sim, warmup_ns=0.0)
