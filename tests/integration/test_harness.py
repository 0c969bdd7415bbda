"""Integration tests for the experiment harness."""

import math

import pytest

from repro.config import PreemptionConfig, ShinjukuConfig
from repro.errors import ExperimentError
from repro.experiments.harness import (
    LoadSweepResult,
    RunConfig,
    load_sweep,
    measure_capacity,
    run_point,
    run_point_with_events,
)
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.units import ms, us
from repro.workload.distributions import Fixed

FAST = RunConfig(seed=11, horizon_ns=ms(2.0), warmup_ns=ms(0.4))


def _valet_factory(workers=4):
    def make(sim, rngs, metrics):
        return RpcValetSystem(sim, rngs, metrics,
                              config=RpcValetConfig(workers=workers))
    return make


class TestRunConfig:
    def test_scaled(self):
        config = RunConfig(horizon_ns=ms(10.0), warmup_ns=ms(2.0))
        half = config.scaled(0.5)
        assert half.horizon_ns == ms(5.0)
        assert half.warmup_ns == ms(1.0)
        assert config.horizon_ns == ms(10.0)  # original untouched

    def test_invalid_windows(self):
        with pytest.raises(ExperimentError):
            RunConfig(horizon_ns=ms(1.0), warmup_ns=ms(2.0))
        with pytest.raises(ExperimentError):
            RunConfig().scaled(0.0)


class TestRunPoint:
    def test_returns_metrics(self):
        metrics = run_point(_valet_factory(), 100e3, Fixed(us(2.0)), FAST)
        assert metrics.latency is not None
        assert metrics.throughput.achieved_rps > 0

    def test_deterministic_for_seed(self):
        a = run_point(_valet_factory(), 100e3, Fixed(us(2.0)), FAST)
        b = run_point(_valet_factory(), 100e3, Fixed(us(2.0)), FAST)
        assert a.latency.p99_ns == b.latency.p99_ns
        assert a.throughput.completed == b.throughput.completed

    def test_seed_changes_results(self):
        a = run_point(_valet_factory(), 100e3, Fixed(us(2.0)), FAST)
        other = RunConfig(seed=99, horizon_ns=ms(2.0), warmup_ns=ms(0.4))
        b = run_point(_valet_factory(), 100e3, Fixed(us(2.0)), other)
        assert a.latency.mean_ns != b.latency.mean_ns

    def test_bad_rate_rejected(self):
        with pytest.raises(ExperimentError):
            run_point(_valet_factory(), 0.0, Fixed(1.0), FAST)


class TestLoadSweep:
    def test_sweep_points_ordered(self):
        rates = [50e3, 100e3, 200e3]
        sweep = load_sweep(_valet_factory(), rates, Fixed(us(2.0)), FAST,
                           system_name="valet")
        assert [p.offered_rps for p in sweep.points] == rates
        assert sweep.system_name == "valet"

    def test_latency_grows_with_load(self):
        sweep = load_sweep(_valet_factory(workers=2),
                           [100e3, 600e3], Fixed(us(2.0)), FAST)
        assert sweep.points[1].p99_ns > sweep.points[0].p99_ns

    def test_saturation_rps_helper(self):
        sweep = load_sweep(_valet_factory(workers=2),
                           [100e3, 2e6], Fixed(us(2.0)), FAST)
        # 2 workers at ~2.5 us/request saturate near 800k: 100k is
        # servable, 2M is not.
        assert sweep.saturation_rps() == 100e3

    def test_empty_rates_rejected(self):
        with pytest.raises(ExperimentError):
            load_sweep(_valet_factory(), [], Fixed(1.0), FAST)

    def test_saturation_rps_empty_sweep_is_nan(self):
        """Never-measured must not masquerade as saturates-at-zero."""
        empty = LoadSweepResult(system_name="x", points=[])
        assert math.isnan(empty.saturation_rps())

    def test_saturation_rps_all_unsaturated_is_zero(self):
        """All points below the efficiency bar: knee is below the
        lowest offered rate — 0.0, and distinct from the NaN case."""
        sweep = load_sweep(_valet_factory(workers=2), [2e6, 3e6],
                           Fixed(us(2.0)), FAST)
        assert sweep.saturation_rps() == 0.0


class TestCapacityAndSaturation:
    def test_measure_capacity_near_analytic(self):
        """2 workers, 2 µs fixed service + ~0.5 µs overheads -> ~800k."""
        capacity = measure_capacity(_valet_factory(workers=2),
                                    Fixed(us(2.0)), overload_rps=3e6,
                                    config=FAST)
        assert 600e3 < capacity < 1e6


class TestRunPointWithEvents:
    def test_events_reported_and_metrics_match(self):
        metrics, events = run_point_with_events(
            _valet_factory(), 100e3, Fixed(us(2.0)), FAST)
        assert events > 0
        assert metrics == run_point(_valet_factory(), 100e3,
                                    Fixed(us(2.0)), FAST)
