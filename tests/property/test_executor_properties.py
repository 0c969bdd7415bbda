"""Property tests for sweep-executor cache keys and ordering.

The cache key is the identity of a measurement; these tests pin its
load-bearing properties: stability (same inputs -> same key, in any
process, in any order), sensitivity (any change to any RunConfig field
or to the rate/distribution/system changes the key), and the executor's
ordering contract (results come back in offered-rate order no matter
which worker finishes first).
"""

from __future__ import annotations

import concurrent.futures

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    make_executor,
    spec_cache_key,
)
from repro.experiments.harness import RunConfig, load_sweep
from repro.systems.rpcvalet import RpcValetConfig, RpcValetSystem
from repro.units import ms, us
from repro.workload.distributions import Bimodal, Exponential, Fixed

FACTORY = ConfiguredFactory(RpcValetSystem, RpcValetConfig(workers=2))

seeds = st.integers(min_value=0, max_value=2**31 - 1)
rates = st.floats(min_value=1e3, max_value=1e7,
                  allow_nan=False, allow_infinity=False)
horizons = st.floats(min_value=ms(0.5), max_value=ms(50.0),
                     allow_nan=False, allow_infinity=False)


def _spec(seed: int = 1, rate: float = 100e3, horizon: float = ms(2.0),
          dist=None, label: str = "sut") -> PointSpec:
    config = RunConfig(seed=seed, horizon_ns=horizon,
                       warmup_ns=horizon / 4.0)
    return PointSpec(factory=FACTORY, rate_rps=rate,
                     distribution=dist if dist is not None else Fixed(us(2.0)),
                     config=config, label=label)


def _key_in_subprocess(seed: int, rate: float, horizon: float) -> str:
    return spec_cache_key(_spec(seed=seed, rate=rate, horizon=horizon))


class TestKeyStability:
    @given(seed=seeds, rate=rates, horizon=horizons)
    @settings(max_examples=100, deadline=None)
    def test_key_is_deterministic(self, seed, rate, horizon):
        a = spec_cache_key(_spec(seed=seed, rate=rate, horizon=horizon))
        b = spec_cache_key(_spec(seed=seed, rate=rate, horizon=horizon))
        assert a is not None and a == b

    @given(seed=seeds, rate=rates, horizon=horizons)
    @settings(max_examples=50, deadline=None)
    def test_key_independent_of_construction_order(self, seed, rate, horizon):
        """Building other specs in between never perturbs a key."""
        before = spec_cache_key(_spec(seed=seed, rate=rate, horizon=horizon))
        spec_cache_key(_spec(seed=seed + 1, rate=rate * 2.0))
        spec_cache_key(_spec(seed=seed, rate=rate, dist=Exponential(us(1.0))))
        after = spec_cache_key(_spec(seed=seed, rate=rate, horizon=horizon))
        assert before == after

    def test_key_stable_across_processes(self):
        """A child process derives the exact keys the parent does —
        no dependence on PYTHONHASHSEED, id(), or interpreter state."""
        cases = [(1, 100e3, ms(2.0)), (42, 333e3, ms(5.0)),
                 (7, 1.5e6, ms(1.0))]
        parent = [_key_in_subprocess(*case) for case in cases]
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            children = list(pool.map(_key_in_subprocess,
                                     *zip(*cases)))
        assert parent == children


class TestKeySensitivity:
    @given(seed_a=seeds, seed_b=seeds)
    @settings(max_examples=100, deadline=None)
    def test_distinct_seeds_never_collide(self, seed_a, seed_b):
        key_a = spec_cache_key(_spec(seed=seed_a))
        key_b = spec_cache_key(_spec(seed=seed_b))
        assert (key_a == key_b) == (seed_a == seed_b)

    @given(rate_a=rates, rate_b=rates)
    @settings(max_examples=100, deadline=None)
    def test_distinct_rates_never_collide(self, rate_a, rate_b):
        key_a = spec_cache_key(_spec(rate=rate_a))
        key_b = spec_cache_key(_spec(rate=rate_b))
        assert (key_a == key_b) == (rate_a == rate_b)

    @given(horizon_a=horizons, horizon_b=horizons)
    @settings(max_examples=100, deadline=None)
    def test_distinct_horizons_never_collide(self, horizon_a, horizon_b):
        key_a = spec_cache_key(_spec(horizon=horizon_a))
        key_b = spec_cache_key(_spec(horizon=horizon_b))
        assert (key_a == key_b) == (horizon_a == horizon_b)

    def test_max_events_changes_key(self):
        base = RunConfig(seed=1, horizon_ns=ms(2.0), warmup_ns=ms(0.5))
        capped = RunConfig(seed=1, horizon_ns=ms(2.0), warmup_ns=ms(0.5),
                           max_events=1000)
        key_a = spec_cache_key(PointSpec(FACTORY, 100e3, Fixed(us(2.0)),
                                         base, "sut"))
        key_b = spec_cache_key(PointSpec(FACTORY, 100e3, Fixed(us(2.0)),
                                         capped, "sut"))
        assert key_a != key_b

    def test_distribution_parameters_change_key(self):
        variants = [Fixed(us(2.0)), Fixed(us(2.5)), Exponential(us(2.0)),
                    Bimodal(us(5.0), us(100.0), 0.005),
                    Bimodal(us(5.0), us(100.0), 0.01)]
        keys = [spec_cache_key(_spec(dist=dist)) for dist in variants]
        assert len(set(keys)) == len(variants)

    def test_system_identity_changes_key(self):
        other = ConfiguredFactory(RpcValetSystem, RpcValetConfig(workers=3))
        base = _spec()
        sibling = PointSpec(other, base.rate_rps, base.distribution,
                            base.config, base.label)
        relabeled = PointSpec(base.factory, base.rate_rps, base.distribution,
                              base.config, "other-name")
        keys = {spec_cache_key(base), spec_cache_key(sibling),
                spec_cache_key(relabeled)}
        assert len(keys) == 3

    def test_opaque_factory_has_no_key(self):
        def closure(sim, rngs, metrics):  # pragma: no cover - never run
            return RpcValetSystem(sim, rngs, metrics)
        spec = PointSpec(closure, 100e3, Fixed(us(2.0)),
                         RunConfig(seed=1, horizon_ns=ms(2.0),
                                   warmup_ns=ms(0.5)), "sut")
        assert spec_cache_key(spec) is None


class TestOrdering:
    @given(rate_list=st.lists(st.sampled_from(
        [50e3, 100e3, 200e3, 400e3, 800e3, 1600e3]),
        min_size=1, max_size=4, unique=True))
    @settings(max_examples=8, deadline=None)
    def test_sweep_points_in_offered_order(self, rate_list):
        """Points come back in offered-rate order regardless of which
        worker finishes first (heavier rates finish later)."""
        config = RunConfig(seed=5, horizon_ns=ms(0.5), warmup_ns=ms(0.1))
        sweep = load_sweep(FACTORY, rate_list, Fixed(us(2.0)), config,
                           system_name="sut",
                           executor=make_executor(jobs=4))
        assert [p.offered_rps for p in sweep.points] == list(rate_list)

    def test_parallel_order_matches_serial_order(self):
        """Descending rates make completion order the reverse of
        submission order; results must still line up."""
        rate_list = [1600e3, 800e3, 400e3, 200e3, 100e3, 50e3]
        config = RunConfig(seed=5, horizon_ns=ms(0.5), warmup_ns=ms(0.1))
        serial = load_sweep(FACTORY, rate_list, Fixed(us(2.0)), config,
                            executor=make_executor())
        parallel = load_sweep(FACTORY, rate_list, Fixed(us(2.0)), config,
                              executor=make_executor(jobs=4))
        assert [p.offered_rps for p in parallel.points] == rate_list
        assert [p.metrics for p in parallel.points] == \
            [p.metrics for p in serial.points]
