"""Property-based tests for workload distributions and steering."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addressing import FiveTuple
from repro.net.checksum import toeplitz_hash
from repro.net.rss import RssSteering
from repro.workload.distributions import (
    Bimodal,
    BoundedPareto,
    Exponential,
    Fixed,
    Mixture,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestDistributionProperties:
    @given(seeds,
           st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
           st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_bimodal_samples_are_one_of_two_values(self, seed, a, b, p):
        rng = random.Random(seed)
        dist = Bimodal(a, b, p)
        for _ in range(50):
            assert dist.sample(rng) in (a, b)

    @given(seeds,
           st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
           st.floats(min_value=1.1, max_value=3.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_bounded_pareto_within_bounds(self, seed, low, alpha):
        rng = random.Random(seed)
        high = low * 100.0
        dist = BoundedPareto(low, high, alpha)
        for _ in range(50):
            value = dist.sample(rng)
            assert low <= value <= high

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_all_distributions_nonnegative(self, seed):
        rng = random.Random(seed)
        dists = [Fixed(5.0), Exponential(100.0), Bimodal(1.0, 10.0, 0.3),
                 BoundedPareto(1.0, 100.0, 1.5),
                 Mixture([(1.0, Fixed(1.0)), (2.0, Exponential(10.0))])]
        for dist in dists:
            for _ in range(20):
                assert dist.sample(rng) >= 0.0

    @given(st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
           st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=80, deadline=None)
    def test_mixture_mean_is_weighted_mean(self, a, b, w):
        mix = Mixture([(w, Fixed(a)), (1.0 - w, Fixed(b))])
        expected = w * a + (1.0 - w) * b
        assert abs(mix.mean_ns() - expected) < 1e-6 * max(a, b)

    @given(st.floats(min_value=1.0, max_value=1e5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_scv_nonnegative(self, mean):
        for dist in (Fixed(mean), Exponential(mean)):
            assert dist.scv() >= 0.0


flows = st.builds(
    FiveTuple,
    src_ip=st.integers(min_value=0, max_value=2**32 - 1),
    dst_ip=st.integers(min_value=0, max_value=2**32 - 1),
    src_port=st.integers(min_value=0, max_value=65535),
    dst_port=st.integers(min_value=0, max_value=65535),
    protocol=st.just(17),
)


class TestSteeringProperties:
    @given(flows)
    @settings(max_examples=80, deadline=None)
    def test_toeplitz_deterministic_and_32bit(self, flow):
        h1 = toeplitz_hash(flow)
        h2 = toeplitz_hash(flow)
        assert h1 == h2
        assert 0 <= h1 < 2**32

    @given(flows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=80, deadline=None)
    def test_rss_queue_in_range(self, flow, n_queues):
        rss = RssSteering(n_queues=n_queues)
        queue = rss.steer_flow(flow)
        assert 0 <= queue < n_queues

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_rss_same_flow_same_queue(self, n_queues, port):
        rss = RssSteering(n_queues=n_queues)
        flow = FiveTuple(0x0A000001, 0x0A000002, port, 9000, 17)
        assert rss.steer_flow(flow) == rss.steer_flow(flow)
