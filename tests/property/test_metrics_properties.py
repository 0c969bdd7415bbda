"""Property-based tests for percentile and mean correctness."""

import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.reservoir import LatencyReservoir

samples = st.lists(st.floats(min_value=0.0, max_value=1e9,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=500)

#: Long enough for the pairwise mean to split more than once (it adds
#: runs of at most 128 values with eight accumulators).
long_samples = st.lists(st.floats(min_value=0.0, max_value=1e9,
                                  allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=2000)

#: Sizes at the edges of the pairwise sum's branches: under 8 values,
#: whole and partial rounds of 8 up to the 128-value block, and one or
#: two splits above it.
EDGE_SIZES = (1, 7, 8, 9, 15, 16, 127, 128, 129, 135, 136, 137,
              255, 256, 257, 1031, 4099)


def numpy_mean_of_sorted(data):
    """numpy's mean of the sorted samples: the reservoir's reference."""
    np = pytest.importorskip("numpy")
    return float(np.mean(np.sort(np.asarray(data, dtype=np.float64))))


class TestPercentileProperties:
    @given(samples, st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_percentile_within_bounds(self, data, p):
        res = LatencyReservoir()
        res.extend(data)
        value = res.percentile(p)
        assert min(data) <= value <= max(data)

    @given(samples)
    @settings(max_examples=60, deadline=None)
    def test_percentile_monotone_in_p(self, data):
        res = LatencyReservoir()
        res.extend(data)
        values = [res.percentile(p) for p in (0, 25, 50, 75, 90, 99, 100)]
        assert values == sorted(values)

    @given(samples)
    @settings(max_examples=60, deadline=None)
    def test_p100_is_max(self, data):
        res = LatencyReservoir()
        res.extend(data)
        assert res.percentile(100.0) == max(data)

    @given(samples)
    @settings(max_examples=60, deadline=None)
    def test_percentile_is_an_observed_sample(self, data):
        """'lower' interpolation always reports a real observation."""
        res = LatencyReservoir()
        res.extend(data)
        for p in (1, 50, 99, 99.9):
            assert res.percentile(p) in data

    @given(long_samples)
    @settings(max_examples=60, deadline=None)
    def test_mean_matches_numpy(self, data):
        """Bit for bit: the digests were pinned with numpy's mean."""
        res = LatencyReservoir()
        res.extend(data)
        assert res.mean() == numpy_mean_of_sorted(data)

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_mean_matches_numpy_at_branch_edges(self, n):
        rng = random.Random(n)
        data = [rng.expovariate(1e-4) for _ in range(n)]
        res = LatencyReservoir()
        res.extend(data)
        assert res.mean() == numpy_mean_of_sorted(data)

    def test_mean_sums_pairwise_not_sequentially(self):
        """Sixteen 0.1s: the pairwise order lands on 0.1 exactly, a
        left-to-right sum one ulp above it."""
        data = [0.1] * 16
        res = LatencyReservoir()
        res.extend(data)
        r = 0.1 + 0.1  # each of the eight accumulators
        pairwise = ((r + r) + (r + r)) + ((r + r) + (r + r))
        sequential = reduce(add, data, 0.0)
        assert pairwise != sequential
        assert res.mean() == pairwise / 16 == 0.1
        assert sequential / 16 != 0.1

    @given(samples, samples)
    @settings(max_examples=40, deadline=None)
    def test_insertion_order_irrelevant(self, a, b):
        r1 = LatencyReservoir()
        r1.extend(a + b)
        r2 = LatencyReservoir()
        r2.extend(b + a)
        for p in (50.0, 99.0):
            assert r1.percentile(p) == r2.percentile(p)
