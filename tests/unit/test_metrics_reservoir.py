"""Unit tests for the exact-percentile reservoir."""

import pytest

from repro.errors import ExperimentError
from repro.metrics.reservoir import LatencyReservoir


class TestReservoir:
    def test_basic_statistics(self):
        res = LatencyReservoir()
        res.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        assert res.mean() == 3.0
        assert res.minimum() == 1.0
        assert res.maximum() == 5.0
        assert len(res) == 5

    def test_percentile_exact_on_known_data(self):
        res = LatencyReservoir()
        res.extend(float(i) for i in range(1, 101))  # 1..100
        assert res.percentile(50.0) == 50.0
        assert res.percentile(99.0) == 99.0
        assert res.percentile(100.0) == 100.0

    def test_percentile_lower_interpolation(self):
        """p99 of a small sample reports an *observed* value."""
        res = LatencyReservoir()
        res.extend([10.0, 20.0, 30.0, 40.0])
        assert res.percentile(99.0) in (10.0, 20.0, 30.0, 40.0)

    def test_p0_is_min(self):
        res = LatencyReservoir()
        res.extend([5.0, 1.0, 9.0])
        assert res.percentile(0.0) == 1.0

    def test_order_independent(self):
        a = LatencyReservoir()
        b = LatencyReservoir()
        a.extend([3.0, 1.0, 2.0])
        b.extend([1.0, 2.0, 3.0])
        assert a.percentile(50.0) == b.percentile(50.0)

    def test_cache_invalidated_on_add(self):
        res = LatencyReservoir()
        res.add(10.0)
        assert res.maximum() == 10.0
        res.add(99.0)
        assert res.maximum() == 99.0

    def test_empty_reservoir_errors(self):
        res = LatencyReservoir()
        assert res.empty
        with pytest.raises(ExperimentError):
            res.percentile(50.0)
        with pytest.raises(ExperimentError):
            res.mean()
        with pytest.raises(ExperimentError):
            res.maximum()
        with pytest.raises(ExperimentError):
            res.minimum()

    def test_percentile_range_checked(self):
        res = LatencyReservoir()
        res.add(1.0)
        with pytest.raises(ExperimentError):
            res.percentile(101.0)
        with pytest.raises(ExperimentError):
            res.percentile(-1.0)

    def test_samples_copy(self):
        res = LatencyReservoir()
        res.extend([2.0, 1.0])
        samples = res.samples()
        samples[0] = 999.0
        assert res.minimum() == 1.0


class TestSortedViewCache:
    """percentile() reads a cached sorted view; mutation invalidates it."""

    def test_repeated_percentiles_identical_without_resort(self):
        res = LatencyReservoir()
        res.extend([5.0, 1.0, 9.0, 3.0, 7.0])
        first = [res.percentile(p) for p in (0, 25, 50, 75, 99, 100)]
        # The cached view is built once and reused across reads.
        view = res._view()
        assert res._view() is view
        second = [res.percentile(p) for p in (0, 25, 50, 75, 99, 100)]
        assert first == second

    def test_add_invalidates_cache(self):
        res = LatencyReservoir()
        res.extend([2.0, 4.0])
        assert res.percentile(100.0) == 4.0
        res.add(6.0)
        assert res.percentile(100.0) == 6.0

    def test_extend_invalidates_cache(self):
        res = LatencyReservoir()
        res.add(10.0)
        assert res.percentile(50.0) == 10.0
        res.extend([1.0, 2.0])
        assert res.percentile(0.0) == 1.0
