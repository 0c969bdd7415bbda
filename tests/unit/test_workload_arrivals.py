"""Unit tests for arrival processes."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workload.arrivals import (
    PoissonArrivals,
    UniformArrivals,
)


@pytest.fixture
def rng():
    return random.Random(5)


class TestPoisson:
    def test_mean_gap_matches_rate(self, rng):
        arrivals = PoissonArrivals(rate_rps=1e6)  # mean gap 1000 ns
        n = 30000
        mean_gap = sum(arrivals.next_gap_ns(rng) for _ in range(n)) / n
        assert mean_gap == pytest.approx(1000.0, rel=0.03)

    def test_gaps_are_variable(self, rng):
        arrivals = PoissonArrivals(rate_rps=1e6)
        gaps = {round(arrivals.next_gap_ns(rng), 3) for _ in range(100)}
        assert len(gaps) > 90

    def test_validation(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(0.0)


class TestUniform:
    def test_constant_gaps(self, rng):
        arrivals = UniformArrivals(rate_rps=2e6)
        gaps = [arrivals.next_gap_ns(rng) for _ in range(10)]
        assert all(g == 500.0 for g in gaps)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            UniformArrivals(-1.0)
