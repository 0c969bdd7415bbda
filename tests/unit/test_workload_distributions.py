"""Unit tests for service-time distributions."""

import random

import pytest

from repro.errors import WorkloadError
from repro.units import us
from repro.workload.distributions import (
    BIMODAL_FIG2,
    Bimodal,
    BoundedPareto,
    Exponential,
    Fixed,
    Mixture,
)


@pytest.fixture
def rng():
    return random.Random(99)


def _sample_mean(dist, rng, n=20000):
    return sum(dist.sample(rng) for _ in range(n)) / n


class TestFixed:
    def test_sample_is_constant(self, rng):
        dist = Fixed(us(5.0))
        assert all(dist.sample(rng) == us(5.0) for _ in range(10))

    def test_moments(self):
        assert Fixed(100.0).mean_ns() == 100.0
        assert Fixed(100.0).scv() == 0.0

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            Fixed(-1.0)


class TestExponential:
    def test_empirical_mean(self, rng):
        dist = Exponential(us(10.0))
        assert _sample_mean(dist, rng) == pytest.approx(us(10.0), rel=0.05)

    def test_scv_is_one(self):
        assert Exponential(100.0).scv() == 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(WorkloadError):
            Exponential(0.0)


class TestBimodal:
    def test_fig2_parameters(self):
        """Figure 2: 99.5% at 5 µs, 0.5% at 100 µs."""
        assert BIMODAL_FIG2.fast_ns == us(5.0)
        assert BIMODAL_FIG2.slow_ns == us(100.0)
        assert BIMODAL_FIG2.p_slow == 0.005

    def test_fig2_mean(self):
        assert BIMODAL_FIG2.mean_ns() == pytest.approx(
            0.995 * us(5.0) + 0.005 * us(100.0))

    def test_samples_take_only_two_values(self, rng):
        values = {BIMODAL_FIG2.sample(rng) for _ in range(5000)}
        assert values <= {us(5.0), us(100.0)}
        assert values == {us(5.0), us(100.0)}  # both appear at n=5000

    def test_slow_fraction(self, rng):
        dist = Bimodal(us(1.0), us(10.0), p_slow=0.25)
        n = 40000
        slow = sum(1 for _ in range(n) if dist.sample(rng) == us(10.0))
        assert slow / n == pytest.approx(0.25, abs=0.02)

    def test_high_dispersion(self):
        """The §2.2-2 point: the bimodal is far more dispersed than
        exponential."""
        assert BIMODAL_FIG2.scv() > 1.0

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            Bimodal(-1.0, 10.0, 0.5)
        with pytest.raises(WorkloadError):
            Bimodal(1.0, 10.0, 1.5)


class TestBoundedPareto:
    def test_samples_within_bounds(self, rng):
        dist = BoundedPareto(us(2.0), us(500.0), alpha=1.2)
        for _ in range(2000):
            value = dist.sample(rng)
            assert us(2.0) <= value <= us(500.0)

    def test_empirical_mean_matches_analytic(self, rng):
        dist = BoundedPareto(us(2.0), us(500.0), alpha=1.2)
        assert _sample_mean(dist, rng, n=60000) == pytest.approx(
            dist.mean_ns(), rel=0.08)

    def test_heavy_tail_scv(self):
        dist = BoundedPareto(us(2.0), us(500.0), alpha=1.1)
        assert dist.scv() > 1.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BoundedPareto(10.0, 5.0)
        with pytest.raises(WorkloadError):
            BoundedPareto(1.0, 10.0, alpha=0.0)


class TestMixture:
    def test_weights_normalized(self):
        mix = Mixture([(3.0, Fixed(10.0)), (1.0, Fixed(20.0))])
        assert mix.mean_ns() == pytest.approx(0.75 * 10.0 + 0.25 * 20.0)

    def test_mixture_scv_exceeds_components(self):
        """Mixing two separated latency classes creates dispersion
        neither class has (§2.2-2's co-location point)."""
        mix = Mixture([(0.99, Fixed(us(5.0))), (0.01, Fixed(us(1000.0)))])
        assert mix.scv() > 1.0

    def test_empirical_mean(self, rng):
        mix = Mixture([(1.0, Fixed(100.0)), (1.0, Exponential(300.0))])
        assert _sample_mean(mix, rng) == pytest.approx(200.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            Mixture([])
        with pytest.raises(WorkloadError):
            Mixture([(-1.0, Fixed(1.0))])
        with pytest.raises(WorkloadError):
            Mixture([(0.0, Fixed(1.0))])


class TestBimodalEquivalence:
    def test_bimodal_matches_equivalent_mixture(self):
        bimodal = Bimodal(us(5.0), us(100.0), p_slow=0.005)
        mixture = Mixture([(0.995, Fixed(us(5.0))),
                           (0.005, Fixed(us(100.0)))])
        assert bimodal.mean_ns() == pytest.approx(mixture.mean_ns())
        assert bimodal.scv() == pytest.approx(mixture.scv())
