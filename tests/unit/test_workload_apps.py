"""Unit tests for the synthetic applications."""

import random

import pytest

from repro.errors import WorkloadError
from repro.units import us
from repro.workload.apps import (
    FaasApp,
    KvsApp,
    SpinApp,
)
from repro.workload.distributions import Fixed


@pytest.fixture
def rng():
    return random.Random(11)


class TestSpinApp:
    def test_service_from_distribution(self, rng):
        app = SpinApp(Fixed(us(3.0)))
        request = app.make_request(rng, now_ns=42.0)
        assert request.service_ns == us(3.0)
        assert request.arrival_ns == 42.0


class TestKvsApp:
    def test_get_set_mix(self, rng):
        app = KvsApp(get_ratio=0.9)
        n = 5000
        gets = sum(1 for _ in range(n)
                   if app.make_request(rng, 0.0).user_data == "GET")
        assert gets / n == pytest.approx(0.9, abs=0.02)

    def test_keys_within_space(self, rng):
        app = KvsApp(n_keys=100)
        for _ in range(200):
            request = app.make_request(rng, 0.0)
            assert 0 <= request.key < 100

    def test_zipf_skew(self, rng):
        """Popular keys dominate — the skew MICA-style partitioning
        suffers from."""
        app = KvsApp(n_keys=1000, zipf_s=0.99)
        counts = {}
        for _ in range(20000):
            key = app.make_request(rng, 0.0).key
            counts[key] = counts.get(key, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # Hottest key far above the uniform share (20 per key).
        assert top[0] > 200

    def test_set_slower_than_get(self, rng):
        app = KvsApp(get_ratio=0.5)
        gets, sets = set(), set()
        for _ in range(200):
            request = app.make_request(rng, 0.0)
            if request.user_data == "GET":
                gets.add(request.service_ns)
            else:
                sets.add(request.service_ns)
        assert max(gets) < min(sets)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            KvsApp(n_keys=0)
        with pytest.raises(WorkloadError):
            KvsApp(get_ratio=1.5)


class TestFaasApp:
    def test_bounded_tail(self, rng):
        app = FaasApp(low_us=2.0, high_us=500.0)
        for _ in range(2000):
            service = app.make_request(rng, 0.0).service_ns
            assert us(2.0) <= service <= us(500.0)

    def test_heavy_tailed(self):
        assert FaasApp().distribution.scv() > 1.0
