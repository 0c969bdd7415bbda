"""Unit tests for time/rate/size conversions."""

import pytest

from repro import units


class TestTime:
    def test_us_to_ns(self):
        assert units.us(2.56) == 2560.0

    def test_ms_to_ns(self):
        assert units.ms(1.5) == 1_500_000.0

    def test_seconds_to_ns(self):
        assert units.seconds(3.0) == 3_000_000_000.0

    def test_to_us(self):
        assert units.to_us(2560.0) == 2.56


class TestCycles:
    def test_paper_interrupt_cost(self):
        # 1272 cycles at 2.3 GHz ~= 553 ns (§3.4.4)
        assert units.cycles_to_ns(1272, 2.3) == pytest.approx(553.04, abs=0.01)

    def test_paper_timer_arm_cost(self):
        # 40 cycles at 2.3 GHz ~= 17.4 ns
        assert units.cycles_to_ns(40, 2.3) == pytest.approx(17.39, abs=0.01)

    def test_zero_clock_rejected(self):
        with pytest.raises(ValueError):
            units.cycles_to_ns(100, 0.0)


class TestRates:
    def test_interarrival_for_1mrps(self):
        assert units.rps_to_interarrival_ns(1e6) == 1000.0

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            units.rps_to_interarrival_ns(0)


class TestBandwidth:
    def test_goodput_paper_claim_64b(self):
        # §1: 5 M RPS of 64 B requests = 2.5 Gbps (actually 2.56)
        assert units.goodput_bps(5e6, 64) == pytest.approx(2.56e9)

    def test_goodput_paper_claim_1kib(self):
        # §1: 5 M RPS of 1 KiB requests ~= 41 Gbps
        assert units.goodput_bps(5e6, 1024) == pytest.approx(40.96e9)
