"""Unit tests for the preemption driver (§3.4.4, §5.1-3)."""

import pytest

from repro.config import ARM_HOST_ONE_WAY_NS, PreemptionConfig
from repro.core.preemption import PreemptionDriver
from repro.errors import ConfigError
from repro.hw.cpu import CpuCore
from repro.units import us


@pytest.fixture
def thread(sim):
    return CpuCore(sim, "c0", clock_ghz=2.3).threads[0]


def _driver(thread, mechanism="dune", slice_us=10.0, deliver=None):
    config = PreemptionConfig(time_slice_ns=us(slice_us), mechanism=mechanism)
    return PreemptionDriver(thread, config, deliver=deliver)


class TestMechanismCosts:
    def test_dune_costs(self, thread):
        driver = _driver(thread, "dune")
        assert driver.arm_cost_ns == pytest.approx(40 / 2.3)
        assert driver.receipt_cost_ns == pytest.approx(1272 / 2.3)
        assert driver.delivery_latency_ns == 0.0

    def test_linux_costs(self, thread):
        driver = _driver(thread, "linux")
        assert driver.arm_cost_ns == pytest.approx(610 / 2.3)
        assert driver.receipt_cost_ns == pytest.approx(4193 / 2.3)

    def test_nic_packet_latency(self, thread):
        driver = _driver(thread, "nic_packet")
        assert driver.arm_cost_ns == 0.0
        assert driver.delivery_latency_ns == ARM_HOST_ONE_WAY_NS

    def test_direct_latency(self, thread):
        driver = _driver(thread, "direct")
        assert driver.delivery_latency_ns == pytest.approx(200.0)
        assert driver.delivery_latency_ns < ARM_HOST_ONE_WAY_NS

    @pytest.mark.parametrize("mechanism,arm_cycles,receipt_cycles", [
        ("dune", 40, 1272),
        ("linux", 610, 4193),
        # The NIC mechanisms cost the worker nothing to arm and land as
        # posted interrupts.
        ("nic_packet", 0, 1272),
        ("direct", 0, 1272),
    ])
    def test_costs_are_cycles_on_the_worker_clock(
            self, sim, mechanism, arm_cycles, receipt_cycles):
        thread = CpuCore(sim, "c1", clock_ghz=3.0).threads[0]
        driver = _driver(thread, mechanism)
        assert driver.arm_cost_ns == pytest.approx(arm_cycles / 3.0)
        assert driver.receipt_cost_ns == pytest.approx(receipt_cycles / 3.0)

    def test_disabled_preemption_rejected(self, thread):
        config = PreemptionConfig(time_slice_ns=None)
        with pytest.raises(ConfigError):
            PreemptionDriver(thread, config)

    def test_nic_scan_has_no_local_driver(self, thread):
        with pytest.raises(ConfigError, match="nic_scan"):
            _driver(thread, "nic_scan")


class TestArmCancel:
    @pytest.mark.parametrize("mechanism,late_ns", [
        ("dune", 0.0), ("linux", 0.0),
        ("nic_packet", ARM_HOST_ONE_WAY_NS),  # §3.4.4: 2.56 us late
        ("direct", 200.0),                    # §5.1: sub-microsecond wire
    ])
    def test_fires_at_slice_expiry(self, sim, thread, mechanism, late_ns):
        hits = []
        driver = _driver(thread, mechanism,
                         deliver=lambda cause: hits.append(sim.now))

        def worker():
            yield driver.arm(at=sim.now)
            yield sim.timeout(us(100.0))

        sim.process(worker())
        sim.run()
        assert hits == [pytest.approx(us(10.0) + late_ns)]
        assert driver.fired == 1

    def test_arm_at_starts_the_slice_later(self, sim, thread):
        """arm(at=t) lands the expiry on exactly t + slice and returns
        the arm cost, charged to the thread up front."""
        hits = []
        driver = _driver(thread, deliver=lambda cause: hits.append(
            (sim.now, cause)))
        ready = 123.4
        cost = driver.arm(cause="req", at=ready)
        assert cost == driver.arm_cost_ns
        assert thread.busy_ns == cost
        sim.run()
        assert hits == [(ready + us(10.0), "req")]

    @pytest.mark.parametrize("mechanism",
                             ["dune", "linux", "nic_packet", "direct"])
    def test_cancel_before_expiry(self, sim, thread, mechanism):
        hits = []
        driver = _driver(thread, mechanism,
                         deliver=lambda cause: hits.append(sim.now))

        def worker():
            yield driver.arm(at=sim.now)
            yield sim.timeout(us(5.0))
            driver.cancel()
            yield sim.timeout(us(100.0))

        sim.process(worker())
        sim.run()
        assert hits == []
        assert driver.cancelled == 1

    def test_armed_until_fired_or_cancelled(self, sim, thread):
        driver = _driver(thread, deliver=lambda cause: None)
        assert not driver.armed
        driver.arm(at=sim.now)
        assert driver.armed
        driver.cancel()
        assert not driver.armed
        driver.cancel()  # a second cancel is a no-op
        assert driver.cancelled == 1
        driver.arm(at=sim.now)
        sim.run()
        assert not driver.armed
        assert driver.fired == 1

    def test_rearm_replaces(self, sim, thread):
        hits = []
        driver = _driver(thread, deliver=lambda cause: hits.append(sim.now))

        def worker():
            yield driver.arm(at=sim.now)
            yield sim.timeout(us(5.0))
            yield driver.arm(at=sim.now)  # re-arm at t=5us: fires at 15us
            yield sim.timeout(us(100.0))

        sim.process(worker())
        sim.run()
        # Small drift: the re-arm happens after the first arm cost.
        assert hits == [pytest.approx(us(15.0), rel=0.01)]

    def test_cause_passed_through(self, sim, thread):
        causes = []
        driver = _driver(thread, deliver=causes.append)

        def worker():
            yield driver.arm(cause="the-request", at=sim.now)
            yield sim.timeout(us(100.0))

        sim.process(worker())
        sim.run()
        assert causes == ["the-request"]

    def test_missing_deliver_hook_raises(self, sim, thread):
        driver = _driver(thread, deliver=None)

        def worker():
            yield driver.arm(at=sim.now)
            yield sim.timeout(us(100.0))

        sim.process(worker())
        # The expiry callback runs in the kernel, so the configuration
        # error surfaces from the event loop itself.
        with pytest.raises(ConfigError):
            sim.run()


class TestPacketMechanismArtifact:
    def test_in_flight_packet_survives_cancel(self, sim, thread):
        """§3.4.4: a packet interrupt already sent cannot be recalled;
        it lands on whatever runs next."""
        hits = []
        driver = _driver(thread, "nic_packet",
                         deliver=lambda cause: hits.append(sim.now))

        def worker():
            yield driver.arm(at=sim.now)
            # The slice expires at 10 us; the packet is now in flight.
            yield sim.timeout(us(10.0) + 100.0)
            driver.cancel()  # too late: the packet left the NIC
            yield sim.timeout(us(100.0))

        sim.process(worker())
        sim.run()
        assert hits == [pytest.approx(us(10.0) + ARM_HOST_ONE_WAY_NS)]

    def test_cancel_before_expiry_still_works(self, sim, thread):
        hits = []
        driver = _driver(thread, "nic_packet",
                         deliver=lambda cause: hits.append(sim.now))

        def worker():
            yield driver.arm(at=sim.now)
            yield sim.timeout(us(5.0))
            driver.cancel()
            yield sim.timeout(us(100.0))

        sim.process(worker())
        sim.run()
        assert hits == []
