"""Unit tests for the Stingray SmartNIC fabric (§3.3)."""

import pytest

from repro.config import StingrayConfig
from repro.errors import DeliveryError, HardwareError
from repro.hw.smartnic import FabricDomain, StingraySmartNic
from repro.net.packet import EthernetHeader, Packet


def _packet(src_port, dst_mac):
    return Packet(eth=EthernetHeader(src=src_port.mac, dst=dst_mac),
                  payload="x")


@pytest.fixture
def nic(sim):
    return StingraySmartNic(sim, StingrayConfig())


def _arrival_time(sim, dst_port):
    """Run a process that timestamps the next arrival at *dst_port*."""
    times = []

    def receiver():
        yield dst_port.poll()
        times.append(sim.now)

    sim.process(receiver())
    return times


class TestFabricLatencies:
    def test_arm_to_host_is_measured_2_56us(self, sim, nic):
        """§3.3: 'The ARM CPU to host CPU communication latency is
        2.56 µs.'"""
        arm = nic.create_port(FabricDomain.ARM, "arm0")
        vf = nic.create_port(FabricDomain.HOST, "vf0")
        times = _arrival_time(sim, vf)
        arm.transmit(_packet(arm, vf.mac))
        sim.run()
        assert times == [pytest.approx(2560.0)]

    def test_host_to_arm_symmetric(self, sim, nic):
        arm = nic.create_port(FabricDomain.ARM, "arm0")
        vf = nic.create_port(FabricDomain.HOST, "vf0")
        times = _arrival_time(sim, arm)
        vf.transmit(_packet(vf, arm.mac))
        sim.run()
        assert times == [pytest.approx(2560.0)]

    def test_external_to_arm_is_nic_pipeline(self, sim, nic):
        arm = nic.create_port(FabricDomain.ARM, "arm0")
        ext = nic.create_port(FabricDomain.EXTERNAL, "wire")
        times = _arrival_time(sim, arm)
        packet = Packet(eth=EthernetHeader(src=ext.mac, dst=arm.mac),
                        payload="x")
        nic.external_ingress(packet)
        sim.run()
        assert times == [pytest.approx(StingrayConfig().fabric_external_arm_ns)]

    def test_intra_domain_latency(self, sim, nic):
        a = nic.create_port(FabricDomain.ARM, "arm0")
        b = nic.create_port(FabricDomain.ARM, "arm1")
        times = _arrival_time(sim, b)
        a.transmit(_packet(a, b.mac))
        sim.run()
        assert times == [pytest.approx(StingrayConfig().fabric_intra_ns)]

    # Distinct values per field, so a pair that reads the wrong field
    # cannot pass by coincidence.
    _CONFIG = StingrayConfig(one_way_latency_ns=2560.0,
                             fabric_external_arm_ns=300.0,
                             fabric_external_host_ns=500.0,
                             fabric_intra_ns=100.0)
    _EXPECTED = {
        ("EXTERNAL", "EXTERNAL"): "fabric_intra_ns",
        ("EXTERNAL", "ARM"): "fabric_external_arm_ns",
        ("EXTERNAL", "HOST"): "fabric_external_host_ns",
        ("ARM", "EXTERNAL"): "fabric_external_arm_ns",
        ("ARM", "ARM"): "fabric_intra_ns",
        ("ARM", "HOST"): "one_way_latency_ns",
        ("HOST", "EXTERNAL"): "fabric_external_host_ns",
        ("HOST", "ARM"): "one_way_latency_ns",
        ("HOST", "HOST"): "fabric_intra_ns",
    }

    @pytest.mark.parametrize("src,dst", sorted(_EXPECTED))
    def test_every_domain_pair_uses_its_configured_latency(self, sim,
                                                           src, dst):
        """Each of the nine (src, dst) pairs takes the one config field
        that models it, and counts under that pair."""
        nic = StingraySmartNic(sim, self._CONFIG)
        tx = nic.create_port(FabricDomain[src], "tx")
        rx = nic.create_port(FabricDomain[dst], "rx")
        times = _arrival_time(sim, rx)
        tx.transmit(_packet(tx, rx.mac))
        sim.run()
        field = self._EXPECTED[(src, dst)]
        assert times == [getattr(self._CONFIG, field)]
        assert nic.forwarded == {(FabricDomain[src], FabricDomain[dst]): 1}

    @pytest.mark.parametrize("src", ["ARM", "HOST", "EXTERNAL"])
    def test_uplink_egress_takes_the_wire_latency_of_its_source(
            self, sim, src):
        from repro.net.addressing import MacAddress
        nic = StingraySmartNic(sim, self._CONFIG)
        out = []
        nic.attach_uplink(lambda packet: out.append(sim.now))
        tx = nic.create_port(FabricDomain[src], "tx")
        tx.transmit(_packet(tx, MacAddress(0xDEAD)))
        sim.run()
        field = self._EXPECTED[(src, "EXTERNAL")]
        assert out == [getattr(self._CONFIG, field)]
        assert nic.egressed == 1
        assert nic.forwarded == {}


class TestSteering:
    @pytest.mark.parametrize("target", range(4))
    def test_mac_steering_reaches_correct_vf(self, sim, nic, target):
        """§3.2-1: requests addressed to specific cores by MAC."""
        vfs = [nic.create_port(FabricDomain.HOST, f"vf{i}") for i in range(4)]
        arm = nic.create_port(FabricDomain.ARM, "arm0")
        arm.transmit(_packet(arm, vfs[target].mac))
        sim.run()
        assert vfs[target].rx_count == 1
        assert all(vf.rx_count == 0
                   for i, vf in enumerate(vfs) if i != target)

    def test_unknown_mac_egresses_uplink(self, sim, nic):
        from repro.net.addressing import MacAddress
        out = []
        nic.attach_uplink(out.append)
        arm = nic.create_port(FabricDomain.ARM, "arm0")
        arm.transmit(_packet(arm, MacAddress(0xDEAD)))
        sim.run()
        assert len(out) == 1
        assert nic.egressed == 1

    def test_unknown_mac_without_uplink_raises(self, sim, nic):
        from repro.net.addressing import MacAddress
        arm = nic.create_port(FabricDomain.ARM, "arm0")
        with pytest.raises(DeliveryError):
            arm.transmit(_packet(arm, MacAddress(0xDEAD)))
        assert nic.undeliverable == 1

    def test_forwarding_counters(self, sim, nic):
        arm = nic.create_port(FabricDomain.ARM, "arm0")
        vf = nic.create_port(FabricDomain.HOST, "vf0")
        arm.transmit(_packet(arm, vf.mac))
        sim.run()
        assert nic.forwarded[(FabricDomain.ARM, FabricDomain.HOST)] == 1

    def test_ports_in_listing(self, sim, nic):
        nic.create_port(FabricDomain.ARM, "arm0")
        nic.create_port(FabricDomain.HOST, "vf0")
        nic.create_port(FabricDomain.HOST, "vf1")
        assert len(nic.ports_in(FabricDomain.HOST)) == 2
        assert len(nic.ports_in(FabricDomain.ARM)) == 1
        assert len(nic.ports_in(FabricDomain.EXTERNAL)) == 0

    def test_lookup(self, sim, nic):
        vf = nic.create_port(FabricDomain.HOST, "vf0")
        assert nic.lookup(vf.mac) is vf
        from repro.net.addressing import MacAddress
        assert nic.lookup(MacAddress(0x1)) is None

    def test_unique_macs_per_nic(self, sim, nic):
        ports = [nic.create_port(FabricDomain.HOST, f"vf{i}")
                 for i in range(16)]
        assert len({p.mac for p in ports}) == 16

    def test_shared_allocator_keeps_macs_unique_across_nics(self, sim):
        from repro.net.addressing import mac_allocator
        macs = mac_allocator()
        a = StingraySmartNic(sim, StingrayConfig(), macs=macs, name="a")
        b = StingraySmartNic(sim, StingrayConfig(), macs=macs, name="b")
        ports = [nic.create_port(FabricDomain.HOST, f"vf{i}")
                 for nic in (a, b) for i in range(8)]
        assert len({p.mac for p in ports}) == 16

    def test_duplicate_mac_rejected(self, sim):
        from repro.net.addressing import MacAddress
        nic = StingraySmartNic(sim, StingrayConfig(),
                               macs=iter([MacAddress(0x42)] * 2))
        nic.create_port(FabricDomain.HOST, "vf0")
        with pytest.raises(HardwareError):
            nic.create_port(FabricDomain.HOST, "vf1")
