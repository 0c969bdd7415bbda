"""Unit tests for NIC ports."""

import pytest

from repro.errors import NetworkError
from repro.hw.smartnic import FabricDomain, StingraySmartNic
from repro.net.addressing import MacAddress
from repro.net.packet import EthernetHeader, Packet
from repro.net.port import NetworkPort


def _packet():
    return Packet(eth=EthernetHeader(src=MacAddress(1), dst=MacAddress(2)),
                  payload="x")


class TestReceive:
    def test_receive_then_poll(self, sim):
        port = NetworkPort(sim, MacAddress(10))
        port.receive(_packet())
        got = []

        def poller(sim):
            packet = yield port.poll()
            got.append(packet)

        sim.process(poller(sim))
        sim.run()
        assert len(got) == 1
        assert port.rx_count == 1

    def test_poll_blocks_until_arrival(self, sim):
        port = NetworkPort(sim, MacAddress(10))
        got = []

        def poller(sim):
            yield port.poll()
            got.append(sim.now)

        sim.process(poller(sim))
        sim.defer(77.0, lambda: port.receive(_packet()))
        sim.run()
        assert got == [77.0]

    def test_ring_overflow_drops(self, sim):
        port = NetworkPort(sim, MacAddress(10), rx_ring_depth=2)
        for _ in range(5):
            port.receive(_packet())
        assert port.rx_depth == 2
        assert port.rx_dropped == 3
        assert port.rx_count == 2

    def test_try_poll(self, sim):
        port = NetworkPort(sim, MacAddress(10))
        ok, packet = port.try_poll()
        assert not ok and packet is None
        port.receive(_packet())
        ok, packet = port.try_poll()
        assert ok and packet is not None

    def test_cancel_poll(self, sim):
        port = NetworkPort(sim, MacAddress(10))
        ev = port.poll()
        port.cancel_poll(ev)
        port.receive(_packet())
        assert port.rx_depth == 1
        assert not ev.triggered


class TestTransmit:
    def test_transmit_enters_the_fabric(self, sim):
        """A NIC-created port transmits through the fabric transmitter
        the NIC attached; the packet lands after the ARM->host hop."""
        nic = StingraySmartNic(sim)
        arm = nic.create_port(FabricDomain.ARM, "arm")
        host = nic.create_port(FabricDomain.HOST, "vf0")
        arm.transmit(Packet(eth=EthernetHeader(src=arm.mac, dst=host.mac),
                            payload="x"))
        sim.run()
        assert arm.tx_count == 1
        assert host.rx_count == 1
        assert sim.now == nic.config.one_way_latency_ns

    def test_transmit_without_transmitter_rejected(self, sim):
        port = NetworkPort(sim, MacAddress(10))
        with pytest.raises(NetworkError):
            port.transmit(_packet())
