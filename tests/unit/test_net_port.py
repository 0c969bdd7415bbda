"""Unit tests for NIC ports."""

import pytest

from repro.errors import NetworkError
from repro.net.addressing import MacAddress
from repro.net.link import Link
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
    def test_transmit_via_attached_link(self, sim):
        got = []
        port = NetworkPort(sim, MacAddress(10))
        port.attach_tx(Link(sim, latency_ns=10.0,
                            deliver=lambda p: got.append(sim.now)))
        port.transmit(_packet())
        sim.run()
        assert got == [10.0]
        assert port.tx_count == 1

    def test_transmit_without_link_rejected(self, sim):
        port = NetworkPort(sim, MacAddress(10))
        with pytest.raises(NetworkError):
            port.transmit(_packet())
