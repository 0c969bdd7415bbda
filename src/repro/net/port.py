"""NIC ports: an RX ring, a TX path into the fabric, and a MAC address.

Every polling entity on the NIC — the ARM networking subsystem, each
SR-IOV worker interface — owns a :class:`NetworkPort`, created by
:meth:`~repro.hw.smartnic.StingraySmartNic.create_port`.
The RX ring is a bounded FIFO (tail-drop on overflow, like a real
descriptor ring); polling is event-based, so an idle poller costs no
simulation events.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.net.addressing import IpAddress, MacAddress
from repro.net.packet import Packet
from repro.sim.primitives import Store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.smartnic import _FabricTx
    from repro.sim.engine import Simulator
    from repro.sim.events import Event


class NetworkPort:
    """One network interface: MAC, RX ring, and a transmitter into the
    Stingray fabric that owns it.

    Parameters
    ----------
    sim:
        Owning simulator.
    mac:
        This interface's address.
    ip:
        Optional IPv4 address for building L3 packets.
    rx_ring_depth:
        RX descriptor-ring depth; arrivals beyond it are dropped and
        counted in :attr:`rx_dropped`.
    """

    def __init__(self, sim: "Simulator", mac: MacAddress,
                 ip: Optional[IpAddress] = None,
                 rx_ring_depth: int = 1024, name: str = ""):
        self.sim = sim
        self.mac = mac
        self.ip = ip
        self.name = name or str(mac)
        self.rx_ring: Store = Store(sim, capacity=rx_ring_depth,
                                    name=f"{self.name}:rx")
        self._tx: Optional["_FabricTx"] = None
        #: Packets dropped at RX because the ring was full.
        self.rx_dropped = 0
        #: Packets received (accepted into the ring).
        self.rx_count = 0
        #: Packets transmitted.
        self.tx_count = 0

    # -- wiring -------------------------------------------------------------

    def attach_tx(self, tx: "_FabricTx") -> None:
        """Connect this port's transmitter to the fabric entry *tx*."""
        self._tx = tx

    # -- data path ----------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Deliver *packet* into the RX ring (fabric-side entry point)."""
        if self.rx_ring.try_put(packet):
            self.rx_count += 1
        else:
            self.rx_dropped += 1

    def poll(self) -> "Event":
        """Event-valued receive of the next packet (blocks while empty)."""
        return self.rx_ring.get()

    def try_poll(self) -> tuple:
        """Non-blocking poll: ``(True, packet)`` or ``(False, None)``."""
        return self.rx_ring.try_get()

    def cancel_poll(self, event: "Event") -> None:
        """Withdraw a pending :meth:`poll` (poller was preempted)."""
        self.rx_ring.cancel_get(event)

    def transmit(self, packet: Packet) -> None:
        """Send *packet* into the fabric through the attached transmitter."""
        if self._tx is None:
            raise NetworkError(f"port {self.name!r} has no transmitter attached")
        self.tx_count += 1
        self._tx.transmit(packet)

    @property
    def rx_depth(self) -> int:
        """Packets currently waiting in the RX ring."""
        return len(self.rx_ring)

    def __repr__(self) -> str:
        return (f"<NetworkPort {self.name!r} mac={self.mac} "
                f"rx={self.rx_depth} dropped={self.rx_dropped}>")
