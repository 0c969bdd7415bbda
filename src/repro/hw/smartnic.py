"""The Broadcom Stingray SmartNIC model (§3.3).

The PS225 presents network interfaces — each with a unique MAC — to
both the host CPU (via SR-IOV virtual functions) and the on-board ARM
CPU.  An internal fabric steers packets by destination MAC.  The two
facts the paper's results rest on are captured directly:

1. ARM <-> host traffic is *packet-switched* with a measured one-way
   latency of 2.56 µs — "it is not possible to implement lower-overhead
   communication as the ARM CPU and the host CPU do not share physical
   memory" (§3.3).
2. Any party can address any interface by MAC, so the NIC can steer
   requests to specific host cores without cross-core coordination
   (§3.2 requirement 1).

:class:`StingraySmartNic` is a fabric of :class:`~repro.net.port.NetworkPort`
objects tagged with a :class:`FabricDomain`; per-domain-pair latencies
realize the published numbers.  Packets whose destination MAC is not a
NIC-attached interface egress through the external uplink (toward the
top-of-rack switch and the clients).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.config import StingrayConfig
from repro.errors import DeliveryError, HardwareError
from repro.net.addressing import IpAddress, MacAddress, mac_allocator
from repro.net.packet import Packet
from repro.net.port import NetworkPort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class FabricDomain(enum.Enum):
    """Which side of the NIC a port lives on."""

    EXTERNAL = "external"   # the physical Ethernet ports / uplink
    ARM = "arm"             # interfaces presented to the ARM SoC cores
    HOST = "host"           # SR-IOV VFs presented to host CPU cores


#: Fixed domain ordering backing the flattened latency/counter tables.
_DOMAINS = (FabricDomain.EXTERNAL, FabricDomain.ARM, FabricDomain.HOST)
_DOMAIN_INDEX = {domain: i for i, domain in enumerate(_DOMAINS)}


class _FabricPort:
    """Internal record: a registered port plus its domain."""

    __slots__ = ("port", "domain", "index")

    def __init__(self, port: NetworkPort, domain: FabricDomain):
        self.port = port
        self.domain = domain
        self.index = _DOMAIN_INDEX[domain]


class StingraySmartNic:
    """The SmartNIC: MAC-steered internal fabric + attached interfaces.

    Parameters
    ----------
    sim:
        Owning simulator.
    config:
        Latency/cost parameters (see :class:`repro.config.StingrayConfig`).
    macs:
        Optional shared MAC allocator (so clients and NIC interfaces
        never collide); a private one is created otherwise.
    """

    def __init__(self, sim: "Simulator", config: StingrayConfig = StingrayConfig(),
                 macs: Optional[Iterator[MacAddress]] = None,
                 name: str = "stingray"):
        self.sim = sim
        self.config = config
        self.name = name
        self.macs = macs if macs is not None else mac_allocator()
        # Keyed by the MAC's integer value: MacAddress hashes through a
        # Python-level __hash__, which is measurable at per-packet rate.
        self._ports: Dict[int, _FabricPort] = {}
        self._uplink: Optional[Callable[[Packet], None]] = None
        # Flattened (src_index * 3 + dst_index) tables: per-pair forward
        # counters and the precomputed fabric latencies.
        self._forward_counts = [0] * 9
        self._latency = tuple(self._fabric_latency(src, dst)
                              for src in _DOMAINS for dst in _DOMAINS)
        #: Packets sent out the uplink.
        self.egressed = 0
        #: Packets dropped for having an unknown destination and no uplink.
        self.undeliverable = 0

    @property
    def forwarded(self) -> Dict[Tuple[FabricDomain, FabricDomain], int]:
        """Packets forwarded internally, by (src_domain, dst_domain)."""
        counts = self._forward_counts
        out: Dict[Tuple[FabricDomain, FabricDomain], int] = {}
        for si, src in enumerate(_DOMAINS):
            for di, dst in enumerate(_DOMAINS):
                n = counts[si * 3 + di]
                if n:
                    out[(src, dst)] = n
        return out

    # -- interface management ---------------------------------------------------

    def create_port(self, domain: FabricDomain, name: str,
                    ip: Optional[IpAddress] = None) -> NetworkPort:
        """Create an interface on *domain* with a fresh unique MAC.

        The returned port's ``transmit`` feeds the NIC fabric; its
        ``poll`` is how the owning CPU (ARM core or host worker)
        receives traffic.
        """
        mac = next(self.macs)
        port = NetworkPort(self.sim, mac, ip=ip,
                           rx_ring_depth=self.config.ring_depth,
                           name=f"{self.name}:{name}")
        self._register(port, domain)
        return port

    def _register(self, port: NetworkPort, domain: FabricDomain) -> None:
        if port.mac.value in self._ports:
            raise HardwareError(f"duplicate MAC {port.mac} on {self.name}")
        self._ports[port.mac.value] = _FabricPort(port, domain)
        # The port transmits straight into the fabric; fabric latency is
        # applied per destination, so the TX hop itself is free.
        port.attach_tx(_FabricTx(self, domain))

    def attach_uplink(self, deliver: Callable[[Packet], None]) -> None:
        """Connect the external wire (toward the ToR switch/clients)."""
        self._uplink = deliver

    def ports_in(self, domain: FabricDomain) -> List[NetworkPort]:
        """All interfaces registered on *domain*."""
        return [fp.port for fp in self._ports.values() if fp.domain is domain]

    def lookup(self, mac: MacAddress) -> Optional[NetworkPort]:
        """The NIC-attached port owning *mac*, or None."""
        fp = self._ports.get(mac.value)
        return fp.port if fp is not None else None

    # -- data path ----------------------------------------------------------------

    def external_ingress(self, packet: Packet) -> None:
        """Entry point for packets arriving on the physical wire."""
        self._forward(packet, 0)

    def _forward(self, packet: Packet, src_index: int) -> None:
        # packet.hop() inlined: one call per fabric traversal adds up.
        packet.hops = hops = packet.hops + 1
        if hops > Packet.MAX_HOPS:
            packet.hops = hops - 1
            packet.hop()  # raises with the canonical loop diagnostic
        # Every fabric traversal is one wire hop for fault purposes —
        # request dispatch, notifications, and responses alike.
        extra_ns = 0.0
        injector = self.sim.fault_injector
        if injector is not None and injector.link_active:
            where = f"nic:{self.name}"
            verdict, extra_ns = injector.link_verdict(where)
            if verdict not in ("deliver", "reorder"):
                injector.on_packet_lost(packet, where=where, kind=verdict)
                return
        fp = self._ports.get(packet.eth.dst.value)
        if fp is None:
            self._egress(packet, src_index, extra_ns)
            return
        key = src_index * 3 + fp.index
        self._forward_counts[key] += 1
        latency = self._latency[key] + extra_ns
        receive = fp.port.receive
        if latency > 0:
            self.sim.defer(latency, receive, packet)
        else:
            receive(packet)

    def _egress(self, packet: Packet, src_index: int,
                extra_ns: float = 0.0) -> None:
        if self._uplink is None:
            self.undeliverable += 1
            raise DeliveryError(
                f"{self.name}: unknown destination {packet.eth.dst} "
                "and no uplink attached")
        self.egressed += 1
        # Destination EXTERNAL is index 0 in the flattened table.
        latency = self._latency[src_index * 3] + extra_ns
        uplink = self._uplink
        if latency > 0:
            self.sim.defer(latency, uplink, packet)
        else:
            uplink(packet)

    def _fabric_latency(self, src: FabricDomain, dst: FabricDomain) -> float:
        """Latency of one fabric traversal between domains.

        The ARM<->host number is the paper's measured 2.56 µs one-way
        path (§3.3); external<->ARM/host are conventional NIC pipeline
        and DMA costs.  Identity-compare chain (latencies are symmetric
        per unordered pair): enum set/dict operations hash through a
        Python-level ``__hash__`` and showed up hot under profile.
        """
        cfg = self.config
        if src is dst:
            return cfg.fabric_intra_ns
        external = FabricDomain.EXTERNAL
        if src is external:
            return (cfg.fabric_external_arm_ns if dst is FabricDomain.ARM
                    else cfg.fabric_external_host_ns)
        if dst is external:
            return (cfg.fabric_external_arm_ns if src is FabricDomain.ARM
                    else cfg.fabric_external_host_ns)
        # The remaining distinct pair is ARM <-> HOST.
        return cfg.one_way_latency_ns

    def __repr__(self) -> str:
        counts = {d.value: len(self.ports_in(d)) for d in FabricDomain}
        return f"<StingraySmartNic {self.name!r} ports={counts}>"


class _FabricTx:
    """A port's transmitter: ``transmit`` enters the Stingray fabric
    from the port's domain."""

    __slots__ = ("nic", "domain", "index")

    def __init__(self, nic: StingraySmartNic, domain: FabricDomain):
        self.nic = nic
        self.domain = domain
        self.index = _DOMAIN_INDEX[domain]

    def transmit(self, packet: Packet) -> None:
        self.nic._forward(packet, self.index)
