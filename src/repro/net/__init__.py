"""Network substrate: packets, ports, and steering.

Models the parts of the network stack that matter at request
granularity: addressed packets with Ethernet/IPv4/UDP headers, NIC
ports with RX/TX rings, Toeplitz RSS and Flow-Director-style
exact-match steering.  The one wire is the Stingray's internal
MAC-steered fabric, with one port per host core, in
:mod:`repro.hw.smartnic`.
"""

from repro.net.addressing import MacAddress, IpAddress, FiveTuple
from repro.net.packet import (
    EthernetHeader,
    Ipv4Header,
    UdpHeader,
    Packet,
    RequestPayload,
    ResponsePayload,
    NotifyPayload,
    ETH_HEADER_BYTES,
    IPV4_HEADER_BYTES,
    UDP_HEADER_BYTES,
)
from repro.net.checksum import toeplitz_hash, DEFAULT_RSS_KEY
from repro.net.port import NetworkPort
from repro.net.rss import RssSteering
from repro.net.flow_director import FlowDirector

__all__ = [
    "MacAddress",
    "IpAddress",
    "FiveTuple",
    "EthernetHeader",
    "Ipv4Header",
    "UdpHeader",
    "Packet",
    "RequestPayload",
    "ResponsePayload",
    "NotifyPayload",
    "ETH_HEADER_BYTES",
    "IPV4_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "toeplitz_hash",
    "DEFAULT_RSS_KEY",
    "NetworkPort",
    "RssSteering",
    "FlowDirector",
]
