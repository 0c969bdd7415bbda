"""Network substrate: packets, ports, and steering.

Models the parts of the network stack that matter at request
granularity: addressed packets with Ethernet/IPv4/UDP headers, NIC
ports with RX/TX rings, Toeplitz RSS and Flow-Director-style
exact-match steering.  The one wire is the Stingray's internal
MAC-steered fabric, with one port per host core, in
:mod:`repro.hw.smartnic`.
"""
