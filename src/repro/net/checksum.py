"""The RSS hash used by the NIC models.

:func:`toeplitz_hash` is the Microsoft RSS Toeplitz hash over flow
5-tuples, the function real RSS hardware implements (§2.1).
"""

from __future__ import annotations

from repro.net.addressing import FiveTuple

#: The canonical 40-byte RSS secret key from the Microsoft RSS spec;
#: the same default key ships in most NIC drivers.
DEFAULT_RSS_KEY = bytes([
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
    0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
    0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
])


def _toeplitz_bytes(key: bytes, data: bytes) -> int:
    """Core Toeplitz computation over *data* using *key*."""
    if len(key) < len(data) + 4:
        raise ValueError(
            f"RSS key too short: need {len(data) + 4} bytes, have {len(key)}")
    # The key is treated as a long bit string; for each set bit of the
    # input, XOR in the 32-bit key window starting at that bit position.
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    for byte_index, byte in enumerate(data):
        for bit in range(8):
            if byte & (0x80 >> bit):
                shift = key_bits - 32 - (byte_index * 8 + bit)
                result ^= (key_int >> shift) & 0xFFFFFFFF
    return result


def toeplitz_hash(flow: FiveTuple, key: bytes = DEFAULT_RSS_KEY) -> int:
    """Microsoft-RSS Toeplitz hash of a flow 5-tuple.

    Hashes the IPv4 source/destination addresses and the TCP/UDP
    source/destination ports (the standard RSS input for IPv4 +
    TCP/UDP); the protocol number selects participation, not hash
    input, matching real hardware.
    """
    data = (flow.src_ip.to_bytes(4, "big")
            + flow.dst_ip.to_bytes(4, "big")
            + flow.src_port.to_bytes(2, "big")
            + flow.dst_port.to_bytes(2, "big"))
    return _toeplitz_bytes(key, data)
