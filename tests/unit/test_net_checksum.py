"""Unit tests for the Toeplitz hash implementation."""

import pytest

from repro.net.addressing import FiveTuple
from repro.net.checksum import DEFAULT_RSS_KEY, _toeplitz_bytes, toeplitz_hash


class TestToeplitz:
    # Verification vectors from the Microsoft RSS specification
    # (IPv4 with TCP ports, default key).
    @staticmethod
    def _ip(text: str) -> int:
        octets = [int(p) for p in text.split(".")]
        return (octets[0] << 24) | (octets[1] << 16) \
            | (octets[2] << 8) | octets[3]

    def test_msdn_vector_1(self):
        # 66.9.149.187:2794 -> 161.142.100.80:1766, hash 0x51ccc178
        flow = FiveTuple(src_ip=self._ip("66.9.149.187"),
                         dst_ip=self._ip("161.142.100.80"),
                         src_port=2794, dst_port=1766, protocol=6)
        assert toeplitz_hash(flow) == 0x51CCC178

    def test_msdn_vector_2(self):
        # 199.92.111.2:14230 -> 65.69.140.83:4739, hash 0xc626b0ea
        flow = FiveTuple(src_ip=self._ip("199.92.111.2"),
                         dst_ip=self._ip("65.69.140.83"),
                         src_port=14230, dst_port=4739, protocol=6)
        assert toeplitz_hash(flow) == 0xC626B0EA

    def test_msdn_vector_3(self):
        # 24.19.198.95:12898 -> 12.22.207.184:38024, hash 0x5c2b394a
        flow = FiveTuple(src_ip=self._ip("24.19.198.95"),
                         dst_ip=self._ip("12.22.207.184"),
                         src_port=12898, dst_port=38024, protocol=6)
        assert toeplitz_hash(flow) == 0x5C2B394A

    def test_msdn_vector_4(self):
        # 38.27.205.30:48228 -> 209.142.163.6:2217, hash 0xafc7327f
        flow = FiveTuple(src_ip=self._ip("38.27.205.30"),
                         dst_ip=self._ip("209.142.163.6"),
                         src_port=48228, dst_port=2217, protocol=6)
        assert toeplitz_hash(flow) == 0xAFC7327F

    def test_msdn_vector_5(self):
        # 153.39.163.191:44251 -> 202.188.127.2:1303, hash 0x10e828a2
        flow = FiveTuple(src_ip=self._ip("153.39.163.191"),
                         dst_ip=self._ip("202.188.127.2"),
                         src_port=44251, dst_port=1303, protocol=6)
        assert toeplitz_hash(flow) == 0x10E828A2

    # Address-pair-only variants of the same five flows, default key,
    # through the Toeplitz core that toeplitz_hash feeds.
    @pytest.mark.parametrize("src,dst,expected", [
        ("66.9.149.187", "161.142.100.80", 0x323E8FC2),
        ("199.92.111.2", "65.69.140.83", 0xD718262A),
        ("24.19.198.95", "12.22.207.184", 0xD2D0A5DE),
        ("38.27.205.30", "209.142.163.6", 0x82989176),
        ("153.39.163.191", "202.188.127.2", 0x5D1809C5),
    ])
    def test_msdn_vector_ipv4_only(self, src, dst, expected):
        data = (self._ip(src).to_bytes(4, "big")
                + self._ip(dst).to_bytes(4, "big"))
        assert _toeplitz_bytes(DEFAULT_RSS_KEY, data) == expected

    def test_deterministic(self):
        flow = FiveTuple(1, 2, 3, 4, 17)
        assert toeplitz_hash(flow) == toeplitz_hash(flow)

    def test_port_sensitivity(self):
        a = FiveTuple(1, 2, 1000, 9000, 17)
        b = FiveTuple(1, 2, 1001, 9000, 17)
        assert toeplitz_hash(a) != toeplitz_hash(b)

    def test_hash_is_32_bit(self):
        flow = FiveTuple(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, 0xFFFF, 17)
        assert 0 <= toeplitz_hash(flow) < (1 << 32)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_hash(FiveTuple(1, 2, 3, 4, 17), key=b"\x02" * 8)

    def test_zero_input_hashes_to_zero(self):
        assert toeplitz_hash(FiveTuple(0, 0, 0, 0, 17)) == 0
