"""Wired-side IPv6 and UDP packet model with bit-exact headers.

The IPv6 header is a fixed 40 octets, the UDP header a fixed 8.  TCP is
not modelled as a transport; it exists only as a next-header code and a
20-octet size constant for budget arithmetic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from ipaddress import IPv6Address

IPV6_HEADER_OCTETS = 40
UDP_HEADER_OCTETS = 8
TCP_HEADER_OCTETS = 20
IPV6_MIN_LINK_MTU = 1280

NEXT_HEADER_TCP = 6
NEXT_HEADER_UDP = 17
NEXT_HEADER_ICMPV6 = 58


class PacketError(ValueError):
    """Base class for IPv6/UDP codec failures."""


class BadVersion(PacketError):
    pass


class TruncatedHeader(PacketError):
    pass


@dataclass(frozen=True)
class Ipv6Packet:
    src: IPv6Address
    dst: IPv6Address
    next_header: int = NEXT_HEADER_UDP
    hop_limit: int = 64
    payload: bytes = b""
    traffic_class: int = 0
    flow_label: int = 0

    def __post_init__(self):
        if not 0 <= self.traffic_class <= 0xFF:
            raise ValueError(f"traffic class out of range: {self.traffic_class}")
        if not 0 <= self.flow_label <= 0xFFFFF:
            raise ValueError(f"flow label out of range: {self.flow_label}")
        if not 0 <= self.next_header <= 0xFF:
            raise ValueError(f"next header out of range: {self.next_header}")
        if not 0 <= self.hop_limit <= 0xFF:
            raise ValueError(f"hop limit out of range: {self.hop_limit}")
        if len(self.payload) > 0xFFFF:
            raise ValueError(f"payload too large: {len(self.payload)} octets")

    @property
    def payload_length(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class UdpDatagram:
    src_port: int
    dst_port: int
    checksum: int = 0
    payload: bytes = b""

    def __post_init__(self):
        for name in ("src_port", "dst_port", "checksum"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"{name} out of range: {value}")

    @property
    def length(self) -> int:
        return UDP_HEADER_OCTETS + len(self.payload)


def encode_ipv6(pkt: Ipv6Packet) -> bytes:
    word0 = (6 << 28) | (pkt.traffic_class << 20) | pkt.flow_label
    header = struct.pack(
        "!IHBB", word0, pkt.payload_length, pkt.next_header, pkt.hop_limit
    )
    return header + pkt.src.packed + pkt.dst.packed + pkt.payload


def decode_ipv6(data: bytes) -> Ipv6Packet:
    if len(data) < IPV6_HEADER_OCTETS:
        raise TruncatedHeader(f"IPv6 header needs 40 octets, got {len(data)}")
    word0, plen, next_header, hop_limit = struct.unpack("!IHBB", data[:8])
    if word0 >> 28 != 6:
        raise BadVersion(f"version {word0 >> 28}, expected 6")
    if len(data) < IPV6_HEADER_OCTETS + plen:
        raise TruncatedHeader(
            f"payload length {plen} but only {len(data) - IPV6_HEADER_OCTETS} octets follow"
        )
    if len(data) > IPV6_HEADER_OCTETS + plen:
        raise PacketError(f"{len(data) - IPV6_HEADER_OCTETS - plen} trailing octets")
    return Ipv6Packet(
        src=IPv6Address(data[8:24]),
        dst=IPv6Address(data[24:40]),
        next_header=next_header,
        hop_limit=hop_limit,
        payload=data[40:],
        traffic_class=(word0 >> 20) & 0xFF,
        flow_label=word0 & 0xFFFFF,
    )


def encode_udp(udp: UdpDatagram) -> bytes:
    header = struct.pack("!HHHH", udp.src_port, udp.dst_port, udp.length, udp.checksum)
    return header + udp.payload


def decode_udp(data: bytes) -> UdpDatagram:
    if len(data) < UDP_HEADER_OCTETS:
        raise TruncatedHeader(f"UDP header needs 8 octets, got {len(data)}")
    src_port, dst_port, length, checksum = struct.unpack("!HHHH", data[:8])
    if length < UDP_HEADER_OCTETS:
        raise PacketError(f"UDP length field {length} below header size")
    if length != len(data):
        raise PacketError(f"UDP length field {length} but {len(data)} octets present")
    return UdpDatagram(src_port, dst_port, checksum, data[8:])


def udp_checksum(src: IPv6Address, dst: IPv6Address, udp: UdpDatagram) -> int:
    """Checksum over the IPv6 pseudo-header, UDP header and payload.

    The all-zero result is transmitted as 0xFFFF per the usual UDP rule.
    """
    pseudo = (
        src.packed
        + dst.packed
        + struct.pack("!I3xB", udp.length, NEXT_HEADER_UDP)
    )
    header = struct.pack("!HHHH", udp.src_port, udp.dst_port, udp.length, 0)
    data = pseudo + header + udp.payload
    # 2**16 == 1 (mod 0xFFFF), so the buffer read as one big-endian integer is
    # congruent to its ones'-complement word sum; both zero forms (0, 0xFFFF)
    # end as 0xFFFF through the `or` below.
    total = int.from_bytes(data + bytes(len(data) % 2), "big") % 0xFFFF
    return (~total & 0xFFFF) or 0xFFFF


def udp_packet(
    src: IPv6Address, dst: IPv6Address, sport: int, dport: int, payload: bytes
) -> Ipv6Packet:
    """An IPv6 packet carrying one UDP datagram with its checksum filled in."""
    udp = UdpDatagram(sport, dport, 0, payload)
    udp = UdpDatagram(sport, dport, udp_checksum(src, dst, udp), payload)
    return Ipv6Packet(src=src, dst=dst, next_header=NEXT_HEADER_UDP, payload=encode_udp(udp))
