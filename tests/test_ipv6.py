import struct
from ipaddress import IPv6Address

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lowpan.ipv6 import (
    IPV6_HEADER_OCTETS,
    NEXT_HEADER_UDP,
    TCP_HEADER_OCTETS,
    UDP_HEADER_OCTETS,
    BadVersion,
    Ipv6Packet,
    PacketError,
    TruncatedHeader,
    UdpDatagram,
    decode_ipv6,
    decode_udp,
    encode_ipv6,
    encode_udp,
    udp_checksum,
)

SRC = IPv6Address("fe80::1")
DST = IPv6Address("2001:db8::2")


def _packet(**kwargs) -> Ipv6Packet:
    defaults = dict(src=SRC, dst=DST, next_header=NEXT_HEADER_UDP, payload=b"")
    defaults.update(kwargs)
    return Ipv6Packet(**defaults)


def test_header_sizes():
    assert len(encode_ipv6(_packet())) == IPV6_HEADER_OCTETS
    assert len(encode_udp(UdpDatagram(1, 2))) == UDP_HEADER_OCTETS
    assert TCP_HEADER_OCTETS == 20


addresses = st.builds(IPv6Address, st.integers(0, 2**128 - 1))


@given(
    src=addresses,
    dst=addresses,
    tc=st.integers(0, 255),
    fl=st.integers(0, 0xFFFFF),
    nh=st.integers(0, 255),
    hl=st.integers(0, 255),
    payload=st.binary(max_size=128),
)
def test_ipv6_roundtrip(src, dst, tc, fl, nh, hl, payload):
    pkt = Ipv6Packet(
        src=src, dst=dst, next_header=nh, hop_limit=hl,
        payload=payload, traffic_class=tc, flow_label=fl,
    )
    assert decode_ipv6(encode_ipv6(pkt)) == pkt


@given(
    sport=st.integers(0, 0xFFFF),
    dport=st.integers(0, 0xFFFF),
    checksum=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=128),
)
def test_udp_roundtrip(sport, dport, checksum, payload):
    udp = UdpDatagram(sport, dport, checksum, payload)
    assert decode_udp(encode_udp(udp)) == udp
    assert udp.length == 8 + len(payload)


def test_ipv6_decode_errors():
    pkt = encode_ipv6(_packet(payload=b"abcd"))
    with pytest.raises(TruncatedHeader):
        decode_ipv6(pkt[:30])
    with pytest.raises(TruncatedHeader):
        decode_ipv6(pkt[:-1])
    with pytest.raises(PacketError):
        decode_ipv6(pkt + b"\x00")
    with pytest.raises(BadVersion):
        decode_ipv6(b"\x40" + pkt[1:])


def test_udp_decode_errors():
    with pytest.raises(TruncatedHeader):
        decode_udp(b"\x00" * 7)
    bad_length = struct.pack("!HHHH", 1, 2, 3, 0)
    with pytest.raises(PacketError):
        decode_udp(bad_length)
    mismatch = struct.pack("!HHHH", 1, 2, 12, 0) + b"ab"
    with pytest.raises(PacketError):
        decode_udp(mismatch)


# --- checksum -----------------------------------------------------------

def _checksum_oracle(src: IPv6Address, dst: IPv6Address, udp: UdpDatagram) -> int:
    """Independent struct-based ones-complement implementation."""
    data = (
        src.packed
        + dst.packed
        + struct.pack("!I3xB", udp.length, 17)
        + struct.pack("!HHHH", udp.src_port, udp.dst_port, udp.length, 0)
        + udp.payload
    )
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total & 0xFFFF) or 0xFFFF


def test_all_zero_packet_checksum():
    zero = IPv6Address("::")
    udp = UdpDatagram(0, 0, 0, b"")
    assert udp_checksum(zero, zero, udp) == 0xFFDE  # frozen from the oracle
    assert _checksum_oracle(zero, zero, udp) == 0xFFDE


@given(
    src=addresses,
    dst=addresses,
    sport=st.integers(0, 0xFFFF),
    dport=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=96),
)
def test_checksum_matches_oracle(src, dst, sport, dport, payload):
    udp = UdpDatagram(sport, dport, 0, payload)
    assert udp_checksum(src, dst, udp) == _checksum_oracle(src, dst, udp)


def test_checksum_of_word_sum_congruent_to_zero():
    # pseudo-header and UDP header words sum to 37; 0xFFDA brings the total to 0xFFFF
    zero = IPv6Address("::")
    udp = UdpDatagram(0, 0, 0, b"\xff\xda")
    assert udp.length == 10
    assert udp_checksum(zero, zero, udp) == 0xFFFF
    assert _checksum_oracle(zero, zero, udp) == 0xFFFF
    # the same congruence after several end-around carries: header words now sum to 49
    wrapped = UdpDatagram(0, 0, 0, b"\xff\xff" * 3 + b"\xff\xce")
    assert udp_checksum(zero, zero, wrapped) == _checksum_oracle(zero, zero, wrapped) == 0xFFFF


def test_bit_flip_changes_checksum():
    udp = UdpDatagram(7, 9, 0, b"\x00\x10\x20\x30")
    flipped = UdpDatagram(7, 9, 0, b"\x00\x10\x20\x31")
    assert udp_checksum(SRC, DST, udp) != udp_checksum(SRC, DST, flipped)


def test_roundtrip_preserves_checksum():
    udp = UdpDatagram(7, 9, 0, b"data")
    udp = UdpDatagram(7, 9, udp_checksum(SRC, DST, udp), b"data")
    pkt = _packet(payload=encode_udp(udp))
    back = decode_udp(decode_ipv6(encode_ipv6(pkt)).payload)
    assert back.checksum == udp.checksum
