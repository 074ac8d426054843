import struct
from ipaddress import IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from value_checks import check_rebuild, raises_exactly as _raises_exactly

from lowpan.gateway import AppHeader, GatewayError, NwkFrame
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


@settings(max_examples=300)
@given(first=st.integers(0, 0xFF), rest=st.binary(max_size=80), fix_length=st.booleans())
def test_decode_ipv6_raises_only_packet_errors(first, rest, fix_length):
    data = bytearray([first]) + rest
    if fix_length and len(data) >= IPV6_HEADER_OCTETS:
        struct.pack_into("!H", data, 4, len(data) - IPV6_HEADER_OCTETS)
    try:
        decode_ipv6(bytes(data))
    except PacketError:
        pass


@settings(max_examples=300)
@given(data=st.binary(max_size=40), fix_length=st.booleans())
def test_decode_udp_raises_only_packet_errors(data, fix_length):
    data = bytearray(data)
    if fix_length and len(data) >= UDP_HEADER_OCTETS:
        struct.pack_into("!H", data, 4, len(data))
    try:
        udp = decode_udp(bytes(data))
    except PacketError:
        return
    check_rebuild(udp)


# --- value types ----------------------------------------------------------

def test_packet_value_types_keep_their_checks():
    pkt = _packet(payload=b"hi")
    udp = UdpDatagram(7, 9, 0x1234, b"data")
    nwk = NwkFrame(dst_short=1, src_short=2, sequence=3, payload=b"apl")

    # every range check, with its error class and message
    for field, top, name in (
        ("traffic_class", 0xFF, "traffic class"),
        ("flow_label", 0xFFFFF, "flow label"),
        ("next_header", 0xFF, "next header"),
        ("hop_limit", 0xFF, "hop limit"),
    ):
        _packet(**{field: top})
        _packet(**{field: 0})
        _raises_exactly(ValueError, f"{name} out of range: {top + 1}", lambda: _packet(**{field: top + 1}))
        _raises_exactly(ValueError, f"{name} out of range: -1", lambda: _packet(**{field: -1}))
    _packet(payload=bytes(0xFFFF))
    _raises_exactly(ValueError, "payload too large: 65536 octets", lambda: _packet(payload=bytes(0x10000)))
    # the checks run in field order: traffic class first, payload size last
    _raises_exactly(
        ValueError, "traffic class out of range: 256",
        lambda: _packet(traffic_class=256, flow_label=-1, hop_limit=256, payload=bytes(0x10000)),
    )
    for position, name in enumerate(("src_port", "dst_port", "checksum")):
        fields = [0, 0, 0]
        fields[position] = 0xFFFF
        UdpDatagram(*fields)
        fields[position] = 0x10000
        _raises_exactly(ValueError, f"{name} out of range: 65536", lambda: UdpDatagram(*fields))
        fields[position] = -1
        _raises_exactly(ValueError, f"{name} out of range: -1", lambda: UdpDatagram(*fields))
    _raises_exactly(ValueError, "src_port out of range: -1", lambda: UdpDatagram(-1, -1, -1))
    collision = "frame control would collide with 6LoWPAN dispatch space"
    for frame_control in (0x4000, 0x8000, 0xC000, 0x40FF):
        _raises_exactly(GatewayError, collision, lambda: NwkFrame(1, 2, frame_control=frame_control))
    NwkFrame(1, 2, frame_control=0x3FFF)
    nwk_fields = (("dst_short", 0xFFFF), ("src_short", 0xFFFF), ("radius", 0xFF), ("sequence", 0xFF))
    for position, (name, top) in enumerate(nwk_fields):
        fields = [0, 0, 0, 0]
        fields[position] = top
        NwkFrame(*fields)
        fields[position] = top + 1
        _raises_exactly(ValueError, f"{name} out of range: {top + 1}", lambda: NwkFrame(*fields))
        fields[position] = -1
        _raises_exactly(ValueError, f"{name} out of range: -1", lambda: NwkFrame(*fields))
    _raises_exactly(ValueError, "frame_control out of range: 65536", lambda: NwkFrame(1, 2, frame_control=0x10000))
    for position, name in enumerate(("src_devid", "dst_devid")):
        fields = [0, 0]
        fields[position] = 0xFFFF
        AppHeader(*fields)
        fields[position] = 0x10000
        _raises_exactly(ValueError, f"{name} out of range: 65536", lambda: AppHeader(*fields))
        fields[position] = -1
        _raises_exactly(ValueError, f"{name} out of range: -1", lambda: AppHeader(*fields))

    # no other way to build one skips them
    _raises_exactly(ValueError, "hop limit out of range: 256", lambda: pkt._replace(hop_limit=256))
    _raises_exactly(ValueError, "flow label out of range: 1048576", lambda: Ipv6Packet._make((SRC, DST, 17, 64, b"", 0, 1 << 20)))
    _raises_exactly(ValueError, "checksum out of range: 65536", lambda: udp._replace(checksum=0x10000))
    _raises_exactly(ValueError, "dst_port out of range: -1", lambda: UdpDatagram._make((1, -1, 0, b"")))
    _raises_exactly(GatewayError, collision, lambda: nwk._replace(frame_control=0xC000))
    _raises_exactly(GatewayError, collision, lambda: NwkFrame._make((1, 2, 8, 0, 0x8000, b"")))
    _raises_exactly(ValueError, "radius out of range: 256", lambda: nwk._replace(radius=256))
    _raises_exactly(ValueError, "dst_devid out of range: 65536", lambda: AppHeader._make((1, 0x10000)))
    assert udp._replace(checksum=5) == UdpDatagram(7, 9, 5, b"data")
    assert pkt._replace(hop_limit=1) == _packet(payload=b"hi", hop_limit=1)

    # immutable
    for value, field in ((pkt, "hop_limit"), (udp, "checksum"), (nwk, "sequence")):
        with pytest.raises(AttributeError):
            setattr(value, field, 2)
        with pytest.raises(AttributeError):
            value.extra = 2

    # hashed and compared by value, and only within one class
    assert pkt == _packet(payload=b"hi") and hash(pkt) == hash(_packet(payload=b"hi"))
    assert pkt != _packet(payload=b"ho") and not pkt == _packet(payload=b"ho")
    assert udp == UdpDatagram(7, 9, 0x1234, b"data") and hash(udp) == hash(UdpDatagram(7, 9, 0x1234, b"data"))
    assert udp != UdpDatagram(7, 9, 0x1235, b"data")
    assert nwk == NwkFrame(1, 2, 8, 3, 0x0900, b"apl") and hash(nwk) == hash(NwkFrame(1, 2, 8, 3, 0x0900, b"apl"))
    assert nwk != NwkFrame(1, 2, 8, 4, 0x0900, b"apl")
    assert len({pkt, _packet(payload=b"hi"), udp, UdpDatagram(7, 9, 0x1234, b"data")}) == 2
    assert NwkFrame(1, 2, 8, 0) != UdpDatagram(1, 2, 8, b"") and UdpDatagram(1, 2, 8, b"") != NwkFrame(1, 2, 8, 0)
    for value, bare in (
        (pkt, (SRC, DST, 17, 64, b"hi", 0, 0)),
        (udp, (7, 9, 0x1234, b"data")),
        (nwk, (1, 2, 8, 3, 0x0900, b"apl")),
    ):
        assert value != bare and bare != value and not value == bare

    # the constructors' keywords, defaults and repr
    assert Ipv6Packet(SRC, DST) == Ipv6Packet(
        src=SRC, dst=DST, next_header=NEXT_HEADER_UDP, hop_limit=64, payload=b"", traffic_class=0, flow_label=0
    )
    assert UdpDatagram(1, 2) == UdpDatagram(src_port=1, dst_port=2, checksum=0, payload=b"")
    assert NwkFrame(1, 2) == NwkFrame(
        dst_short=1, src_short=2, radius=8, sequence=0, frame_control=0x0900, payload=b""
    )
    assert pkt.payload_length == 2 and udp.length == 12
    assert repr(pkt) == (
        "Ipv6Packet(src=IPv6Address('fe80::1'), dst=IPv6Address('2001:db8::2'), next_header=17, "
        "hop_limit=64, payload=b'hi', traffic_class=0, flow_label=0)"
    )
    assert repr(udp) == "UdpDatagram(src_port=7, dst_port=9, checksum=4660, payload=b'data')"
    assert repr(nwk) == (
        "NwkFrame(dst_short=1, src_short=2, radius=8, sequence=3, frame_control=2304, payload=b'apl')"
    )
    assert NwkFrame.decode(nwk.encode()) == nwk
