import random
from ipaddress import IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from value_checks import check_rebuild, raises_exactly

from lowpan import addressing
from lowpan.codec import (
    DISPATCH_BC0,
    DISPATCH_HC1,
    DISPATCH_IPV6,
    CodecError,
    DispatchKind,
    FragHeader,
    Hc1Encoding,
    MalformedBc0,
    MalformedFrag,
    MalformedHc2,
    MalformedHeader,
    MalformedMesh,
    MeshHeader,
    SizeOverflow,
    UnknownDispatch,
    UnsupportedDispatch,
    compress_ipv6,
    compress_udp,
    decode_bc0,
    decode_frag,
    decode_mesh,
    decompress_ipv6,
    decompress_udp,
    decrement_hops,
    encode_bc0,
    encode_frag_first,
    encode_frag_subsequent,
    encode_mesh,
    parse_dispatch,
)
from lowpan.frame import Eui64, Short16
from lowpan.ipv6 import (
    NEXT_HEADER_ICMPV6,
    NEXT_HEADER_TCP,
    NEXT_HEADER_UDP,
    Ipv6Packet,
    UdpDatagram,
    encode_ipv6,
    encode_udp,
)

L2_SRC = Short16(0xBEEF, 0x0001)
L2_DST = Short16(0xBEEF, 0x0002)
SRC_LL = addressing.link_local(addressing.iid_for(L2_SRC))
DST_LL = addressing.link_local(addressing.iid_for(L2_DST))


# --- dispatch ------------------------------------------------------------

def test_dispatch_examples():
    assert parse_dispatch(0x41) is DispatchKind.UNCOMPRESSED_IPV6
    assert parse_dispatch(0x42) is DispatchKind.HC1
    assert parse_dispatch(0x50) is DispatchKind.BC0
    assert parse_dispatch(0x7F) is DispatchKind.ADDITIONAL
    assert parse_dispatch(0xB3) is DispatchKind.MESH
    assert parse_dispatch(0xC1) is DispatchKind.FRAG_FIRST
    assert parse_dispatch(0xE5) is DispatchKind.FRAG_SUBSEQUENT
    assert parse_dispatch(0x00) is DispatchKind.NOT_LOWPAN


def test_dispatch_exhaustive_against_golden(golden_dir):
    lines = (golden_dir / "dispatch_table.txt").read_text().splitlines()
    assert len(lines) == 256
    for line in lines:
        byte_hex, kind = line.split()
        assert parse_dispatch(int(byte_hex, 16)).value == kind


def test_dispatch_total():
    kinds = {parse_dispatch(b) for b in range(256)}
    assert kinds == set(DispatchKind)
    for byte in (0x100, -1):
        raises_exactly(ValueError, f"dispatch byte out of range: {byte}", lambda: parse_dispatch(byte))


# --- HC1 ------------------------------------------------------------------

def _udp_packet(sport=0xF0B3, dport=0xF0BF, payload=b"hi", **kwargs) -> Ipv6Packet:
    udp = UdpDatagram(sport, dport, 0x3919, payload)
    defaults = dict(
        src=SRC_LL, dst=DST_LL, next_header=NEXT_HEADER_UDP,
        hop_limit=64, payload=encode_udp(udp),
    )
    defaults.update(kwargs)
    return Ipv6Packet(**defaults)


def test_every_hc1_octet_decodes_to_a_value_that_encodes_it():
    for byte in range(256):
        enc = Hc1Encoding.from_byte(byte)
        check_rebuild(enc)
        assert enc.to_byte() == byte


@pytest.mark.parametrize("fields, message", [
    ((4, 0, False, 0, False), "src_mode out of range: 4"),
    ((0, -1, False, 0, False), "dst_mode out of range: -1"),
    ((0, 0, 2, 0, False), "tcfl_zero out of range: 2"),
    ((0, 0, False, 4, False), "next_header_mode out of range: 4"),
    ((0, 0, False, 0, 2), "hc2_follows out of range: 2"),
], ids=["src_mode", "dst_mode", "tcfl_zero", "next_header_mode", "hc2_follows"])
def test_an_hc1_field_wider_than_its_bits_is_refused(fields, message):
    # unchecked, (4, 0, False, 0, False) would encode as 0x100
    raises_exactly(ValueError, message, lambda: Hc1Encoding(*fields))


def test_hc1_best_case_layout():
    stream = compress_ipv6(_udp_packet(), L2_SRC, L2_DST)
    assert stream[0] == DISPATCH_HC1
    assert stream[1] == 0xFB
    assert stream[2] == 64  # hop limit rides in full
    # IPv6 header portion after the dispatch byte: HC1 octet + hop limit
    assert stream[3:] == bytes([0xE0, 0x3F, 0x39, 0x19]) + b"hi"
    assert len(stream) == 1 + 2 + 4 + 2


def test_hc1_best_case_two_octets_non_udp():
    pkt = Ipv6Packet(
        src=SRC_LL, dst=DST_LL, next_header=NEXT_HEADER_ICMPV6, hop_limit=64, payload=b"ping"
    )
    stream = compress_ipv6(pkt, L2_SRC, L2_DST)
    assert stream[:3] == bytes([DISPATCH_HC1, 0b11111100, 64])
    assert stream[3:] == b"ping"


def test_an_hc1_icmpv6_code_decompresses_to_next_header_58():
    # addresses from L2, traffic class and flow label zero, next-header code 2 (ICMPv6), no HC2
    stream = bytes([DISPATCH_HC1, 0b11111100, 64]) + b"ping"
    pkt = decompress_ipv6(stream, L2_SRC, L2_DST)
    assert pkt.next_header == 58  # a literal, not the imported constant, so a wrong constant fails
    assert pkt.hop_limit == 64 and pkt.payload == b"ping"


def test_global_source_carried_inline():
    pkt = _udp_packet(src=IPv6Address("2001:db8::1234"))
    stream = compress_ipv6(pkt, L2_SRC, L2_DST)
    enc = Hc1Encoding.from_byte(stream[1])
    assert enc.src_mode == 0  # prefix + IID inline
    assert stream[3:19] == IPv6Address("2001:db8::1234").packed
    assert decompress_ipv6(stream, L2_SRC, L2_DST) == pkt


def test_prefix_inline_iid_from_l2():
    src = addressing.global_unicast(IPv6Address("2001:db8::"), addressing.iid_for(L2_SRC))
    pkt = _udp_packet(src=src)
    stream = compress_ipv6(pkt, L2_SRC, L2_DST)
    enc = Hc1Encoding.from_byte(stream[1])
    assert enc.src_mode == 1
    assert stream[3:11] == IPv6Address("2001:db8::").packed[:8]
    assert decompress_ipv6(stream, L2_SRC, L2_DST) == pkt


def test_link_local_foreign_iid_inline():
    pkt = _udp_packet(src=IPv6Address("fe80::dead:beef"))
    stream = compress_ipv6(pkt, L2_SRC, L2_DST)
    enc = Hc1Encoding.from_byte(stream[1])
    assert enc.src_mode == 2
    assert decompress_ipv6(stream, L2_SRC, L2_DST) == pkt


def test_nonzero_traffic_class_inline():
    pkt = _udp_packet(traffic_class=0x20)
    stream = compress_ipv6(pkt, L2_SRC, L2_DST)
    enc = Hc1Encoding.from_byte(stream[1])
    assert not enc.tcfl_zero
    assert stream[3] == 0x20
    assert stream[4:7] == b"\x00\x00\x00"
    assert decompress_ipv6(stream, L2_SRC, L2_DST) == pkt


def test_unknown_next_header_inline():
    pkt = _udp_packet(next_header=200, payload=b"xyz")
    stream = compress_ipv6(pkt, L2_SRC, L2_DST)
    enc = Hc1Encoding.from_byte(stream[1])
    assert enc.next_header_mode == 0 and not enc.hc2_follows
    assert stream[3] == 200
    assert decompress_ipv6(stream, L2_SRC, L2_DST) == pkt


def test_tcp_icmp_payloads_pass_through():
    for nh in (NEXT_HEADER_TCP, NEXT_HEADER_ICMPV6):
        pkt = _udp_packet(next_header=nh, payload=bytes(range(30)))
        stream = compress_ipv6(pkt, L2_SRC, L2_DST)
        assert stream[3:] == pkt.payload  # not touched
        assert decompress_ipv6(stream, L2_SRC, L2_DST) == pkt


def test_malformed_udp_rides_verbatim():
    # next header says UDP but the payload is too short for a UDP header
    pkt = Ipv6Packet(src=SRC_LL, dst=DST_LL, next_header=NEXT_HEADER_UDP, payload=b"\x00\x01")
    stream = compress_ipv6(pkt, L2_SRC, L2_DST)
    assert not Hc1Encoding.from_byte(stream[1]).hc2_follows
    assert decompress_ipv6(stream, L2_SRC, L2_DST) == pkt


def test_uncompressed_dispatch_verbatim():
    pkt = _udp_packet()
    stream = bytes([DISPATCH_IPV6]) + encode_ipv6(pkt)
    assert decompress_ipv6(stream, L2_SRC, L2_DST) == pkt


def test_decompress_errors():
    with pytest.raises(MalformedHeader):
        decompress_ipv6(compress_ipv6(_udp_packet(), L2_SRC, L2_DST)[:4], L2_SRC, L2_DST)
    with pytest.raises(UnknownDispatch):
        decompress_ipv6(b"\x50\x00", L2_SRC, L2_DST)
    with pytest.raises(UnsupportedDispatch):
        decompress_ipv6(b"\x7f\x00", L2_SRC, L2_DST)
    stream = compress_ipv6(_udp_packet(src=IPv6Address("2001:db8::9")), L2_SRC, L2_DST)
    with pytest.raises(MalformedHeader):
        decompress_ipv6(stream[:10], L2_SRC, L2_DST)  # inside the inline address


def test_decompress_rejects_fields_ipv6_cannot_hold():
    # HC1 with all fields inline except next header (UDP, no HC2): tc 0, flow label 0x100000
    stream = bytes([DISPATCH_HC1, 0x02, 64]) + bytes(32) + b"\x00\x10\x00\x00"
    with pytest.raises(MalformedHeader, match="flow label"):
        decompress_ipv6(stream, L2_SRC, L2_DST)
    # fully elided header (UDP, no HC2) followed by more octets than the payload length field holds
    with pytest.raises(MalformedHeader, match="payload too large"):
        decompress_ipv6(bytes([DISPATCH_HC1, 0xFA, 64]) + bytes(0x10000), L2_SRC, L2_DST)


# HC1 0x00 carries every field inline: source, destination, tc/fl, next header.
ALL_INLINE = bytes([DISPATCH_HC1, 0x00, 64]) + bytes(range(16)) + bytes(range(16, 32))
# HC1 0xFB elides both addresses, tc/fl and the next header (UDP), and flags HC2;
# an HC2 error's offset counts from the HC2 octet.
HC2_AFTER = bytes([DISPATCH_HC1, 0xFB, 64])


@pytest.mark.parametrize(
    "stream, l2_src, l2_dst, cls, message, offset",
    [
        pytest.param(b"", L2_SRC, L2_DST, MalformedHeader, "empty stream", 0, id="empty"),
        pytest.param(ALL_INLINE[:1], L2_SRC, L2_DST, MalformedHeader, "HC1 stream truncated", 1, id="hc1-octet"),
        pytest.param(ALL_INLINE[:2], L2_SRC, L2_DST, MalformedHeader, "HC1 stream truncated", 2, id="hop-limit"),
        pytest.param(ALL_INLINE[:8], L2_SRC, L2_DST, MalformedHeader, "inline address truncated", 3, id="src"),
        pytest.param(ALL_INLINE[:29], L2_SRC, L2_DST, MalformedHeader, "inline address truncated", 19, id="dst"),
        pytest.param(ALL_INLINE + b"\x00\x01", L2_SRC, L2_DST, MalformedHeader,
                     "traffic class / flow label truncated", 35, id="tcfl"),
        pytest.param(ALL_INLINE + b"\x00\x01\x02\x03", L2_SRC, L2_DST, MalformedHeader,
                     "inline next header truncated", 39, id="next-header"),
        pytest.param(ALL_INLINE + b"\x00\xF0\x00\x00\x11", L2_SRC, L2_DST, MalformedHeader,
                     "flow label out of range: 15728640", 40, id="flow-label"),
        pytest.param(bytes([DISPATCH_HC1, 0xFA, 64]) + bytes(0x10000), L2_SRC, L2_DST, MalformedHeader,
                     "payload too large: 65536 octets", 3, id="payload-length"),
        pytest.param(bytes([DISPATCH_HC1, 0x40, 64]) + bytes(8), None, L2_DST, MalformedHeader,
                     "IID elided but no link address", 3, id="src-mode-1-no-link"),
        pytest.param(bytes([DISPATCH_HC1, 0xC0, 64]), None, L2_DST, MalformedHeader,
                     "address elided but no link address", 3, id="src-mode-3-no-link"),
        pytest.param(bytes([DISPATCH_HC1, 0x10, 64]) + bytes(24), L2_SRC, None, MalformedHeader,
                     "IID elided but no link address", 19, id="dst-mode-1-no-link"),
        pytest.param(bytes([DISPATCH_HC1, 0x30, 64]) + bytes(16), L2_SRC, None, MalformedHeader,
                     "address elided but no link address", 19, id="dst-mode-3-no-link"),
        pytest.param(bytes([DISPATCH_HC1, 0xFD, 64]), L2_SRC, L2_DST, MalformedHeader,
                     "HC2 flagged for a non-UDP next header", 1, id="hc2-not-udp"),
        pytest.param(HC2_AFTER, L2_SRC, L2_DST, MalformedHc2, "empty HC2 region", 3, id="hc2-empty"),
        pytest.param(HC2_AFTER + b"\xE0", L2_SRC, L2_DST, MalformedHc2,
                     "HC2 header truncated", 4, id="hc2-ports-octet"),
        pytest.param(HC2_AFTER + b"\x20\xF0", L2_SRC, L2_DST, MalformedHc2,
                     "HC2 header truncated", 4, id="hc2-src-port"),
        pytest.param(HC2_AFTER + b"\xA0", L2_SRC, L2_DST, MalformedHc2,
                     "HC2 header truncated", 4, id="hc2-src-port-octet"),
        pytest.param(HC2_AFTER + b"\xA0\x01\xF0", L2_SRC, L2_DST, MalformedHc2,
                     "HC2 header truncated", 5, id="hc2-dst-port"),
        pytest.param(HC2_AFTER + b"\x60\xF0\xB0", L2_SRC, L2_DST, MalformedHc2,
                     "HC2 header truncated", 6, id="hc2-dst-port-octet"),
        pytest.param(HC2_AFTER + b"\xC0\x12\x00", L2_SRC, L2_DST, MalformedHc2,
                     "HC2 header truncated", 5, id="hc2-length"),
        pytest.param(HC2_AFTER + b"\xE0\x12\xAB", L2_SRC, L2_DST, MalformedHc2,
                     "HC2 header truncated", 5, id="hc2-checksum"),
        pytest.param(HC2_AFTER + b"\xC0\x12\x00\x0A\xAB\xCDx", L2_SRC, L2_DST, MalformedHc2,
                     "inline length 10 but 9 octets of datagram", 9, id="hc2-length-disagrees"),
    ],
)
def test_decompress_error_class_message_and_offset(stream, l2_src, l2_dst, cls, message, offset):
    with pytest.raises(CodecError) as info:
        decompress_ipv6(stream, l2_src, l2_dst)
    assert (type(info.value), str(info.value), info.value.offset) == (cls, message, offset)


@settings(max_examples=300)
@given(
    dispatch=st.sampled_from([DISPATCH_HC1, DISPATCH_IPV6]),
    rest=st.binary(max_size=80),
    l2=st.sampled_from([(L2_SRC, L2_DST), (None, None), (Eui64(bytes(8)), L2_DST)]),
)
def test_decompress_raises_only_codec_errors(dispatch, rest, l2):
    try:
        decompress_ipv6(bytes([dispatch]) + rest, *l2)
    except CodecError:
        pass


# Each header decoder, on any octets after its own dispatch byte or any other
# leading octet, raises only CodecError.
ANY_OCTET = st.integers(0, 0xFF)


@settings(max_examples=300)
@given(first=st.one_of(st.integers(0x80, 0xBF), ANY_OCTET), rest=st.binary(max_size=20),
       pan=st.integers(0, 0xFFFF))
def test_decode_mesh_raises_only_codec_errors(first, rest, pan):
    try:
        mesh, _ = decode_mesh(bytes([first]) + rest, pan)
    except CodecError:
        return
    check_rebuild(mesh)


@settings(max_examples=300)
@given(bc0=st.booleans(), rest=st.binary(max_size=4))
def test_decode_bc0_raises_only_codec_errors(bc0, rest):
    try:
        decode_bc0((bytes([DISPATCH_BC0]) if bc0 else b"") + rest)
    except CodecError:
        pass


@settings(max_examples=300)
@given(first=st.one_of(st.integers(0xC0, 0xC7), st.integers(0xE0, 0xE7), ANY_OCTET),
       rest=st.binary(max_size=8))
def test_decode_frag_raises_only_codec_errors(first, rest):
    try:
        header, _ = decode_frag(bytes([first]) + rest)
    except CodecError:
        return
    check_rebuild(header)


@settings(max_examples=300)
@given(st.binary(max_size=40))
def test_hc2_decompress_raises_only_codec_errors(data):
    try:
        udp = decompress_udp(data)
    except CodecError:
        return
    check_rebuild(udp)


def test_eui64_link_context():
    src_eui = Eui64(bytes.fromhex("00124b0000000011"))
    dst_eui = Eui64(bytes.fromhex("00124b0000000022"))
    pkt = _udp_packet(
        src=addressing.link_local(addressing.iid_for(src_eui)),
        dst=addressing.link_local(addressing.iid_for(dst_eui)),
    )
    stream = compress_ipv6(pkt, src_eui, dst_eui)
    assert Hc1Encoding.from_byte(stream[1]).src_mode == 3
    assert decompress_ipv6(stream, src_eui, dst_eui) == pkt
    # against the wrong address form the IID no longer derives
    short_ctx = compress_ipv6(pkt, L2_SRC, L2_DST)
    assert Hc1Encoding.from_byte(short_ctx[1]).src_mode == 2


# --- HC2 UDP ----------------------------------------------------------------

def test_udp_fully_compressed_is_four_octets():
    udp = UdpDatagram(0xF0B3, 0xF0BF, 0xABCD, b"")
    header = compress_udp(udp)
    assert len(header) == 4
    assert header[0] == 0xE0
    assert header[1] == 0x3F  # source nibble high, destination nibble low
    assert header[2:] == b"\xab\xcd"


def test_udp_out_of_range_port_falls_back():
    udp = UdpDatagram(5683, 0xF0BF, 1, b"")
    header = compress_udp(udp)
    assert len(header) == 6  # 1 + 2 + 1 + 2
    assert header[0] == 0x60
    assert decompress_udp(header) == udp

    udp2 = UdpDatagram(0xF0B0, 80, 2, b"")
    header2 = compress_udp(udp2)
    assert len(header2) == 6
    assert decompress_udp(header2) == udp2

    udp3 = UdpDatagram(5683, 80, 3, b"")
    header3 = compress_udp(udp3)
    assert len(header3) == 7
    assert decompress_udp(header3) == udp3


def test_udp_port_range_boundaries():
    for port, compressed in ((0xF0B0, True), (0xF0BF, True), (0xF0AF, False), (0xF0C0, False)):
        header = compress_udp(UdpDatagram(port, 0xF0B0, 0, b""))
        assert bool(header[0] & 0x80) == compressed


@given(
    sport=st.integers(0, 0xFFFF),
    dport=st.integers(0, 0xFFFF),
    checksum=st.integers(0, 0xFFFF),
    payload=st.binary(max_size=64),
)
def test_udp_roundtrip_property(sport, dport, checksum, payload):
    udp = UdpDatagram(sport, dport, checksum, payload)
    assert decompress_udp(compress_udp(udp) + payload) == udp


def test_malformed_hc2():
    with pytest.raises(MalformedHc2):
        decompress_udp(b"")
    with pytest.raises(MalformedHc2):
        decompress_udp(bytes([0xE0]))  # ports octet missing
    with pytest.raises(MalformedHc2):
        decompress_udp(bytes([0x20, 0x12]))  # inline ports truncated


def test_hc2_inline_length_supported_on_decode():
    # an encoder that carries the length inline is still decodable
    data = bytes([0x00]) + (61619).to_bytes(2, "big") + (61631).to_bytes(2, "big")
    data += (10).to_bytes(2, "big") + (0x3919).to_bytes(2, "big") + b"hi"
    udp = decompress_udp(data)
    assert (udp.src_port, udp.dst_port, udp.checksum, udp.payload) == (61619, 61631, 0x3919, b"hi")
    with pytest.raises(MalformedHc2):
        decompress_udp(data[:-3] + b"x" * 3 + b"junk")  # inline length disagrees


# --- round-trip soundness -----------------------------------------------------

def _random_packet(rng: random.Random) -> tuple[Ipv6Packet, object, object]:
    l2_src = (
        Short16(0xBEEF, rng.randrange(0x10000))
        if rng.random() < 0.5
        else Eui64(rng.randbytes(8))
    )
    l2_dst = (
        Short16(0xBEEF, rng.randrange(0x10000))
        if rng.random() < 0.5
        else Eui64(rng.randbytes(8))
    )

    def pick_address(l2):
        roll = rng.random()
        if roll < 0.35:
            return addressing.link_local(addressing.iid_for(l2))
        if roll < 0.55:
            return addressing.link_local(rng.randbytes(8))
        if roll < 0.75:
            return addressing.global_unicast(IPv6Address("2001:db8::"), addressing.iid_for(l2))
        return IPv6Address(rng.randbytes(16))

    tcfl_zero = rng.random() < 0.5
    nh_roll = rng.random()
    if nh_roll < 0.6:
        next_header = NEXT_HEADER_UDP
        sport = 0xF0B0 + rng.randrange(16) if rng.random() < 0.5 else rng.randrange(0x10000)
        dport = 0xF0B0 + rng.randrange(16) if rng.random() < 0.5 else rng.randrange(0x10000)
        payload = encode_udp(
            UdpDatagram(sport, dport, rng.randrange(0x10000), rng.randbytes(rng.randrange(64)))
        )
    elif nh_roll < 0.8:
        next_header = rng.choice((NEXT_HEADER_TCP, NEXT_HEADER_ICMPV6))
        payload = rng.randbytes(rng.randrange(64))
    else:
        next_header = rng.randrange(256)
        payload = rng.randbytes(rng.randrange(64))
    pkt = Ipv6Packet(
        src=pick_address(l2_src),
        dst=pick_address(l2_dst),
        next_header=next_header,
        hop_limit=rng.randrange(256),
        payload=payload,
        traffic_class=0 if tcfl_zero else rng.randrange(256),
        flow_label=0 if tcfl_zero else rng.randrange(0x100000),
    )
    return pkt, l2_src, l2_dst


def test_compression_soundness_sample():
    rng = random.Random(1317)
    for _ in range(500):
        pkt, l2_src, l2_dst = _random_packet(rng)
        stream = compress_ipv6(pkt, l2_src, l2_dst)
        assert decompress_ipv6(stream, l2_src, l2_dst) == pkt


# --- mesh ----------------------------------------------------------------------

def test_mesh_sizes():
    both_short = MeshHeader(Short16(0xBEEF, 1), Short16(0xBEEF, 2), 4)
    assert len(encode_mesh(both_short)) == 5
    both_eui = MeshHeader(
        Eui64(bytes.fromhex("00124b0000000001")),
        Eui64(bytes.fromhex("00124b0000000002")),
        15,
    )
    assert len(encode_mesh(both_eui)) == 17


def test_mesh_hops_range():
    with pytest.raises(ValueError):
        MeshHeader(Short16(1, 2), Short16(1, 3), 16)
    with pytest.raises(ValueError, match="hops_left out of range: -1"):
        decrement_hops(encode_mesh(MeshHeader(Short16(1, 2), Short16(1, 3), 0)))


def test_mesh_roundtrip_mixed_widths():
    for orig in (Short16(0xBEEF, 0x0102), Eui64(bytes(range(8)))):
        for final in (Short16(0xBEEF, 0xFFFE), Eui64(bytes(range(8, 16)))):
            header = MeshHeader(orig, final, 9)
            decoded, consumed = decode_mesh(encode_mesh(header) + b"rest", pan_id=0xBEEF)
            assert decoded == header
            assert consumed == len(encode_mesh(header))


def test_decode_mesh_checks_the_pan_id_of_a_short_address():
    both_short = encode_mesh(MeshHeader(Short16(1, 2), Short16(1, 3), 4))
    for pan_id in (0x10000, -1):
        raises_exactly(ValueError, f"pan_id out of range: {pan_id}", lambda: decode_mesh(both_short, pan_id))


def test_mesh_truncation():
    header = MeshHeader(Short16(1, 2), Eui64(bytes(8)), 3)
    with pytest.raises(MalformedMesh) as caught:
        decode_mesh(encode_mesh(header)[:6], pan_id=1)
    assert caught.value.offset == 3  # the final address starts after the short originator
    with pytest.raises(MalformedMesh) as caught:
        decode_mesh(encode_mesh(MeshHeader(Eui64(bytes(8)), Short16(1, 2), 3))[:6], pan_id=1)
    assert caught.value.offset == 1
    with pytest.raises(MalformedMesh):
        decode_mesh(b"\x42", pan_id=1)


MESH_ADDRESS = st.one_of(
    st.builds(Short16, st.just(0xBEEF), st.integers(0, 0xFFFF)),
    st.builds(Eui64, st.binary(min_size=8, max_size=8)),
)


@given(orig=MESH_ADDRESS, final=MESH_ADDRESS, hops=st.integers(1, 0x0F), rest=st.binary(max_size=40))
def test_decrement_hops_matches_the_encoder(orig, final, hops, rest):
    received = encode_mesh(MeshHeader(orig, final, hops)) + rest
    assert decrement_hops(received) == encode_mesh(MeshHeader(orig, final, hops - 1)) + rest
    # the rewrite relies on encode_mesh(decode_mesh(h)) == h for every valid header
    decoded, consumed = decode_mesh(received, pan_id=0xBEEF)
    assert encode_mesh(decoded) + received[consumed:] == received


# --- bc0 -----------------------------------------------------------------------

def test_bc0_examples():
    assert encode_bc0(0) == b"\x50\x00"
    assert encode_bc0(255) == b"\x50\xff"


def test_bc0_roundtrip_exhaustive():
    for seq in range(256):
        decoded, consumed = decode_bc0(encode_bc0(seq) + b"payload")
        assert decoded == seq and consumed == 2


def test_bc0_malformed():
    with pytest.raises(MalformedBc0, match="broadcast header truncated") as truncated:
        decode_bc0(b"\x50")
    assert truncated.value.offset == 1
    with pytest.raises(MalformedBc0, match="not a broadcast header"):
        decode_bc0(b"\x42\x00")
    raises_exactly(ValueError, "sequence out of range: 256", lambda: encode_bc0(256))


# --- fragments -------------------------------------------------------------------

def test_frag_first_example():
    assert encode_frag_first(1280, 7) == bytes([0xC5, 0x00, 0x00, 0x07])


def test_frag_subsequent_offset_byte():
    encoded = encode_frag_subsequent(1280, 7, 12)
    assert encoded[4] == 0x0C
    header, consumed = decode_frag(encoded)
    assert header == FragHeader(1280, 7, 12, first=False)
    assert consumed == 5


def test_frag_first_decode():
    header, consumed = decode_frag(encode_frag_first(1280, 7) + b"x")
    assert header == FragHeader(1280, 7, 0, first=True)
    assert consumed == 4


def test_frag_size_overflow():
    with pytest.raises(SizeOverflow):
        encode_frag_first(2048, 0)
    with pytest.raises(SizeOverflow):
        encode_frag_subsequent(2048, 0, 0)
    assert encode_frag_first(2047, 0)[0] == 0xC7
    raises_exactly(ValueError, "tag out of range: 65536", lambda: encode_frag_first(1280, 0x10000))
    raises_exactly(ValueError, "tag out of range: -1", lambda: encode_frag_subsequent(1280, -1, 1))


def test_frag_offset_past_size():
    with pytest.raises(ValueError):
        encode_frag_subsequent(64, 0, 8)  # 8 * 8 == 64 is already past the end
    raises_exactly(ValueError, "offset out of range: 256", lambda: encode_frag_subsequent(2047, 7, 256))


def test_frag_malformed():
    with pytest.raises(MalformedFrag):
        decode_frag(b"\xc5\x00\x00")
    with pytest.raises(MalformedFrag):
        decode_frag(b"\xe5\x00\x00\x07")
    with pytest.raises(MalformedFrag):
        decode_frag(b"\x42\x00\x00\x00")
    for empty in (b"\xc0\x00\x00\x01", b"\xe0\x00\x00\x01\x00"):  # no fragment of an empty datagram
        with pytest.raises(MalformedFrag):
            decode_frag(empty)
    with pytest.raises(ValueError):
        encode_frag_first(0, 1)
    raises_exactly(MalformedFrag, "empty fragment header", lambda: decode_frag(b""))


@settings(max_examples=200)
@given(
    size=st.integers(1, 2047),
    tag=st.integers(0, 0xFFFF),
    data=st.data(),
)
def test_frag_roundtrip_property(size, tag, data):
    first = decode_frag(encode_frag_first(size, tag))[0]
    assert (first.datagram_size, first.tag, first.offset) == (size, tag, 0)
    if size > 8:
        offset = data.draw(st.integers(1, (size - 1) // 8))
        sub = decode_frag(encode_frag_subsequent(size, tag, offset))[0]
        assert (sub.datagram_size, sub.tag, sub.offset) == (size, tag, offset)


# --- golden vectors -----------------------------------------------------------------

def test_golden_vectors(golden_dir):
    from lowpan.cli import _vector_result

    for raw in (golden_dir / "codec_vectors.txt").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        in_hex, kind, out_hex = line.split()
        data = bytes.fromhex(in_hex)
        assert parse_dispatch(data[0]).value == kind
        assert _vector_result(data, 0xBEEF).hex() == out_hex
