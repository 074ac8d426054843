"""6LoWPAN adaptation-layer header codecs.

A 6LoWPAN frame payload stacks, in this order: mesh addressing header,
broadcast header, fragmentation header, then the (compressed or
uncompressed) IPv6 packet.  The first octet of each header is a
dispatch byte.  `DispatchKind` names its classes (RFC 4944 §5.1), each
with the octets it spans and the receive stack that reads a MAC payload
starting with one of them:

    | class           | bits      | octets    | meaning                     | stack  |
    |-----------------|-----------|-----------|-----------------------------|--------|
    | not-lowpan      | 00xxxxxx  | 0x00-0x3F | not a 6LoWPAN frame         | nwk    |
    | ipv6            | 01000001  | 0x41      | uncompressed IPv6 follows   | lowpan |
    | hc1             | 01000010  | 0x42      | HC1-compressed IPv6 follows | lowpan |
    | bc0             | 01010000  | 0x50      | broadcast header (BC0)      | lowpan |
    | additional      | 01111111  | 0x7F      | additional dispatch byte    | lowpan |
    | mesh            | 10xxxxxx  | 0x80-0xBF | mesh addressing header      | lowpan |
    | frag-first      | 11000xxx  | 0xC0-0xC7 | first fragment header       | lowpan |
    | frag-subsequent | 11100xxx  | 0xE0-0xE7 | subsequent fragment header  | lowpan |
    | unknown         | any other |           | reserved                    | None   |

The stacks are those of `gateway.GatewayMode.stack`: ZigBee NWK frames and
6LoWPAN payloads share the first octet, so it alone decides which stack
reads a frame.  `UNKNOWN` spans no octet of its own; it holds every octet
no other class spans.  `DISPATCH_TABLE` holds the class of each of the
256 octets, built once from the spans.  `parse_dispatch` range-checks its
argument and reads it; the decoders and the simulator index it with an
item of `bytes`, which is always in range.

HC1 octet layout (most significant bit first):

    | bits 0-1 | source address mode           |
    | bits 2-3 | destination address mode      |
    | bit 4    | traffic class and flow label both zero (elided) |
    | bits 5-6 | next header: 00 inline, 01 UDP, 10 ICMP, 11 TCP |
    | bit 7    | HC2-compressed transport header follows         |

Address modes: 0 = prefix and IID inline (16 octets), 1 = prefix inline
and IID derived from the link address (8 octets), 2 = link-local prefix
elided and IID inline (8 octets), 3 = link-local prefix and IID both
elided (0 octets); the high bit of a mode elides the link-local prefix,
the low bit the IID.  The hop limit always follows the HC1 octet in
full; inline fields then appear in the order source, destination,
traffic class + flow label (4 octets), next header.

HC2 octet layout for UDP: bit 0 source port compressed, bit 1
destination port compressed, bit 2 length elided (always set by this
encoder), low 5 bits zero.  A compressed port is the offset from
0xF0B0, packed one port per nibble when both compress (source high) or
in the low nibble of its own octet otherwise.  The checksum is always
carried in full, the length always recovered from the IPv6 payload
length, so the fully compressed UDP header is 4 octets: HC2 octet,
ports octet, checksum.

The mesh addressing header's first octet is 10 V F HHHH: V and F are set
for a short (2-octet) rather than EUI-64 (8-octet) originator and final
address, which follow in that order, and HHHH is the hops-left budget.
`Hc1Encoding`, `MeshHeader` and `FragHeader` are `frame.CheckedTuple`
value types; `Hc1Encoding` checks its modes and flags against their bit
widths, `MeshHeader` the hops-left range, and `FragHeader` nothing.  Their
decoders build them directly, since every field is a masked bit field, a
wire-sized integer or, for a mesh EUI-64, an 8-octet slice; `decode_mesh`
range-checks the caller's `pan_id` when a short address takes it.
`decode_mesh` reads both address widths from the first octet and parses
the header straight through.  Because every bit of that octet is a
header field, `encode_mesh(decode_mesh(h))` equals `h`, so a forwarder
passes a frame on with `decrement_hops`, which rewrites the first octet,
instead of rebuilding and re-encoding the header.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from ipaddress import IPv6Address

from . import addressing
from .frame import CheckedTuple, Eui64, NodeAddress, Short16
from .ipv6 import (
    NEXT_HEADER_ICMPV6,
    NEXT_HEADER_TCP,
    NEXT_HEADER_UDP,
    Ipv6Packet,
    PacketError,
    UdpDatagram,
    decode_ipv6,
    decode_udp,
    encode_udp,
)

DISPATCH_IPV6 = 0x41
DISPATCH_HC1 = 0x42
DISPATCH_BC0 = 0x50
DISPATCH_ADDITIONAL = 0x7F

UDP_PORT_BASE = 0xF0B0
MAX_DATAGRAM_SIZE = 0x7FF  # 11-bit fragment size field
FRAG_OFFSET_UNIT = 8
FRAG_FIRST_HEADER_OCTETS = 4
FRAG_SUBSEQUENT_HEADER_OCTETS = 5


class CodecError(ValueError):
    """Base class for adaptation-layer codec failures.

    `offset` is the position in the input buffer the failure was
    detected at, when meaningful.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class UnknownDispatch(CodecError):
    pass


class UnsupportedDispatch(CodecError):
    pass


class MalformedHeader(CodecError):
    pass


class MalformedHc2(MalformedHeader):
    pass


class MalformedMesh(CodecError):
    pass


class MalformedBc0(CodecError):
    pass


class MalformedFrag(CodecError):
    pass


class SizeOverflow(CodecError):
    pass


class DispatchKind(Enum):
    """A class of first octets: its label, the `octets` it spans and its `stack` (the module docstring's table)."""

    NOT_LOWPAN = ("not-lowpan", range(0x00, 0x40), "nwk")
    UNCOMPRESSED_IPV6 = ("ipv6", (DISPATCH_IPV6,), "lowpan")
    HC1 = ("hc1", (DISPATCH_HC1,), "lowpan")
    BC0 = ("bc0", (DISPATCH_BC0,), "lowpan")
    ADDITIONAL = ("additional", (DISPATCH_ADDITIONAL,), "lowpan")
    MESH = ("mesh", range(0x80, 0xC0), "lowpan")
    FRAG_FIRST = ("frag-first", range(0xC0, 0xC8), "lowpan")
    FRAG_SUBSEQUENT = ("frag-subsequent", range(0xE0, 0xE8), "lowpan")
    UNKNOWN = ("unknown", (), None)

    def __new__(cls, label: str, octets: range | tuple[int, ...], stack: str | None):
        member = object.__new__(cls)
        member._value_ = label  # so `DispatchKind("hc1")` finds a class by its label
        member.octets = octets
        member.stack = stack
        return member


DISPATCH_TABLE: tuple[DispatchKind, ...] = tuple(
    next((kind for kind in DispatchKind if octet in kind.octets), DispatchKind.UNKNOWN) for octet in range(256)
)


def parse_dispatch(first_byte: int) -> DispatchKind:
    """Classify a dispatch byte.  Total over all 256 values."""
    if not 0 <= first_byte <= 0xFF:  # a negative index would wrap
        raise ValueError(f"dispatch byte out of range: {first_byte}")
    return DISPATCH_TABLE[first_byte]


# --- HC1 / HC2 ---------------------------------------------------------

# the octets of an address that ride inline, by address mode
_INLINE = (slice(0, 16), slice(0, 8), slice(8, 16), slice(8, 8))

_NH_INLINE = 0
_NH_UDP = 1
_NH_ICMP = 2
_NH_TCP = 3

_NH_CODE = {NEXT_HEADER_UDP: _NH_UDP, NEXT_HEADER_ICMPV6: _NH_ICMP, NEXT_HEADER_TCP: _NH_TCP}
_NH_VALUE = {_NH_UDP: NEXT_HEADER_UDP, _NH_ICMP: NEXT_HEADER_ICMPV6, _NH_TCP: NEXT_HEADER_TCP}


class Hc1Encoding(
    CheckedTuple, namedtuple("Hc1Encoding", "src_mode dst_mode tcfl_zero next_header_mode hc2_follows")
):
    """Decoded view of an HC1 octet: three two-bit modes and two one-bit flags."""

    __slots__ = ()

    def __new__(cls, src_mode: int, dst_mode: int, tcfl_zero: bool, next_header_mode: int, hc2_follows: bool):
        if not 0 <= src_mode <= 3:
            raise ValueError(f"src_mode out of range: {src_mode}")
        if not 0 <= dst_mode <= 3:
            raise ValueError(f"dst_mode out of range: {dst_mode}")
        if tcfl_zero not in (0, 1):
            raise ValueError(f"tcfl_zero out of range: {tcfl_zero}")
        if not 0 <= next_header_mode <= 3:
            raise ValueError(f"next_header_mode out of range: {next_header_mode}")
        if hc2_follows not in (0, 1):
            raise ValueError(f"hc2_follows out of range: {hc2_follows}")
        return tuple.__new__(cls, (src_mode, dst_mode, tcfl_zero, next_header_mode, hc2_follows))

    @classmethod
    def from_byte(cls, byte: int) -> "Hc1Encoding":
        return tuple.__new__(
            cls, ((byte >> 6) & 0x03, (byte >> 4) & 0x03, bool(byte & 0x08), (byte >> 1) & 0x03, bool(byte & 0x01))
        )

    def to_byte(self) -> int:
        src_mode, dst_mode, tcfl_zero, next_header_mode, hc2_follows = self
        return src_mode << 6 | dst_mode << 4 | tcfl_zero << 3 | next_header_mode << 1 | hc2_follows


def _address_mode(packed: bytes, link_addr: NodeAddress | None) -> int:
    link_local = packed[:8] == addressing.LINK_LOCAL_PREFIX
    derivable = link_addr is not None and packed[8:] == addressing.iid_for(link_addr)
    return 2 * link_local + derivable


def compress_udp(udp: UdpDatagram) -> bytes:
    """HC2-compressed UDP header (checksum inline, length elided)."""
    src_ok = UDP_PORT_BASE <= udp.src_port <= UDP_PORT_BASE + 0x0F
    dst_ok = UDP_PORT_BASE <= udp.dst_port <= UDP_PORT_BASE + 0x0F
    hc2 = (int(src_ok) << 7) | (int(dst_ok) << 6) | (1 << 5)
    out = bytearray([hc2])
    if src_ok and dst_ok:
        out.append(((udp.src_port - UDP_PORT_BASE) << 4) | (udp.dst_port - UDP_PORT_BASE))
    else:
        for port, ok in ((udp.src_port, src_ok), (udp.dst_port, dst_ok)):
            out += bytes([port - UDP_PORT_BASE]) if ok else port.to_bytes(2, "big")
    out += udp.checksum.to_bytes(2, "big")
    return bytes(out)


def decompress_udp(data: bytes) -> UdpDatagram:
    """Inverse of compress_udp; everything after the header is payload."""
    if not data:
        raise MalformedHc2("empty HC2 region", offset=0)
    hc2 = data[0]
    pos = 1

    def field(n: int) -> int:
        nonlocal pos
        if pos + n > len(data):
            raise MalformedHc2("HC2 header truncated", offset=pos)
        pos += n
        return int.from_bytes(data[pos - n : pos], "big")

    if hc2 & 0xC0 == 0xC0:
        ports = field(1)
        src_port, dst_port = UDP_PORT_BASE + (ports >> 4), UDP_PORT_BASE + (ports & 0x0F)
    else:
        src_port = UDP_PORT_BASE + (field(1) & 0x0F) if hc2 & 0x80 else field(2)
        dst_port = UDP_PORT_BASE + (field(1) & 0x0F) if hc2 & 0x40 else field(2)
    inline_length = None if hc2 & 0x20 else field(2)
    checksum = field(2)
    udp = tuple.__new__(UdpDatagram, (src_port, dst_port, checksum, data[pos:]))
    if inline_length is not None and inline_length != udp.length:
        raise MalformedHc2(
            f"inline length {inline_length} but {udp.length} octets of datagram", offset=pos
        )
    return udp


def compress_ipv6(pkt: Ipv6Packet, l2_src: NodeAddress | None, l2_dst: NodeAddress | None) -> bytes:
    """HC1-compress an IPv6 packet against the link addresses.

    Never fails: any field that cannot be elided is carried inline.
    Returns the dispatch byte followed by the compressed stream.
    """
    src, dst = pkt.src.packed, pkt.dst.packed
    src_mode = _address_mode(src, l2_src)
    dst_mode = _address_mode(dst, l2_dst)
    tcfl_zero = pkt.traffic_class == 0 and pkt.flow_label == 0
    nh_mode = _NH_CODE.get(pkt.next_header, _NH_INLINE)

    udp = None
    if nh_mode == _NH_UDP:
        try:
            udp = decode_udp(pkt.payload)
        except PacketError:
            udp = None  # malformed UDP rides verbatim

    enc = Hc1Encoding(src_mode, dst_mode, tcfl_zero, nh_mode, udp is not None)
    out = bytearray([DISPATCH_HC1, enc.to_byte(), pkt.hop_limit])
    out += src[_INLINE[src_mode]]
    out += dst[_INLINE[dst_mode]]
    if not tcfl_zero:
        out.append(pkt.traffic_class)
        out += pkt.flow_label.to_bytes(3, "big")
    if nh_mode == _NH_INLINE:
        out.append(pkt.next_header)
    if udp is not None:
        out += compress_udp(udp)
        out += udp.payload
    else:
        out += pkt.payload
    return bytes(out)


def decompress_ipv6(
    data: bytes, l2_src: NodeAddress | None, l2_dst: NodeAddress | None
) -> Ipv6Packet:
    """Rebuild the full IPv6 packet from an adaptation-layer stream.

    The stream must start with the uncompressed-IPv6 or HC1 dispatch
    byte; the total payload length is implied by the length of `data`
    (the link layer or the reassembled datagram size delimits it).
    """
    if not data:
        raise MalformedHeader("empty stream", offset=0)
    kind = DISPATCH_TABLE[data[0]]
    if kind is DispatchKind.UNCOMPRESSED_IPV6:
        try:
            return decode_ipv6(data[1:])
        except PacketError as exc:
            raise MalformedHeader(str(exc), offset=1) from exc
    if kind is DispatchKind.ADDITIONAL:
        raise UnsupportedDispatch("additional dispatch byte is not supported", offset=0)
    if kind is not DispatchKind.HC1:
        raise UnknownDispatch(f"dispatch 0x{data[0]:02X} does not start an IPv6 stream", offset=0)
    if len(data) < 3:
        raise MalformedHeader("HC1 stream truncated", offset=len(data))
    enc = Hc1Encoding.from_byte(data[1])
    hop_limit = data[2]
    pos = 3

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise MalformedHeader(f"{what} truncated", offset=pos)
        pos += n
        return data[pos - n : pos]

    addresses = []
    for mode, link_addr in ((enc.src_mode, l2_src), (enc.dst_mode, l2_dst)):
        if mode & 1 and link_addr is None:
            what = "IID" if mode == 1 else "address"
            raise MalformedHeader(f"{what} elided but no link address", offset=pos)
        inline = _INLINE[mode]
        addresses.append(IPv6Address(
            (addressing.LINK_LOCAL_PREFIX if mode & 2 else b"")
            + take(inline.stop - inline.start, "inline address")
            + (addressing.iid_for(link_addr) if mode & 1 else b"")
        ))
    src, dst = addresses
    traffic_class = flow_label = 0
    if not enc.tcfl_zero:
        tcfl = int.from_bytes(take(4, "traffic class / flow label"), "big")
        traffic_class, flow_label = tcfl >> 24, tcfl & 0xFFFFFF
    if enc.next_header_mode == _NH_INLINE:
        next_header = take(1, "inline next header")[0]
    else:
        next_header = _NH_VALUE[enc.next_header_mode]
    if enc.hc2_follows:
        if enc.next_header_mode != _NH_UDP:
            raise MalformedHeader("HC2 flagged for a non-UDP next header", offset=1)
        try:
            udp = decompress_udp(data[pos:])
        except CodecError as exc:
            exc.offset += pos  # count from the input, not from the HC2 octet
            raise
        payload = encode_udp(udp)
    else:
        payload = data[pos:]
    try:  # a 24-bit inline flow label or a payload over 0xFFFF octets
        return Ipv6Packet(
            src=src,
            dst=dst,
            next_header=next_header,
            hop_limit=hop_limit,
            payload=payload,
            traffic_class=traffic_class,
            flow_label=flow_label,
        )
    except ValueError as exc:
        raise MalformedHeader(str(exc), offset=pos) from exc


# --- mesh addressing ----------------------------------------------------

class MeshHeader(CheckedTuple, namedtuple("MeshHeader", "originator final hops_left")):
    """Originator and final addresses plus the hops-left budget."""

    __slots__ = ()

    def __new__(cls, originator: NodeAddress, final: NodeAddress, hops_left: int):
        if not 0 <= hops_left <= 0x0F:
            raise ValueError(f"hops_left out of range: {hops_left}")
        return tuple.__new__(cls, (originator, final, hops_left))


def encode_mesh(header: MeshHeader) -> bytes:
    orig_short = isinstance(header.originator, Short16)
    final_short = isinstance(header.final, Short16)
    first = 0x80 | (int(orig_short) << 5) | (int(final_short) << 4) | header.hops_left
    out = bytearray([first])
    for addr in (header.originator, header.final):
        if isinstance(addr, Short16):
            out += addr.short.to_bytes(2, "big")
        else:
            out += addr.eui
    return bytes(out)


def decode_mesh(data: bytes, pan_id: int = 0) -> tuple[MeshHeader, int]:
    """Parse a mesh header; short addresses adopt the caller's PAN ID.

    Returns the header and the number of octets consumed.  The first
    octet is 10 V F HHHH: V and F set for a short originator and final,
    HHHH the hops left.
    """
    if not data or data[0] & 0xC0 != 0x80:
        raise MalformedMesh("not a mesh header", offset=0)
    first = data[0]
    mid = 3 if first & 0x20 else 9  # where the final address starts
    end = mid + (2 if first & 0x10 else 8)
    if end > len(data):
        raise MalformedMesh("mesh address truncated", offset=1 if mid > len(data) else mid)
    if first & 0x30 and not 0 <= pan_id <= 0xFFFF:
        raise ValueError(f"pan_id out of range: {pan_id}")
    originator = (
        tuple.__new__(Short16, (pan_id, (data[1] << 8) | data[2]))
        if first & 0x20
        else tuple.__new__(Eui64, (data[1:9],))
    )
    final = (
        tuple.__new__(Short16, (pan_id, (data[mid] << 8) | data[mid + 1]))
        if first & 0x10
        else tuple.__new__(Eui64, (data[mid:end],))
    )
    return tuple.__new__(MeshHeader, (originator, final, first & 0x0F)), end


def decrement_hops(data: bytes) -> bytes:
    """`data`, a mesh header and what follows it, with hops-left one lower.

    Hops-left is the low nibble of the first octet, so this equals
    `encode_mesh` of the decoded header with `hops_left - 1`, followed by
    the rest of `data`, without building or re-encoding the header.
    """
    if not data[0] & 0x0F:
        raise ValueError("hops_left out of range: -1")
    return bytes((data[0] - 1,)) + data[1:]


# --- broadcast ----------------------------------------------------------

def encode_bc0(sequence: int) -> bytes:
    if not 0 <= sequence <= 0xFF:
        raise ValueError(f"sequence out of range: {sequence}")
    return bytes([DISPATCH_BC0, sequence])


def decode_bc0(data: bytes) -> tuple[int, int]:
    """Returns (sequence, octets consumed)."""
    if not data or data[0] != DISPATCH_BC0:
        raise MalformedBc0("not a broadcast header", offset=0)
    if len(data) < 2:
        raise MalformedBc0("broadcast header truncated", offset=len(data))
    return data[1], 2


# --- fragmentation ------------------------------------------------------

class FragHeader(CheckedTuple, namedtuple("FragHeader", "datagram_size tag offset first")):
    """A fragment header; `offset` is in 8-octet units, 0 for a first fragment."""

    __slots__ = ()


def _check_frag_fields(datagram_size: int, tag: int):
    if datagram_size > MAX_DATAGRAM_SIZE:
        raise SizeOverflow(f"datagram size {datagram_size} exceeds {MAX_DATAGRAM_SIZE}")
    if datagram_size < 1:
        raise ValueError(f"datagram size must be at least 1, not {datagram_size}")
    if not 0 <= tag <= 0xFFFF:
        raise ValueError(f"tag out of range: {tag}")


def encode_frag_first(datagram_size: int, tag: int) -> bytes:
    _check_frag_fields(datagram_size, tag)
    return bytes([0xC0 | (datagram_size >> 8), datagram_size & 0xFF]) + tag.to_bytes(2, "big")


def encode_frag_subsequent(datagram_size: int, tag: int, offset: int) -> bytes:
    _check_frag_fields(datagram_size, tag)
    if not 0 <= offset <= 0xFF:
        raise ValueError(f"offset out of range: {offset}")
    if offset * FRAG_OFFSET_UNIT >= datagram_size:
        raise ValueError(
            f"offset {offset * FRAG_OFFSET_UNIT} beyond datagram size {datagram_size}"
        )
    return (
        bytes([0xE0 | (datagram_size >> 8), datagram_size & 0xFF])
        + tag.to_bytes(2, "big")
        + bytes([offset])
    )


def decode_frag(data: bytes) -> tuple[FragHeader, int]:
    """Returns (header, octets consumed)."""
    if not data:
        raise MalformedFrag("empty fragment header", offset=0)
    kind = DISPATCH_TABLE[data[0]]
    if kind not in (DispatchKind.FRAG_FIRST, DispatchKind.FRAG_SUBSEQUENT):
        raise MalformedFrag("not a fragment header", offset=0)
    first = kind is DispatchKind.FRAG_FIRST
    need = FRAG_FIRST_HEADER_OCTETS if first else FRAG_SUBSEQUENT_HEADER_OCTETS
    if len(data) < need:
        raise MalformedFrag("fragment header truncated", offset=len(data))
    datagram_size = ((data[0] & 0x07) << 8) | data[1]
    if datagram_size == 0:  # no fragment belongs to an empty datagram
        raise MalformedFrag("fragment datagram size is 0", offset=0)
    tag = int.from_bytes(data[2:4], "big")
    offset = 0 if first else data[4]
    return tuple.__new__(FragHeader, (datagram_size, tag, offset, first)), need
