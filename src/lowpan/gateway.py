"""Gateway translation between WPAN segments and the wired IPv6 domain.

Four gateway modes:

  * border     - IP-layer conversion: frames are reassembled and
                 decompressed on the way up, compressed / fragmented /
                 mesh-wrapped on the way down.  The wired packet is the
                 exact packet the WPAN node expressed, end to end.
  * devid      - application-layer translation: nodes (each by its
                 short address) and IPv6 hosts register 16-bit device
                 identifiers, a 4-octet header (source devid,
                 destination devid) rides at the top of every
                 application payload, and the gateway rewrites
                 addresses from its registry.  The IP stack terminates
                 at the gateway and fragmentation is unsupported.
  * zigbee     - network-layer mapping: every WPAN node gets a pseudo
                 global IPv6 address (delegated prefix + raw extended
                 address), every IPv6 peer gets a short address from a
                 pool, and payloads cross as fixed-size zero-filled
                 blocks with a one-octet length prefix.
  * bridge     - the WPAN network layer is tunnelled verbatim inside
                 UDP between two bridge endpoints, so it stays
                 continuous across the wired domain.

A dispatch demultiplexer, `demux`, lets one gateway tell 6LoWPAN payloads
from raw Zigbee network-layer frames on a shared MAC, enabling a
dual-stack front end: it returns the receive stack, "lowpan" or "nwk",
that `codec.DISPATCH_TABLE` gives the payload's first octet.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import InitVar, dataclass, field
from enum import Enum
from ipaddress import IPv6Address

from .codec import DISPATCH_TABLE, MeshHeader, UnknownDispatch, compress_ipv6, encode_mesh
from .frame import CheckedTuple, NodeAddress, SecurityMode, Short16, mac_payload_budget
from .ipv6 import IPV6_HEADER_OCTETS, IPV6_MIN_LINK_MTU, NEXT_HEADER_UDP, Ipv6Packet, decode_udp, udp_packet
from .reassembly import FragmentationContext, fragment

APL_MAX_OCTETS = 94
APL_BLOCK = IPV6_MIN_LINK_MTU - IPV6_HEADER_OCTETS
APL_NEXT_HEADER = 253  # experimentation value carrying padded APL blocks

TUNNEL_UDP_PORT = 55840
DEVID_UDP_PORT = 55841
BCAST_RELAY_UDP_PORT = 55842

NWK_BROADCAST_SHORT = 0xFFFF
NWK_HEADER_OCTETS = 8
PEER_SHORTS = range(0x8000, 0x8040)  # the zigbee gateway's pool for IPv6 peers


class GatewayError(ValueError):
    reason = "gateway-error"


class DuplicateDevid(GatewayError):
    reason = "duplicate-devid"


class UnknownDevid(GatewayError):
    reason = "unknown-devid"


class NoFragmentation(GatewayError):
    reason = "no-fragmentation"


class PoolExhausted(GatewayError):
    reason = "pool-exhausted"


class AplTooLarge(GatewayError):
    reason = "apl-too-large"


class NotTunnelTraffic(GatewayError):
    reason = "not-tunnel-traffic"


class NoSuchNode(GatewayError):
    reason = "no-such-node"


class NoPrefix(GatewayError):
    reason = "no-prefix"


class GatewayMode(Enum):
    BORDER = "border"
    DEVID = "devid"
    ZIGBEE = "zigbee"
    BRIDGE = "bridge"

    def __init__(self, value: str):
        # the receive stack of the nodes in a PAN behind a gateway of this mode
        self.stack: str = {"border": "lowpan", "devid": "app"}.get(value, "nwk")


def demux(frame_payload: bytes) -> str:
    """Name the receive stack a MAC payload needs: "lowpan" or "nwk".

    A leading 00xxxxxx octet is not a 6LoWPAN frame and is taken as a
    Zigbee NWK frame; any recognized 6LoWPAN dispatch selects the 6LoWPAN
    stack; reserved dispatch values are rejected.
    """
    if not frame_payload:
        raise UnknownDispatch("empty frame payload", offset=0)
    stack = DISPATCH_TABLE[frame_payload[0]].stack
    if stack is None:
        raise UnknownDispatch(f"reserved dispatch 0x{frame_payload[0]:02X}", offset=0)
    return stack


# --- devid translation ---------------------------------------------------

class AppHeader(CheckedTuple, namedtuple("AppHeader", "src_devid dst_devid")):
    """Device identifiers carried at the top of the application payload.

    A `frame.CheckedTuple` value type: `__new__` range-checks both, and
    `decode` builds the header directly from two 16-bit fields.
    """

    __slots__ = ()

    def __new__(cls, src_devid: int, dst_devid: int):
        if not 0 <= src_devid <= 0xFFFF:
            raise ValueError(f"src_devid out of range: {src_devid}")
        if not 0 <= dst_devid <= 0xFFFF:
            raise ValueError(f"dst_devid out of range: {dst_devid}")
        return tuple.__new__(cls, (src_devid, dst_devid))

    def encode(self) -> bytes:
        return struct.pack("!HH", self.src_devid, self.dst_devid)

    @classmethod
    def decode(cls, data: bytes) -> "AppHeader":
        if len(data) < 4:
            raise GatewayError("application header needs 4 octets")
        return tuple.__new__(cls, struct.unpack("!HH", data[:4]))


Endpoint = IPv6Address | Short16  # a node registers by its short address, the one a downlink reaches
DevidRegistry = dict[int, Endpoint]


def register_devid(registry: DevidRegistry, devid: int, endpoint: Endpoint):
    """Register `endpoint` under `devid`; raises `TypeError` for a devid that
    is not an `int` or an endpoint that is neither an `IPv6Address` nor a
    `Short16`, `ValueError` for a devid outside 0..0xFFFF, and
    `DuplicateDevid` for a devid already taken, storing nothing."""
    if not isinstance(devid, int):
        raise TypeError(f"devid must be an int, not {type(devid).__name__}")
    if not 0 <= devid <= 0xFFFF:
        raise ValueError(f"devid out of range: {devid}")
    if not isinstance(endpoint, (IPv6Address, Short16)):
        raise TypeError(f"endpoint must be an IPv6Address or Short16, not {type(endpoint).__name__}")
    if devid in registry:
        raise DuplicateDevid(f"devid {devid} already registered")
    registry[devid] = endpoint


def resolve_devid(registry: DevidRegistry, devid: int) -> Endpoint:
    try:
        return registry[devid]
    except KeyError:
        raise UnknownDevid(f"devid {devid} is not registered") from None


# --- zigbee network frames ------------------------------------------------

def _check_frame_control(frame_control: int):
    """Keep the leading octet of a NWK frame out of the 6LoWPAN dispatch space."""
    if (frame_control >> 8) & 0xC0:
        raise GatewayError("frame control would collide with 6LoWPAN dispatch space")


class NwkFrame(
    CheckedTuple,
    namedtuple("NwkFrame", "dst_short src_short radius sequence frame_control payload"),
):
    """Synthetic Zigbee network-layer frame.

    The high two bits of the leading frame-control octet are kept zero
    so the frame classifies as non-6LoWPAN under the dispatch table.
    A `frame.CheckedTuple` value type: `__new__` range-checks every field
    but the payload and runs `_check_frame_control`, the one check `decode`
    runs too, since it builds the frame from wire-sized fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        dst_short: int,
        src_short: int,
        radius: int = 8,
        sequence: int = 0,
        frame_control: int = 0x0900,
        payload: bytes = b"",
    ):
        if not 0 <= dst_short <= 0xFFFF:
            raise ValueError(f"dst_short out of range: {dst_short}")
        if not 0 <= src_short <= 0xFFFF:
            raise ValueError(f"src_short out of range: {src_short}")
        if not 0 <= radius <= 0xFF:
            raise ValueError(f"radius out of range: {radius}")
        if not 0 <= sequence <= 0xFF:
            raise ValueError(f"sequence out of range: {sequence}")
        _check_frame_control(frame_control)
        if frame_control > 0xFFFF:  # a negative one fails `_check_frame_control`
            raise ValueError(f"frame_control out of range: {frame_control}")
        return tuple.__new__(cls, (dst_short, src_short, radius, sequence, frame_control, payload))

    def encode(self) -> bytes:
        dst_short, src_short, radius, sequence, frame_control, payload = self
        return struct.pack("!HHHBB", frame_control, dst_short, src_short, radius, sequence) + payload

    @classmethod
    def decode(cls, data: bytes) -> "NwkFrame":
        if len(data) < NWK_HEADER_OCTETS:
            raise GatewayError(f"NWK frame needs {NWK_HEADER_OCTETS} octets")
        fc, dst, src, radius, seq = struct.unpack("!HHHBB", data[:NWK_HEADER_OCTETS])
        _check_frame_control(fc)
        return tuple.__new__(cls, (dst, src, radius, seq, fc, data[NWK_HEADER_OCTETS:]))


# --- payload transforms ----------------------------------------------------

def pad_transform(apl_data: bytes) -> bytes:
    """One-octet length prefix, the APL data, zero fill to `APL_BLOCK` octets."""
    if len(apl_data) > APL_MAX_OCTETS:
        raise AplTooLarge(f"APL data {len(apl_data)} octets exceeds {APL_MAX_OCTETS}")
    return bytes([len(apl_data)]) + apl_data + bytes(APL_BLOCK - 1 - len(apl_data))


def strip_transform(wired_payload: bytes) -> bytes:
    """Inverse of pad_transform: read the length prefix, discard the fill."""
    if not wired_payload:
        raise GatewayError("empty padded block")
    length = wired_payload[0]
    if length > APL_MAX_OCTETS or 1 + length > len(wired_payload):
        raise GatewayError(f"length prefix {length} inconsistent with block")
    return wired_payload[1 : 1 + length]


# --- zigbee address mapping --------------------------------------------------

@dataclass
class MappingTable:
    """The delegated prefix and the peer pool of one gateway.

    A pseudo address is the delegated prefix concatenated with the raw
    64-bit extended address (no universal/local bit flip), computed when
    needed and never stored; without a prefix there is none.  Which node
    an extended address names is the world's to say, not this table's.
    IPv6 peers take short addresses from `PEER_SHORTS` in order of first
    sight; the pool never refills.  Every gateway has a pool, whatever its
    mode: a scenario's `apl` line takes its destination short from the
    local gateway's pool, also when `--mode-override` changes that mode.
    """

    prefix: IPv6Address | None
    prefix64: bytes | None = field(init=False)  # the prefix's first 8 octets
    short_by_peer: dict[IPv6Address, int] = field(init=False, default_factory=dict)
    peer_by_short: dict[int, IPv6Address] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.prefix64 = None if self.prefix is None else self.prefix.packed[:8]

    def assign_pseudo(self, ext: bytes) -> IPv6Address:
        """The pseudo global address of the node with extended address `ext`."""
        if self.prefix64 is None:
            raise NoPrefix("no delegated prefix to form a pseudo address")
        if len(ext) != 8:
            raise ValueError("extended address must be 8 octets")
        return IPv6Address(self.prefix64 + ext)

    def ext_for_pseudo(self, address: IPv6Address) -> bytes:
        """The extended address inside a pseudo address; which node it names is not checked."""
        if address.packed[:8] != self.prefix64:
            raise NoSuchNode(f"{address} is outside the delegated prefix")
        return address.packed[8:]

    def assign_short(self, peer: IPv6Address) -> int:
        """Short address for an IPv6 peer: the next free one on first sight."""
        short = self.short_by_peer.get(peer)
        if short is not None:
            return short
        if len(self.short_by_peer) == len(PEER_SHORTS):
            raise PoolExhausted("short-address pool is empty")
        short = PEER_SHORTS[len(self.short_by_peer)]
        self.short_by_peer[peer] = short
        self.peer_by_short[short] = peer
        return short


# --- adaptation pipeline -------------------------------------------------------

def wired_to_lowpan(
    pkt: Ipv6Packet,
    orig: NodeAddress,
    final: NodeAddress,
    ctx: FragmentationContext,
    security: SecurityMode = SecurityMode.NONE,
    hops: int = 8,
) -> list[bytes]:
    """Compress, fragment to the MAC budget and mesh-wrap an IPv6 packet.

    Returns the ready-to-transmit MAC payloads, mesh header first.
    """
    return mesh_fragments(compress_ipv6(pkt, orig, final), orig, final, ctx, security, hops)


def mesh_fragments(
    stream: bytes,
    orig: NodeAddress,
    final: NodeAddress,
    ctx: FragmentationContext,
    security: SecurityMode = SecurityMode.NONE,
    hops: int = 8,
) -> list[bytes]:
    """Fragment a compressed stream to the MAC budget and mesh-wrap each piece."""
    mesh = encode_mesh(MeshHeader(orig, final, hops))
    budget = mac_payload_budget(security) - len(mesh)
    return [mesh + piece for piece in fragment(stream, budget, ctx)]


# --- the gateway ---------------------------------------------------------------

@dataclass
class Gateway:
    """Translation state and logic for one gateway instance.

    Pure value-in/value-out: the simulator owns scheduling, transmission
    and tracing around these calls, and the gateway's radio side (its PAN,
    short and sequence numbers) belongs to its own simulated node.
    """

    mode: GatewayMode
    wired_addr: IPv6Address
    prefix: InitVar[IPv6Address | None] = None  # kept in `mapping` only
    subscribers: tuple[IPv6Address, ...] = ()
    tunnel_peer: IPv6Address | None = None

    registry: DevidRegistry = field(init=False, default_factory=dict)
    mapping: MappingTable = field(init=False)

    def __post_init__(self, prefix: IPv6Address | None):
        self.mapping = MappingTable(prefix=prefix)

    def owns_prefix(self, address: IPv6Address) -> bool:
        return address.packed[:8] == self.mapping.prefix64  # never equal to None

    # devid mode

    def devid_uplink(self, app_frame: bytes) -> Ipv6Packet:
        """Translate a node's application frame into a wired packet.

        The wired packet originates from the gateway itself; only the
        payload (application header included) survives the boundary.
        """
        header = AppHeader.decode(app_frame)
        endpoint = resolve_devid(self.registry, header.dst_devid)
        if not isinstance(endpoint, IPv6Address):
            raise UnknownDevid(f"devid {header.dst_devid} is not an IPv6 endpoint")
        return udp_packet(self.wired_addr, endpoint, DEVID_UDP_PORT, DEVID_UDP_PORT, app_frame)

    def devid_downlink(self, pkt: Ipv6Packet, security: SecurityMode = SecurityMode.NONE):
        """Translate a wired packet into (node address, MAC payload).

        Fails with NoFragmentation when the payload exceeds the MAC
        budget: this translator cannot fragment.
        """
        udp = decode_udp(pkt.payload)
        header = AppHeader.decode(udp.payload)
        endpoint = resolve_devid(self.registry, header.dst_devid)
        if isinstance(endpoint, IPv6Address):
            raise UnknownDevid(f"devid {header.dst_devid} is not a WPAN endpoint")
        if len(udp.payload) > mac_payload_budget(security):
            raise NoFragmentation(
                f"payload {len(udp.payload)} octets exceeds the "
                f"{mac_payload_budget(security)}-octet MAC budget"
            )
        return endpoint, udp.payload

    # zigbee mode

    def zigbee_uplink(self, nwk: NwkFrame, src_ext: bytes | None) -> list[Ipv6Packet]:
        """Translate a NWK frame from the node with extended address `src_ext`
        (None if its source short names no other node of the PAN) into wired packets.

        Unicast maps the destination short to its IPv6 peer; broadcast
        fans out to every subscribed host with the gateway as the
        rendezvous point.  The APL payload is never inspected beyond
        the declared length.
        """
        if src_ext is None:
            raise NoSuchNode(f"source short 0x{nwk.src_short:04X} names no node")
        src = self.mapping.assign_pseudo(src_ext)
        block = pad_transform(nwk.payload)
        if nwk.dst_short == NWK_BROADCAST_SHORT:
            destinations = list(self.subscribers)
        else:
            peer = self.mapping.peer_by_short.get(nwk.dst_short)
            if peer is None:
                raise NoSuchNode(f"destination short 0x{nwk.dst_short:04X} has no IPv6 peer")
            destinations = [peer]
        return [
            Ipv6Packet(src=src, dst=dst, next_header=APL_NEXT_HEADER, payload=block)
            for dst in destinations
        ]

    def zigbee_downlink(self, pkt: Ipv6Packet, shorts: dict[bytes, int], sequence: int = 0) -> NwkFrame:
        """Translate a wired packet into a NWK frame for a local node, found in
        `shorts` (EUI-64 -> short: the PAN's entry of `World.zigbee_shorts`)."""
        if pkt.next_header != APL_NEXT_HEADER:
            raise GatewayError(f"next header {pkt.next_header} does not carry APL data")
        dst_short = shorts.get(self.mapping.ext_for_pseudo(pkt.dst))
        if dst_short is None:
            raise NoSuchNode(f"{pkt.dst} names no node of the PAN")
        src_short = self.mapping.assign_short(pkt.src)
        return NwkFrame(
            dst_short=dst_short,
            src_short=src_short,
            sequence=sequence,
            payload=strip_transform(pkt.payload),
        )

    # bridge mode

    def bridge_uplink(self, nwk: NwkFrame) -> Ipv6Packet:
        """Carry a NWK frame verbatim as UDP payload to the tunnel peer."""
        if self.tunnel_peer is None:
            raise GatewayError("bridge gateway has no tunnel peer")
        return udp_packet(self.wired_addr, self.tunnel_peer, TUNNEL_UDP_PORT, TUNNEL_UDP_PORT, nwk.encode())

    def bridge_downlink(self, pkt: Ipv6Packet) -> NwkFrame:
        """The NWK frame a tunnel packet carries."""
        if pkt.next_header != NEXT_HEADER_UDP:
            raise NotTunnelTraffic(f"next header {pkt.next_header} is not UDP")
        udp = decode_udp(pkt.payload)
        if udp.dst_port != TUNNEL_UDP_PORT:
            raise NotTunnelTraffic(f"UDP port {udp.dst_port} is not the tunnel port {TUNNEL_UDP_PORT}")
        return NwkFrame.decode(udp.payload)

    # broadcast relay (any mode with subscribers)

    def relay_broadcast(self, payload: bytes) -> list[Ipv6Packet]:
        """Re-emit a WPAN broadcast payload to every subscribed host."""
        return [
            udp_packet(self.wired_addr, host, BCAST_RELAY_UDP_PORT, BCAST_RELAY_UDP_PORT, payload)
            for host in self.subscribers
        ]
