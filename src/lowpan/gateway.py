"""Gateway translation between WPAN segments and the wired IPv6 domain.

Four gateway modes:

  * border     - IP-layer conversion: frames are reassembled and
                 decompressed on the way up, compressed / fragmented /
                 mesh-wrapped on the way down.  The wired packet is the
                 exact packet the WPAN node expressed, end to end.
  * devid      - application-layer translation: nodes and IPv6 hosts
                 register 16-bit device identifiers, a 4-octet header
                 (source devid, destination devid) rides at the top of
                 every application payload, and the gateway rewrites
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

A dispatch demultiplexer lets one gateway tell 6LoWPAN payloads from
raw Zigbee network-layer frames on a shared MAC, enabling a dual-stack
front end.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv6Address

from .codec import DispatchKind, MeshHeader, UnknownDispatch, compress_ipv6, encode_mesh, parse_dispatch
from .frame import NodeAddress, SecurityMode, mac_payload_budget
from .ipv6 import NEXT_HEADER_UDP, Ipv6Packet, decode_udp, udp_packet
from .reassembly import FragmentationContext, fragment

APL_MAX_OCTETS = 94
APL_BLOCK = 1240  # 1280-octet minimum MTU minus the 40-octet IPv6 header
APL_NEXT_HEADER = 253  # experimentation value carrying padded APL blocks

TUNNEL_UDP_PORT = 55840
DEVID_UDP_PORT = 55841
BCAST_RELAY_UDP_PORT = 55842

NWK_BROADCAST_SHORT = 0xFFFF
NWK_HEADER_OCTETS = 8
DEFAULT_DISCOVERY_TTL = 60.0


class GatewayError(ValueError):
    pass


class DuplicateDevid(GatewayError):
    pass


class UnknownDevid(GatewayError):
    pass


class NoFragmentation(GatewayError):
    pass


class PoolExhausted(GatewayError):
    pass


class AplTooLarge(GatewayError):
    pass


class NotTunnelTraffic(GatewayError):
    pass


class UnknownPanId(GatewayError):
    pass


class StaleRecord(GatewayError):
    pass


class NoSuchNode(GatewayError):
    pass


class GatewayMode(Enum):
    BORDER = "border"
    DEVID = "devid"
    ZIGBEE = "zigbee"
    BRIDGE = "bridge"

    @property
    def stack(self) -> str:
        """Receive stack of the nodes in a PAN behind a gateway of this mode."""
        return {"border": "lowpan", "devid": "app"}.get(self.value, "nwk")


class TrafficClass(Enum):
    LOWPAN = "lowpan"
    ZIGBEE_NWK = "zigbee-nwk"


def demux(frame_payload: bytes) -> TrafficClass:
    """Classify a MAC payload as 6LoWPAN or a raw Zigbee NWK frame.

    A leading 00xxxxxx octet is not a 6LoWPAN frame and is taken as
    Zigbee; any recognized 6LoWPAN dispatch selects the 6LoWPAN stack;
    reserved dispatch values are rejected.
    """
    if not frame_payload:
        raise UnknownDispatch("empty frame payload", offset=0)
    kind = parse_dispatch(frame_payload[0])
    if kind is DispatchKind.NOT_LOWPAN:
        return TrafficClass.ZIGBEE_NWK
    if kind is DispatchKind.UNKNOWN:
        raise UnknownDispatch(f"reserved dispatch 0x{frame_payload[0]:02X}", offset=0)
    return TrafficClass.LOWPAN


# --- devid translation ---------------------------------------------------

@dataclass(frozen=True)
class AppHeader:
    """Device identifiers carried at the top of the application payload."""

    src_devid: int
    dst_devid: int

    def encode(self) -> bytes:
        return struct.pack("!HH", self.src_devid, self.dst_devid)

    @classmethod
    def decode(cls, data: bytes) -> "AppHeader":
        if len(data) < 4:
            raise GatewayError("application header needs 4 octets")
        return cls(*struct.unpack("!HH", data[:4]))


Endpoint = IPv6Address | NodeAddress
DevidRegistry = dict[int, Endpoint]


def register_devid(registry: DevidRegistry, devid: int, endpoint: Endpoint):
    if devid in registry:
        raise DuplicateDevid(f"devid {devid} already registered")
    registry[devid] = endpoint


def resolve_devid(registry: DevidRegistry, devid: int) -> Endpoint:
    try:
        return registry[devid]
    except KeyError:
        raise UnknownDevid(f"devid {devid} is not registered") from None


# --- zigbee network frames ------------------------------------------------

@dataclass(frozen=True)
class NwkFrame:
    """Synthetic Zigbee network-layer frame.

    The high two bits of the leading frame-control octet are kept zero
    so the frame classifies as non-6LoWPAN under the dispatch table.
    """

    dst_short: int
    src_short: int
    radius: int = 8
    sequence: int = 0
    frame_control: int = 0x0900
    payload: bytes = b""

    def __post_init__(self):
        if (self.frame_control >> 8) & 0xC0:
            raise GatewayError("frame control would collide with 6LoWPAN dispatch space")

    def encode(self) -> bytes:
        return (
            struct.pack(
                "!HHHBB",
                self.frame_control,
                self.dst_short,
                self.src_short,
                self.radius,
                self.sequence,
            )
            + self.payload
        )

    @classmethod
    def decode(cls, data: bytes) -> "NwkFrame":
        if len(data) < NWK_HEADER_OCTETS:
            raise GatewayError(f"NWK frame needs {NWK_HEADER_OCTETS} octets")
        fc, dst, src, radius, seq = struct.unpack("!HHHBB", data[:NWK_HEADER_OCTETS])
        return cls(dst, src, radius, seq, fc, data[NWK_HEADER_OCTETS:])


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


# --- bridge tunnelling ------------------------------------------------------

def bridge_encapsulate(nwk: NwkFrame, tunnel: tuple[IPv6Address, IPv6Address]) -> Ipv6Packet:
    """Carry a NWK frame verbatim as UDP payload between bridge endpoints."""
    return udp_packet(*tunnel, TUNNEL_UDP_PORT, TUNNEL_UDP_PORT, nwk.encode())


def bridge_decapsulate(pkt: Ipv6Packet) -> NwkFrame:
    if pkt.next_header != NEXT_HEADER_UDP:
        raise NotTunnelTraffic(f"next header {pkt.next_header} is not UDP")
    udp = decode_udp(pkt.payload)
    if udp.dst_port != TUNNEL_UDP_PORT:
        raise NotTunnelTraffic(f"UDP port {udp.dst_port} is not the tunnel port {TUNNEL_UDP_PORT}")
    return NwkFrame.decode(udp.payload)


# --- zigbee address mapping --------------------------------------------------

@dataclass
class MappingTable:
    """Unicast mapping state of the zigbee-mode gateway.

    Pseudo addresses are the delegated prefix concatenated with the raw
    64-bit extended address (no universal/local bit flip); they exist
    only in this table, never on the nodes.  IPv6 peers borrow short
    addresses from a bounded pool.
    """

    prefix: IPv6Address
    short_pool: list[int] = field(default_factory=lambda: list(range(0x8000, 0x8040)))
    pseudo_by_ext: dict[bytes, IPv6Address] = field(default_factory=dict)
    ext_by_node_short: dict[int, bytes] = field(default_factory=dict)
    short_by_peer: dict[IPv6Address, int] = field(default_factory=dict)
    peer_by_short: dict[int, IPv6Address] = field(default_factory=dict)

    def register_node(self, ext: bytes, short: int) -> IPv6Address:
        """Admit a WPAN node and return its pseudo global address."""
        self.ext_by_node_short[short] = ext
        return self.assign_pseudo(ext)

    def assign_pseudo(self, ext: bytes) -> IPv6Address:
        if len(ext) != 8:
            raise ValueError("extended address must be 8 octets")
        pseudo = self.pseudo_by_ext.get(ext)
        if pseudo is None:
            pseudo = IPv6Address(self.prefix.packed[:8] + ext)
            self.pseudo_by_ext[ext] = pseudo
        return pseudo

    def ext_for_pseudo(self, address: IPv6Address) -> bytes:
        if address.packed[:8] != self.prefix.packed[:8]:
            raise NoSuchNode(f"{address} is outside the delegated prefix")
        ext = address.packed[8:]
        if ext not in self.pseudo_by_ext:
            raise NoSuchNode(f"no node registered for {address}")
        return ext

    def assign_short(self, peer: IPv6Address) -> int:
        """Short address for an IPv6 peer; idempotent while held."""
        short = self.short_by_peer.get(peer)
        if short is not None:
            return short
        if not self.short_pool:
            raise PoolExhausted("short-address pool is empty")
        short = self.short_pool.pop(0)
        self.short_by_peer[peer] = short
        self.peer_by_short[short] = peer
        return short

    def release_short(self, peer: IPv6Address):
        short = self.short_by_peer.pop(peer, None)
        if short is not None:
            del self.peer_by_short[short]
            self.short_pool.append(short)


# --- service discovery -------------------------------------------------------

@dataclass(frozen=True)
class ServiceQuery:
    """Service lookup keyed by PAN ID; origin is the querying endpoint."""

    pan_id: int
    origin: IPv6Address | int  # wired address or WPAN short


@dataclass
class DiscoveryCache:
    """Per-query return-path records held for a limited period."""

    ttl: float = DEFAULT_DISCOVERY_TTL
    _pending: dict[int, list[tuple[IPv6Address | int, float]]] = field(default_factory=dict)

    def remember(self, pan_id: int, origin: IPv6Address | int, now: float):
        self._pending.setdefault(pan_id, []).append((origin, now))

    def take_live(self, pan_id: int, now: float) -> list[IPv6Address | int]:
        entries = self._pending.pop(pan_id, [])
        live = [origin for origin, t in entries if now - t <= self.ttl]
        if not live:
            raise StaleRecord(f"no live discovery record for PAN 0x{pan_id:04X}")
        return live


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
    and tracing around these calls.
    """

    mode: GatewayMode
    pan_id: int
    short: int
    wired_addr: IPv6Address
    prefix: IPv6Address | None = None
    subscribers: tuple[IPv6Address, ...] = ()
    tunnel_peer: IPv6Address | None = None
    discovery_ttl: float = DEFAULT_DISCOVERY_TTL

    registry: DevidRegistry = field(default_factory=dict)
    mapping: MappingTable = field(init=False)
    discovery: DiscoveryCache = field(init=False)

    def __post_init__(self):
        prefix = self.prefix if self.prefix is not None else IPv6Address("2001:db8::")
        self.mapping = MappingTable(prefix=prefix)
        self.discovery = DiscoveryCache(ttl=self.discovery_ttl)

    def owns_prefix(self, address: IPv6Address) -> bool:
        return self.prefix is not None and address.packed[:8] == self.prefix.packed[:8]

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

    def zigbee_uplink(self, nwk: NwkFrame) -> list[Ipv6Packet]:
        """Translate a NWK frame into wired packets.

        Unicast maps the destination short to its IPv6 peer; broadcast
        fans out to every subscribed host with the gateway as the
        rendezvous point.  The APL payload is never inspected beyond
        the declared length.
        """
        ext = self.mapping.ext_by_node_short.get(nwk.src_short)
        if ext is None:
            raise NoSuchNode(f"source short 0x{nwk.src_short:04X} is not registered")
        src = self.mapping.assign_pseudo(ext)
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

    def zigbee_downlink(self, pkt: Ipv6Packet, sequence: int = 0) -> NwkFrame:
        """Translate a wired packet into a NWK frame for a local node."""
        if pkt.next_header != APL_NEXT_HEADER:
            raise GatewayError(f"next header {pkt.next_header} does not carry APL data")
        ext = self.mapping.ext_for_pseudo(pkt.dst)
        dst_short = next(
            (s for s, e in self.mapping.ext_by_node_short.items() if e == ext), None
        )
        if dst_short is None:
            raise NoSuchNode(f"{pkt.dst} maps to no admitted node")
        src_short = self.mapping.assign_short(pkt.src)
        return NwkFrame(
            dst_short=dst_short,
            src_short=src_short,
            sequence=sequence,
            payload=strip_transform(pkt.payload),
        )

    # bridge mode

    def bridge_uplink(self, nwk: NwkFrame) -> Ipv6Packet:
        if self.tunnel_peer is None:
            raise GatewayError("bridge gateway has no tunnel peer")
        return bridge_encapsulate(nwk, (self.wired_addr, self.tunnel_peer))

    def bridge_downlink(self, pkt: Ipv6Packet) -> NwkFrame:
        return bridge_decapsulate(pkt)

    # broadcast relay (any mode with subscribers)

    def relay_broadcast(self, payload: bytes) -> list[Ipv6Packet]:
        """Re-emit a WPAN broadcast payload to every subscribed host."""
        return [
            udp_packet(self.wired_addr, host, BCAST_RELAY_UDP_PORT, BCAST_RELAY_UDP_PORT, payload)
            for host in self.subscribers
        ]

    # service discovery (both directions)

    def query_to_segment(self, query: ServiceQuery, now: float) -> int:
        """Admit a service query for this PAN; returns the PAN it targets.

        Wired-side and segment-side queries are admitted alike, so
        `query_to_wired` is the same method.
        """
        if query.pan_id != self.pan_id:
            raise UnknownPanId(f"gateway serves PAN 0x{self.pan_id:04X}, not 0x{query.pan_id:04X}")
        self.discovery.remember(query.pan_id, query.origin, now)
        return query.pan_id

    query_to_wired = query_to_segment

    def route_response(self, pan_id: int, now: float) -> list[IPv6Address | int]:
        """Return-path endpoints for a discovery response, dropping stale records."""
        return self.discovery.take_live(pan_id, now)
