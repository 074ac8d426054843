"""Deterministic discrete-event simulation of LoWPAN segments.

A world holds WPAN nodes, point-to-point radio links, optional gateways
and wired IPv6 hosts.  Events are processed in (time, sequence) order
from a single queue; the only randomness is per-transmission loss,
sampled from one seeded generator, so a world's trace is a pure
function of its scenario and seed.

Node behaviour:

  * Unicast traffic is mesh-wrapped: the originator sets the hops-left
    budget and transmits without decrementing; every forwarding node
    decrements before sending and drops the frame when the budget hits
    zero.  Only coordinators and FFDs forward; an RFD receiving a frame
    for someone else drops it.
  * Broadcasts ride a mesh header addressed to 0xFFFF plus a one-octet
    sequence number; receivers deliver once per (originator, sequence),
    re-flood if they are forwarders, and drop duplicates.  The
    originating application counts as a subscriber of its own flood, so
    every node in a connected mesh delivers exactly one copy.
  * A sleeping node neither transmits nor receives; frames that arrive
    during a sleep period are lost.
  * Datagrams larger than the security-adjusted MAC payload budget are
    fragmented after compression and reassembled only at the mesh
    final destination, under the 60-second window; a datagram still
    incomplete 60 s after its first fragment is discarded then.

Trace records are one line each: time, node, event kind, detail and a
byte count, tab separated.
"""

from __future__ import annotations

import bisect
import heapq
import random
import re
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from functools import partial
from ipaddress import IPv6Address
from typing import NamedTuple

from . import addressing
from .codec import (
    CodecError,
    DispatchKind,
    MeshHeader,
    compress_ipv6,
    decode_bc0,
    decode_mesh,
    decompress_ipv6,
    decrement_hops,
    encode_bc0,
    encode_mesh,
    parse_dispatch,
)
from .frame import (
    BROADCAST_SHORT,
    PHY_OVERHEAD,
    Eui64,
    FrameError,
    FrameType,
    MacFrame,
    NodeAddress,
    PayloadOverBudget,
    PhyBand,
    SecurityMode,
    Short16,
    decode_mac_frame,
    encode_mac_frame,
    frame_airtime,
)
from .gateway import (
    DEFAULT_DISCOVERY_TTL,
    AppHeader,
    Gateway,
    GatewayError,
    GatewayMode,
    NwkFrame,
    NWK_BROADCAST_SHORT,
    mesh_fragments,
)
from .ipv6 import NEXT_HEADER_UDP, Ipv6Packet, PacketError, decode_udp, udp_packet
from .reassembly import (
    REASSEMBLY_TIMEOUT,
    FragmentOutcome,
    FragmentationContext,
    ReassemblyError,
    accept_fragment,
)

BC0_CACHE_ENTRIES = 64
WIRED_DELAY = 0.001  # one-way latency of the wired IPv6 domain, in seconds


class NodeRole(Enum):
    COORDINATOR = "coordinator"
    FFD = "ffd"
    RFD = "rfd"

    def __init__(self, value: str):
        self.forwards: bool = value != "rfd"


@dataclass(frozen=True)
class SleepSchedule:
    """Periodic awake/asleep cycle starting awake at t=0."""

    awake: float
    asleep: float

    def is_awake(self, t: float) -> bool:
        return t % (self.awake + self.asleep) < self.awake


@dataclass(frozen=True)
class SimLink:
    a: str
    b: str
    band: PhyBand = PhyBand.B2450
    loss_probability: float = 0.0


class TraceRecord(NamedTuple):
    time: float
    node: str
    kind: str
    detail: str = ""
    nbytes: int = 0

    def line(self) -> str:
        return f"{self.time:.6f}\t{self.node}\t{self.kind}\t{self.detail}\t{self.nbytes}"


class _AddressText(dict):
    """`IPv6Address` -> its text, each address formatted once.

    Trace details name the same few addresses over and over, and
    `str(IPv6Address)` is pure Python.  A world keeps one of these, so it
    holds only the addresses that world's packets carry.
    """

    def __missing__(self, addr: IPv6Address) -> str:
        text = self[addr] = str(addr)
        return text


class SimNode:
    def __init__(
        self,
        node_id: str,
        role: NodeRole,
        pan_id: int,
        short: int,
        eui: bytes,
        sleep: SleepSchedule | None = None,
        security: SecurityMode = SecurityMode.NONE,
    ):
        self.id = node_id
        self.role = role
        self.pan_id = pan_id
        self.short = short
        self.wpan_address = Short16(pan_id, short)
        self.eui = eui
        self.sleep = sleep
        self.security = security
        self.stack = "lowpan"  # the receive stack; World.prepare sets it from the gateway mode
        self.routes: dict[int, int] = {}  # scenario pins only (World.next_hop)
        self.default_route: int | None = None
        self.mac_seq = 0
        self.nwk_seq = 0
        self.bc0_seq = 0
        self.bc0_seen: OrderedDict = OrderedDict()
        self.tx_free_at = 0.0
        self.frag_ctx = FragmentationContext()
        self.reassembly: dict = {}
        self.received_packets: list[tuple[float, Ipv6Packet]] = []
        self.received_broadcasts: list[tuple[float, bytes]] = []
        self.received_app: list[tuple[float, bytes]] = []
        self.received_nwk: list[tuple[float, NwkFrame]] = []

    @property
    def link_local(self) -> IPv6Address:
        return addressing.link_local(addressing.iid_for(self.wpan_address))

    def matches(self, addr: NodeAddress) -> bool:
        if isinstance(addr, Short16):
            return addr == self.wpan_address
        return isinstance(addr, Eui64) and addr.eui == self.eui

    def is_awake(self, t: float) -> bool:
        return self.sleep is None or self.sleep.is_awake(t)

    def note_broadcast(self, key) -> bool:
        """Record a flood key; returns False if it was already seen."""
        if key in self.bc0_seen:
            return False
        self.bc0_seen[key] = True
        while len(self.bc0_seen) > BC0_CACHE_ENTRIES:
            self.bc0_seen.popitem(last=False)
        return True


@dataclass
class WiredHost:
    id: str
    addr: IPv6Address

    def __post_init__(self):
        self.delivered: list[tuple[float, Ipv6Packet]] = []


def synth_eui(pan_id: int, short: int) -> bytes:
    """Deterministic EUI-64 for scenario nodes that do not pin one."""
    return b"\x00\x12\x4b\x00" + pan_id.to_bytes(2, "big") + short.to_bytes(2, "big")


class World:
    def __init__(self, seed: int = 0, pan_id: int = 0xBEEF, default_hops: int = 8):
        self.rng = random.Random(seed)
        self.pan_id = pan_id
        self.default_hops = default_hops
        self.now = 0.0
        self.nodes: dict[str, SimNode] = {}
        self.by_addr: dict[tuple[int, int], SimNode] = {}
        self.by_iid: dict[tuple[int, bytes], SimNode] = {}
        self.links: dict[tuple[str, str], SimLink] = {}
        self.neighbors: dict[str, list[str]] = {}
        self.gateways: dict[str, Gateway] = {}
        self._gateway_ids: list[str] = []  # the gateways' ids, in id order
        self._pan_gateway: dict[int, str] = {}  # PAN id -> its lowest gateway id
        self.hosts: dict[str, WiredHost] = {}
        self.host_by_addr: dict[IPv6Address, WiredHost] = {}
        self.trace: list[TraceRecord] = []
        self._addr_text = _AddressText()
        self.metrics: dict[str, float] = {}
        self._queue: list = []
        self._event_seq = 0
        self._prepared = False
        self._pan_neighbors: dict[str, list[str]] = {}  # routing's radio graph, built by prepare
        self._relays: set[str] = set()  # the nodes routing may use as transit
        # routing state, grown on lookup: destination id -> (hop counts by
        # node id, the nodes whose neighbours are still to walk)
        self.hop_trees: dict[str, tuple[dict[str, int], list[str]]] = {}
        self._receivers = {"lowpan": self._rx_lowpan, "app": self._rx_app, "nwk": self._rx_nwk}

    # --- construction ---------------------------------------------------

    def add_node(
        self,
        node_id: str,
        role: NodeRole = NodeRole.FFD,
        short: int = 0,
        *,
        eui: bytes | None = None,
        pan_id: int | None = None,
        sleep: SleepSchedule | None = None,
        security: SecurityMode = SecurityMode.NONE,
    ) -> SimNode:
        pan = self.pan_id if pan_id is None else pan_id
        if node_id in self.nodes or node_id in self.hosts:
            raise ValueError(f"duplicate id {node_id!r}")
        if (pan, short) in self.by_addr:
            raise ValueError(f"short 0x{short:04X} already used in PAN 0x{pan:04X}")
        node = SimNode(
            node_id, role, pan, short,
            eui if eui is not None else synth_eui(pan, short),
            sleep, security,
        )
        self.nodes[node_id] = node
        self.by_addr[(pan, short)] = node
        for iid in (addressing.iid_for(node.wpan_address), addressing.iid_from_eui64(node.eui)):
            held = self.by_iid.get((pan, iid))
            if held is None or short < held.short:  # a shared IID resolves to the lower short
                self.by_iid[(pan, iid)] = node
        self.neighbors.setdefault(node_id, [])
        return node

    def add_gateway(
        self,
        node_id: str,
        short: int,
        mode: GatewayMode,
        wired_addr: IPv6Address,
        *,
        prefix: IPv6Address | None = None,
        pan_id: int | None = None,
        subscribers: tuple[IPv6Address, ...] = (),
        tunnel_peer: IPv6Address | None = None,
        discovery_ttl: float = DEFAULT_DISCOVERY_TTL,
    ) -> Gateway:
        pan = self.pan_id if pan_id is None else pan_id
        self.add_node(node_id, NodeRole.FFD, short, pan_id=pan)
        gw = Gateway(
            mode=mode,
            pan_id=pan,
            short=short,
            wired_addr=wired_addr,
            prefix=prefix,
            subscribers=subscribers,
            tunnel_peer=tunnel_peer,
            discovery_ttl=discovery_ttl,
        )
        self.gateways[node_id] = gw
        bisect.insort(self._gateway_ids, node_id)
        self._pan_gateway[pan] = min(node_id, self._pan_gateway.get(pan, node_id))
        return gw

    def add_host(self, host_id: str, addr: IPv6Address) -> WiredHost:
        if host_id in self.hosts or host_id in self.nodes:
            raise ValueError(f"duplicate id {host_id!r}")
        host = WiredHost(host_id, addr)
        self.hosts[host_id] = host
        self.host_by_addr[addr] = host
        return host

    def add_link(
        self, a: str, b: str, band: PhyBand = PhyBand.B2450, loss: float = 0.0
    ) -> SimLink:
        for end in (a, b):
            if end not in self.nodes:
                raise ValueError(f"unknown node {end!r}")
        link = SimLink(a, b, band, loss)
        self.links[(a, b)] = link
        self.links[(b, a)] = link
        for end, other in ((a, b), (b, a)):
            if other not in self.neighbors[end]:
                bisect.insort(self.neighbors[end], other)  # kept in id order for floods and BFS
        return link

    def node(self, node_id: str) -> SimNode:
        return self.nodes[node_id]

    def host(self, host_id: str) -> WiredHost:
        return self.hosts[host_id]

    def gateway(self, node_id: str) -> Gateway:
        return self.gateways[node_id]

    # --- routing ----------------------------------------------------------

    def segment_gateway(self, pan_id: int) -> tuple[str, Gateway] | None:
        """The lowest-id gateway on PAN `pan_id` with its id, or None."""
        gw_id = self._pan_gateway.get(pan_id)
        return None if gw_id is None else (gw_id, self.gateways[gw_id])

    def prepare(self):
        """Give each node its receive stack, index the radio graph for routing
        and register gateway mappings.

        A gateway runs the stack of its own mode, any other node that of its
        PAN's segment gateway, and a node in a PAN without a gateway 6LoWPAN.
        """
        if self._prepared:
            return
        self._prepared = True
        for node_id, node in self.nodes.items():
            gw_id = node_id if node_id in self.gateways else self._pan_gateway.get(node.pan_id)
            if gw_id is not None:
                node.stack = self.gateways[gw_id].mode.stack
        self._pan_neighbors = {
            node_id: [v for v in self.neighbors[node_id] if self.nodes[v].pan_id == node.pan_id]
            for node_id, node in self.nodes.items()
        }
        self._relays = {node_id for node_id, node in self.nodes.items() if node.role.forwards}
        for gw_id in self._gateway_ids:
            gw = self.gateways[gw_id]
            if gw.mode in (GatewayMode.ZIGBEE, GatewayMode.BRIDGE):
                for (pan, short), node in sorted(self.by_addr.items()):
                    if pan == gw.pan_id and node.id != gw_id:
                        gw.mapping.register_node(node.eui, short)

    def next_hop(self, node: SimNode, final_short: int) -> int | None:
        """Short of the radio neighbour that `node` hands a frame for `final_short` to.

        A route pinned by the scenario wins, then the shortest-path hop; a
        destination with neither goes by the pinned default route or,
        failing that, toward the segment gateway.  Valid after `prepare`.
        """
        hop = self._route(node, final_short)
        if hop is None:
            hop = node.default_route
        if hop is None:
            entry = self.segment_gateway(node.pan_id)
            if entry is not None and entry[0] != node.id:
                hop = self._route(node, entry[1].short)
        return hop

    def _route(self, node: SimNode, final_short: int) -> int | None:
        """The pinned route, else the lowest-id same-PAN neighbour one hop closer.

        Hop counts come from a breadth-first search out of the destination,
        kept per destination and shared by every node routing toward it.  It
        grows one level at a time, only until `node` has a count.  Only the
        destination and forwarders are expanded, so an RFD is never transit.
        """
        pinned = node.routes.get(final_short)
        if pinned is not None:
            return pinned
        target = self.by_addr.get((node.pan_id, final_short))
        if target is None:
            return None
        tree = self.hop_trees.get(target.id)
        if tree is None:
            tree = self.hop_trees[target.id] = ({target.id: 0}, [target.id])
        hops, frontier = tree
        neighbors, relays = self._pan_neighbors, self._relays
        while node.id not in hops and frontier:
            level = hops[frontier[0]] + 1
            grown = []
            for u in frontier:
                for v in neighbors[u]:
                    if v not in hops:
                        hops[v] = level
                        if v in relays:
                            grown.append(v)
            frontier[:] = grown
        distance = hops.get(node.id)
        if not distance:  # unreachable, or `node` is the destination
            return None
        for v in neighbors[node.id]:
            if hops.get(v) == distance - 1 and (v == target.id or v in relays):
                return self.nodes[v].short
        return None

    def node_global(self, node_id: str) -> IPv6Address:
        """Delegated-prefix global address of a node (short-derived IID)."""
        node = self.nodes[node_id]
        entry = self.segment_gateway(node.pan_id)
        if entry is None or entry[1].prefix is None:
            raise ValueError(f"segment of {node_id!r} has no delegated prefix")
        return addressing.global_unicast(entry[1].prefix, addressing.iid_for(node.wpan_address))

    # --- event loop -------------------------------------------------------

    def schedule(self, t: float, fn):
        heapq.heappush(self._queue, (t, self._event_seq, fn))
        self._event_seq += 1

    def step(self) -> bool:
        if not self._queue:
            return False
        t, _, fn = heapq.heappop(self._queue)
        self.now = t
        fn()
        return True

    def run_until(self, t_end: float):
        self.prepare()
        while self._queue and self._queue[0][0] <= t_end:
            self.step()
        self.now = t_end

    def run(self):
        self.prepare()
        while self.step():
            pass

    def record(self, node: str, kind: str, detail: str = "", nbytes: int = 0):
        # tuple.__new__ skips the NamedTuple's generated __new__; every field is given
        self.trace.append(tuple.__new__(TraceRecord, (self.now, node, kind, detail, nbytes)))

    def bump(self, key: str, amount: float = 1):
        self.metrics[key] = self.metrics.get(key, 0) + amount

    # --- traffic entry points ----------------------------------------------

    def send_udp(
        self,
        at: float,
        src_id: str,
        dst_id: str,
        sport: int,
        dport: int,
        payload: bytes,
        *,
        hops: int | None = None,
        src_addr: IPv6Address | None = None,
        dst_addr: IPv6Address | None = None,
    ):
        self.schedule(at, partial(self._do_send_udp, src_id, dst_id, sport, dport,
                                  payload, hops, src_addr, dst_addr))

    def _pick_addresses(self, src_id: str, dst_id: str) -> tuple[IPv6Address, IPv6Address]:
        wired_dst = dst_id in self.hosts or dst_id in self.gateways
        if src_id in self.hosts:
            src = self.hosts[src_id].addr
        elif wired_dst or self.nodes[dst_id].pan_id != self.nodes[src_id].pan_id:
            src = self.node_global(src_id)
        else:
            src = self.nodes[src_id].link_local
        if dst_id in self.hosts:
            dst = self.hosts[dst_id].addr
        elif dst_id in self.gateways:
            dst = self.gateways[dst_id].wired_addr
        elif src_id in self.hosts or self.nodes[src_id].pan_id != self.nodes[dst_id].pan_id:
            dst = self.node_global(dst_id)
        else:
            dst = self.nodes[dst_id].link_local
        return src, dst

    def _do_send_udp(self, src_id, dst_id, sport, dport, payload, hops, src_addr, dst_addr):
        self.bump("sent")
        try:
            src, dst = self._pick_addresses(src_id, dst_id)
        except ValueError:  # node_global: a segment without a delegated prefix
            self._drop(src_id, "no-prefix", f"to={dst_id}")
            return
        if src_addr is not None:
            src = src_addr
        if dst_addr is not None:
            dst = dst_addr
        pkt = udp_packet(src, dst, sport, dport, payload)
        self.record(src_id, "send", f"kind=udp to={self._addr_text[dst]}", len(payload))
        if src_id in self.hosts:
            self.wired_send(src_id, pkt)
        else:
            self._node_send_ipv6(self.nodes[src_id], pkt, hops)

    def broadcast(self, at: float, src_id: str, payload: bytes, *, hops: int | None = None):
        self.schedule(at, partial(self._do_broadcast, src_id, payload, hops))

    def send_app(self, at: float, src_id: str, src_devid: int, dst_devid: int, data: bytes):
        self.schedule(at, partial(self._do_send_app, src_id, src_devid, dst_devid, data))

    def send_apl(self, at: float, src_id: str, dst_short: int, apl: bytes):
        self.schedule(at, partial(self._do_send_nwk, src_id, dst_short, apl))

    def send_nwk(self, at: float, src_id: str, dst_short: int, payload: bytes):
        self.schedule(at, partial(self._do_send_nwk, src_id, dst_short, payload))

    # --- 6LoWPAN node stack --------------------------------------------------

    def _resolve_final_short(self, node: SimNode, dst: IPv6Address) -> int | None:
        entry = self.segment_gateway(node.pan_id)
        gw = entry[1] if entry else None
        local = addressing.is_link_local(dst) or (gw is not None and gw.owns_prefix(dst))
        if local:
            target = self.by_iid.get((node.pan_id, addressing.iid_of(dst)))
            return target.short if target is not None else None
        if gw is not None:
            return gw.short
        return None

    def _node_send_ipv6(self, node: SimNode, pkt: Ipv6Packet, hops: int | None = None):
        final_short = self._resolve_final_short(node, pkt.dst)
        if final_short is None:
            self._drop(node.id, "no-such-node", f"dst={self._addr_text[pkt.dst]}")
            return
        orig = node.wpan_address
        final = Short16(node.pan_id, final_short)
        stream = compress_ipv6(pkt, orig, final)
        self._note_compression(pkt, stream)
        hops = hops if hops is not None else self.default_hops
        try:
            frames = mesh_fragments(stream, orig, final, node.frag_ctx, node.security, hops)
        except ReassemblyError as exc:
            self._drop(node.id, _reason_token(exc), f"size={len(stream)}")
            return
        if len(frames) > 1:
            self.record(
                node.id, "frag-start",
                f"size={len(stream)} frames={len(frames)}", len(stream),
            )
            self.bump("fragments_tx", len(frames))
        next_hop = self.next_hop(node, final_short)
        if next_hop is None:
            self._drop(node.id, "no-route", f"final=0x{final_short:04X}")
            return
        for data in frames:
            self._transmit(node, next_hop, data)

    def _note_compression(self, pkt: Ipv6Packet, stream: bytes):
        app_octets = len(pkt.payload)
        uncompressed = 1 + 40 + len(pkt.payload)
        if pkt.next_header == NEXT_HEADER_UDP:
            try:
                app_octets = len(decode_udp(pkt.payload).payload)
                uncompressed = 1 + 40 + 8 + app_octets
            except PacketError:
                pass
        self.bump("header_octets", len(stream) - app_octets)
        self.bump("header_count")
        self.bump("stream_octets", len(stream))
        self.bump("uncompressed_octets", uncompressed)

    def _do_broadcast(self, src_id: str, payload: bytes, hops: int | None):
        node = self.nodes[src_id]
        seq = node.bc0_seq
        node.bc0_seq = (seq + 1) & 0xFF
        node.note_broadcast((node.wpan_address, seq))
        mesh = MeshHeader(
            node.wpan_address,
            Short16(node.pan_id, BROADCAST_SHORT),
            hops if hops is not None else self.default_hops,
        )
        data = encode_mesh(mesh) + encode_bc0(seq) + payload
        self.bump("bcast_sent")
        self.record(src_id, "send", f"kind=bc0 seq={seq}", len(payload))
        # the originating application keeps its own copy
        node.received_broadcasts.append((self.now, payload))
        self.record(src_id, "deliver", f"kind=bc0 seq={seq} from={src_id}", len(payload))
        self.bump("bcast_delivered")
        self._flood(node, data)

    def _do_send_app(self, src_id: str, src_devid: int, dst_devid: int, data: bytes):
        node = self.nodes[src_id]
        payload = AppHeader(src_devid, dst_devid).encode() + data
        self.bump("sent")
        self.record(src_id, "send", f"kind=app devid={dst_devid}", len(data))
        entry = self.segment_gateway(node.pan_id)
        if entry is None:
            self._drop(src_id, "no-route", "detail=no-translator")
            return
        self._transmit(node, entry[1].short, payload)

    def _do_send_nwk(self, src_id: str, dst_short: int, payload: bytes):
        node = self.nodes[src_id]
        frame = NwkFrame(
            dst_short=dst_short, src_short=node.short,
            sequence=node.nwk_seq, payload=payload,
        )
        node.nwk_seq = (node.nwk_seq + 1) & 0xFF
        self.bump("sent")
        self.record(src_id, "send", f"kind=nwk dst=0x{dst_short:04X}", len(payload))
        if dst_short == NWK_BROADCAST_SHORT:
            self._flood(node, frame.encode())
            return
        local = self.by_addr.get((node.pan_id, dst_short))
        if local is not None and (src_id, local.id) in self.links:
            self._transmit(node, dst_short, frame.encode())
            return
        entry = self.segment_gateway(node.pan_id)
        if entry is None:
            self._drop(src_id, "no-route", f"dst=0x{dst_short:04X}")
            return
        self._transmit(node, entry[1].short, frame.encode())

    # --- radio -----------------------------------------------------------------

    def _transmit(self, node: SimNode, dst_short: int, payload: bytes):
        dst_node = self.by_addr.get((node.pan_id, dst_short))
        if dst_node is None:
            self._drop(node.id, "no-such-node", f"dst=0x{dst_short:04X}")
            return
        link = self.links.get((node.id, dst_node.id))
        if link is None:
            self._drop(node.id, "no-link", f"dst={dst_node.id}")
            return
        try:
            frame = MacFrame(
                FrameType.DATA,
                node.mac_seq,
                src=node.wpan_address,
                dst=dst_node.wpan_address,
                security=node.security,
                payload=payload,
            )
        except PayloadOverBudget:
            self._drop(node.id, "payload-over-budget", f"size={len(payload)}")
            return
        node.mac_seq = (node.mac_seq + 1) & 0xFF
        psdu = encode_mac_frame(frame)
        airtime = frame_airtime(link.band, PHY_OVERHEAD + len(psdu))
        start = max(self.now, node.tx_free_at)
        node.tx_free_at = start + airtime
        self.schedule(start, partial(self._tx_event, node, dst_node, link, psdu, airtime))

    def _flood(self, node: SimNode, data: bytes):
        """Send one copy of `data` to every radio neighbour, in id order."""
        for neighbor in self.neighbors[node.id]:
            self._transmit(node, self.nodes[neighbor].short, data)

    def _tx_event(self, node: SimNode, dst_node: SimNode, link: SimLink, psdu: bytes, airtime: float):
        ppdu_octets = PHY_OVERHEAD + len(psdu)
        if not node.is_awake(self.now):
            self._drop(node.id, "asleep", "dir=tx", ppdu_octets)
            return
        self.record(node.id, "tx", f"dst={dst_node.id}", ppdu_octets)
        self.bump("frames_tx")
        if self.rng.random() < link.loss_probability:
            self.schedule(self.now + airtime, partial(self._loss_event, dst_node, ppdu_octets))
        else:
            self.schedule(self.now + airtime, partial(self._rx_event, dst_node, psdu))

    def _loss_event(self, dst_node: SimNode, ppdu_octets: int):
        self._drop(dst_node.id, "loss", nbytes=ppdu_octets)

    def _rx_event(self, node: SimNode, psdu: bytes):
        if not node.is_awake(self.now):
            self._drop(node.id, "asleep", "dir=rx", PHY_OVERHEAD + len(psdu))
            return
        try:
            frame = decode_mac_frame(psdu)
        except FrameError as exc:
            self._drop(node.id, "malformed-frame", str(exc))
            return
        src = f"0x{frame.src.short:04X}" if isinstance(frame.src, Short16) else "?"
        self.record(node.id, "rx", f"src={src}", PHY_OVERHEAD + len(psdu))
        self.bump("frames_rx")
        self._receivers[node.stack](node, frame)

    def _drop(self, node_id: str, reason: str, extra: str = "", nbytes: int = 0):
        """The one drop path: a `drop` trace record and the `drops` counters."""
        detail = f"reason={reason}" + (f" {extra}" if extra else "")
        self.record(node_id, "drop", detail, nbytes)
        self.bump("drops")
        self.bump(f"drops_{reason}")

    # --- receive paths ------------------------------------------------------

    def _rx_lowpan(self, node: SimNode, frame: MacFrame):
        data = frame.payload
        if not data:
            self._drop(node.id, "empty-payload")
            return
        orig: NodeAddress = frame.src
        final: NodeAddress = frame.dst
        try:
            kind = parse_dispatch(data[0])
            if kind is DispatchKind.MESH:
                mesh, consumed = decode_mesh(data, node.pan_id)
                rest = data[consumed:]
                if isinstance(mesh.final, Short16) and mesh.final.short == BROADCAST_SHORT:
                    self._rx_flood(node, mesh, data, rest)
                    return
                if not node.matches(mesh.final):
                    self._forward(node, mesh, data)
                    return
                if not rest:
                    self._drop(node.id, "empty-payload")
                    return
                orig, final = mesh.originator, mesh.final
                data = rest
                kind = parse_dispatch(data[0])
            if kind in (DispatchKind.FRAG_FIRST, DispatchKind.FRAG_SUBSEQUENT):
                result = accept_fragment(node.reassembly, orig, data, self.now)
                if result.opened is not None:
                    buffer = node.reassembly[result.opened]
                    deadline = partial(self._reassembly_deadline, node, result.opened, buffer)
                    self.schedule(self.now + REASSEMBLY_TIMEOUT, deadline)
                if result.outcome is FragmentOutcome.DROPPED:
                    self._drop(node.id, "timeout", "stage=reassembly")
                    return
                if result.outcome is FragmentOutcome.PENDING:
                    return
                data = result.datagram
                self.record(node.id, "reasm-complete", f"size={len(data)}", len(data))
                self.bump("reassemblies")
                kind = parse_dispatch(data[0])
            if kind in (DispatchKind.HC1, DispatchKind.UNCOMPRESSED_IPV6):
                pkt = decompress_ipv6(data, orig, final)
                self._deliver_packet(node, pkt)
            else:
                self._drop(node.id, "unknown-dispatch", f"byte=0x{data[0]:02X}")
        except (CodecError, ReassemblyError) as exc:
            self._drop(node.id, "codec-error", f"kind={type(exc).__name__}")

    def _reassembly_deadline(self, node: SimNode, key, buffer):
        """Discard `buffer` if it is still incomplete at its deadline (RFC 4944 §5.3)."""
        if node.reassembly.get(key) is buffer:
            del node.reassembly[key]
            self._drop(node.id, "timeout", "stage=reassembly")

    def _forward(self, node: SimNode, mesh: MeshHeader, data: bytes):
        """Pass on `data`, a frame's mesh header and what follows, one hop fewer."""
        if not node.role.forwards:
            self._drop(node.id, "not-forwarder")
            return
        hops = mesh.hops_left - 1
        if hops <= 0:
            self._drop(node.id, "hops-exhausted")
            return
        if not isinstance(mesh.final, Short16):
            self._drop(node.id, "no-route", "detail=eui-final")
            return
        next_hop = self.next_hop(node, mesh.final.short)
        if next_hop is None:
            self._drop(node.id, "no-route", f"final=0x{mesh.final.short:04X}")
            return
        self.record(node.id, "forward", f"final=0x{mesh.final.short:04X} hops={hops}")
        self._transmit(node, next_hop, decrement_hops(data))

    def _rx_flood(self, node: SimNode, mesh: MeshHeader, data: bytes, rest: bytes):
        seq, consumed = decode_bc0(rest)
        payload = rest[consumed:]
        if not node.note_broadcast((mesh.originator, seq)):
            self._drop(node.id, "duplicate", f"seq={seq}")
            return
        node.received_broadcasts.append((self.now, payload))
        self.record(node.id, "deliver", f"kind=bc0 seq={seq}", len(payload))
        self.bump("bcast_delivered")
        gw = self.gateways.get(node.id)
        if gw is not None and gw.subscribers:
            for pkt in gw.relay_broadcast(payload):
                dst = self._addr_text[pkt.dst]
                self.record(node.id, "gw-translate", f"mode={gw.mode.value} dir=bcast dst={dst}")
                self.wired_send(node.id, pkt)
        if node.role.forwards and mesh.hops_left - 1 > 0:
            self.record(node.id, "forward", f"final=bcast hops={mesh.hops_left - 1}")
            self._flood(node, decrement_hops(data))

    def _deliver_packet(self, node: SimNode, pkt: Ipv6Packet):
        gw = self.gateways.get(node.id)
        if gw is not None:
            self._uplink(node, gw, pkt)  # a border gateway: the packet crosses as is
            return
        node.received_packets.append((self.now, pkt))
        self.record(node.id, "deliver", f"kind=ipv6 from={self._addr_text[pkt.src]}", pkt.payload_length)
        self.bump("delivered")

    def _rx_app(self, node: SimNode, frame: MacFrame):
        gw = self.gateways.get(node.id)
        if gw is None:
            entry = self.segment_gateway(node.pan_id)
            if entry is None or frame.src != self.nodes[entry[0]].wpan_address:
                self._drop(node.id, "stack-mismatch")  # app frames come only from the translator
                return
            node.received_app.append((self.now, frame.payload))
            self.record(node.id, "deliver", "kind=app", len(frame.payload))
            self.bump("delivered")
            return
        try:
            pkt = gw.devid_uplink(frame.payload)
        except GatewayError as exc:
            self._drop(node.id, _reason_token(exc))
            return
        self._uplink(node, gw, pkt)

    def _rx_nwk(self, node: SimNode, frame: MacFrame):
        try:
            nwk = NwkFrame.decode(frame.payload)
        except GatewayError:
            self._drop(node.id, "malformed-nwk")
            return
        gw = self.gateways.get(node.id)
        if gw is None:
            if nwk.dst_short in (node.short, NWK_BROADCAST_SHORT):
                node.received_nwk.append((self.now, nwk))
                self.record(node.id, "deliver", f"kind=nwk src=0x{nwk.src_short:04X}", len(nwk.payload))
                self.bump("delivered")
            else:
                self._drop(node.id, "nwk-not-mine", f"dst=0x{nwk.dst_short:04X}")
            return
        try:
            pkts = gw.zigbee_uplink(nwk) if gw.mode is GatewayMode.ZIGBEE else [gw.bridge_uplink(nwk)]
        except GatewayError as exc:
            self._drop(node.id, _reason_token(exc))
            return
        for pkt in pkts:
            self._uplink(node, gw, pkt)

    # --- wired domain ---------------------------------------------------------

    def wired_send(self, origin_id: str, pkt: Ipv6Packet):
        dst = self._addr_text[pkt.dst]
        self.record(origin_id, "wired-tx", f"dst={dst} nh={pkt.next_header}", pkt.payload_length)
        self.bump("wired_tx")
        self.schedule(self.now + WIRED_DELAY, partial(self._wired_rx, pkt))

    def _wired_rx(self, pkt: Ipv6Packet):
        host = self.host_by_addr.get(pkt.dst)
        src = self._addr_text[pkt.src]
        if host is not None:
            host.delivered.append((self.now, pkt))
            self.record(host.id, "wired-rx", f"src={src} nh={pkt.next_header}", pkt.payload_length)
            self.record(host.id, "deliver", f"kind=ipv6 from={src}", pkt.payload_length)
            self.bump("delivered")
            return
        for gw_id in self._gateway_ids:
            gw = self.gateways[gw_id]
            if pkt.dst == gw.wired_addr or gw.owns_prefix(pkt.dst):
                self.record(gw_id, "wired-rx", f"src={src} nh={pkt.next_header}", pkt.payload_length)
                self._gateway_downlink(gw_id, gw, pkt)
                return
        self._drop("wired", "no-wired-route", f"dst={self._addr_text[pkt.dst]}")

    def _gateway_downlink(self, gw_id: str, gw: Gateway, pkt: Ipv6Packet):
        node = self.nodes[gw_id]
        try:
            if gw.mode is GatewayMode.BORDER:
                if gw.owns_prefix(pkt.dst):
                    self._downlink(node, gw, pkt)
                else:
                    self._drop(gw_id, "no-such-node", f"dst={self._addr_text[pkt.dst]}")
            elif gw.mode is GatewayMode.DEVID:
                endpoint, payload = gw.devid_downlink(pkt, node.security)
                self._downlink(node, gw, pkt, endpoint.short, payload)
            else:
                if gw.mode is GatewayMode.ZIGBEE:
                    nwk = gw.zigbee_downlink(pkt, node.nwk_seq)
                    node.nwk_seq = (node.nwk_seq + 1) & 0xFF
                else:
                    nwk = gw.bridge_downlink(pkt)
                self._downlink(node, gw, pkt, nwk.dst_short, nwk.encode())
        except (GatewayError, PacketError) as exc:
            self._drop(gw_id, _reason_token(exc))

    def _uplink(self, node: SimNode, gw: Gateway, pkt: Ipv6Packet):
        """Trace and count one translated packet, then send it on the wire."""
        dst = self._addr_text[pkt.dst]
        self.record(node.id, "gw-translate", f"mode={gw.mode.value} dir=up dst={dst}")
        self.bump("gw_translations")
        self.wired_send(node.id, pkt)

    def _downlink(
        self, node: SimNode, gw: Gateway, pkt: Ipv6Packet, dst_short: int | None = None, payload: bytes = b""
    ):
        """Trace and count one translation of `pkt`, then send it into the PAN.

        Border mode sends `pkt` itself through the 6LoWPAN stack; the other
        modes send their translated MAC payload to `dst_short`.
        """
        dst = self._addr_text[pkt.dst] if dst_short is None else f"0x{dst_short:04X}"
        self.record(node.id, "gw-translate", f"mode={gw.mode.value} dir=down dst={dst}")
        self.bump("gw_translations")
        if dst_short is None:
            self._node_send_ipv6(node, pkt)
        else:
            self._transmit(node, dst_short, payload)

    # --- reporting --------------------------------------------------------------

    def trace_lines(self) -> list[str]:
        return [record.line() for record in self.trace]

    def metrics_lines(self) -> list[str]:
        out = dict(self.metrics)
        sent = out.get("sent", 0)
        delivered = out.get("delivered", 0)
        out["delivery_ratio"] = delivered / sent if sent else 1.0
        if out.get("header_count"):
            out["mean_header_overhead"] = out["header_octets"] / out["header_count"]
            out["compression_ratio"] = out["stream_octets"] / out["uncompressed_octets"]
        lines = []
        for key in sorted(out):
            value = out[key]
            if isinstance(value, float) and not value.is_integer():
                lines.append(f"{key}={value:.6f}")
            else:
                lines.append(f"{key}={int(value)}")
        return lines


def _reason_token(exc: Exception) -> str:
    """Stable kebab-case trace token for a gateway/codec error class."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()
