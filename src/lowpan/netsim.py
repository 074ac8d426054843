"""Deterministic discrete-event simulation of LoWPAN segments.

A world holds WPAN nodes, point-to-point radio links inside one PAN,
optional gateways and wired IPv6 hosts.  Events are processed in (time,
sequence) order from a single queue of `(t, seq, (method, *args))`
entries, where `method` is a bound method of the world: what is in flight
is plain data a test can read.  The only randomness is per-transmission
loss, sampled from one seeded generator, so a world's trace is a pure
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
byte count, tab separated.  Only `World._deliver` writes `deliver` records
and only `World._drop` writes `drop` records; no delivered payload is kept.
"""

from __future__ import annotations

import bisect
import heapq
import random
from array import array
from collections import OrderedDict, namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain
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
    CheckedTuple,
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
    AppHeader,
    Gateway,
    GatewayError,
    GatewayMode,
    NoPrefix,
    NwkFrame,
    NWK_BROADCAST_SHORT,
    mesh_fragments,
)
from .ipv6 import UDP_HEADER_OCTETS, Ipv6Packet, PacketError, udp_packet
from .reassembly import (
    REASSEMBLY_TIMEOUT,
    FragmentOutcome,
    FragmentationContext,
    ReassemblyError,
    accept_fragment,
)

BC0_CACHE_ENTRIES = 64
WIRED_DELAY = 0.001  # one-way latency of the wired IPv6 domain, in seconds
_TRACE_LINE = "%.6f\t%s\t%s\t%s\t%s"  # time, node, kind, detail, nbytes


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

    def __post_init__(self):
        if not (self.awake >= 0 and self.asleep >= 0 and self.awake + self.asleep > 0):
            raise ValueError(f"sleep needs awake and asleep >= 0 and a period > 0, not {self.awake}/{self.asleep}")

    def is_awake(self, t: float) -> bool:
        return t % (self.awake + self.asleep) < self.awake


class SimLink(CheckedTuple, namedtuple("SimLink", "a b band loss_probability")):
    """A radio link between two nodes of one PAN; an unchecked value type."""

    __slots__ = ()

    def __new__(cls, a: str, b: str, band: PhyBand = PhyBand.B2450, loss_probability: float = 0.0):
        return tuple.__new__(cls, (a, b, band, loss_probability))


class TraceRecord(NamedTuple):
    time: float
    node: str
    kind: str
    detail: str = ""
    nbytes: int = 0


class _Memo(dict):
    """A value -> `make(value)`, each missing value made once.

    A world formats each address or short of its trace details once in one
    (`str(IPv6Address)` is pure Python); a trace numbers its texts in one.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, value):
        made = self[value] = self.make(value)
        return made


# Records per column array.  A full chunk is never grown again: growing one
# array per column for the whole run moves it through the malloc heap about
# 170 times and leaves holes beside the payload buffers (about 5 MB of a
# 50 MB `lowpan run` peak on a 260k-record run).
_CHUNK = 4096


class Trace:
    """A world's trace in columns, one array slot per field of a record.

    Node ids, kinds and details are indices into one table of distinct
    texts, so a record costs about 24 octets and no Python object.  Byte
    counts must fit 32 bits; the largest, a UDP length, is 65,535.  The
    columns come in chunks of `_CHUNK` records; `World.record` appends to
    the open chunk, whose arrays are the attributes below.  Iterating
    yields `TraceRecord`s, built on demand.
    """

    __slots__ = ("times", "nodes", "kinds", "details", "nbytes", "chunks", "texts", "ids")

    def __init__(self):
        self.chunks: list[tuple[array, ...]] = []
        texts: list[str] = []

        def text_id(text: str) -> int:  # closes over the list, not the trace: no reference cycle
            texts.append(text)
            return len(texts) - 1

        self.texts = texts
        self.ids = _Memo(text_id)  # a text -> its index in `texts`
        self.open_chunk()

    def open_chunk(self):
        columns = array("d"), array("I"), array("I"), array("I"), array("I")
        self.times, self.nodes, self.kinds, self.details, self.nbytes = columns
        self.chunks.append(columns)

    def __len__(self) -> int:
        return (len(self.chunks) - 1) * _CHUNK + len(self.times)

    def _fields(self):
        text = self.texts.__getitem__
        return chain.from_iterable(
            zip(times, map(text, nodes), map(text, kinds), map(text, details), nbytes)
            for times, nodes, kinds, details, nbytes in self.chunks
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord._make, self._fields())

    def lines(self) -> Iterator[str]:
        """The records as `trace.tsv` lines, rendered lazily."""
        return map(_TRACE_LINE.__mod__, self._fields())


class SimNode:
    __slots__ = (
        "id", "role", "pan_id", "short", "wpan_address", "iid", "eui", "sleep", "security", "stack",
        "routes", "default_route", "mac_seq", "nwk_seq", "bc0_seq", "bc0_seen", "tx_free_at", "frag_ctx",
        "reassembly",
    )

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
        self.iid = addressing.iid_for(self.wpan_address)  # the interface identifier, from the short
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

    @property
    def link_local(self) -> IPv6Address:
        return addressing.link_local(self.iid)

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
        self.zigbee_shorts: dict[int, dict[bytes, int]] = {}  # zigbee PAN -> EUI-64 -> lowest short (prepare)
        self._pan_gateway: dict[int, str] = {}  # PAN id -> its lowest gateway id
        # where a wired packet goes: its destination address, or that address's
        # first 8 octets, -> the lowest id of a gateway with that wired address
        # or delegated prefix
        self._wired_gateway: dict[IPv6Address, str] = {}
        self._prefix_gateway: dict[bytes, str] = {}
        self.hosts: dict[str, WiredHost] = {}
        self.host_by_addr: dict[IPv6Address, WiredHost] = {}
        self.trace = Trace()
        self._addr_text = _Memo(str)  # IPv6Address -> its text
        self._rx_text = _Memo("src=0x%04X".__mod__)  # a frame's source short -> rx detail
        self.metrics: dict[str, float] = {}
        self._queue: list = []
        self._event_seq = 0
        self._prepared = False
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
        for iid in (node.iid, addressing.iid_from_eui64(node.eui)):
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
    ) -> Gateway:
        pan = self.pan_id if pan_id is None else pan_id
        self.add_node(node_id, NodeRole.FFD, short, pan_id=pan)
        gw = Gateway(
            mode=mode,
            wired_addr=wired_addr,
            prefix=prefix,
            subscribers=subscribers,
            tunnel_peer=tunnel_peer,
        )
        self.gateways[node_id] = gw
        self._pan_gateway[pan] = min(node_id, self._pan_gateway.get(pan, node_id))
        # IPv6Address keys compare scope ids too, as `==` does
        self._wired_gateway[wired_addr] = min(node_id, self._wired_gateway.get(wired_addr, node_id))
        if (prefix64 := gw.mapping.prefix64) is not None:
            self._prefix_gateway[prefix64] = min(node_id, self._prefix_gateway.get(prefix64, node_id))
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
        """Join two different nodes of one PAN; PANs meet only through a gateway."""
        node_a, node_b = self.nodes.get(a), self.nodes.get(b)
        for end, node in ((a, node_a), (b, node_b)):
            if node is None:
                raise ValueError(f"unknown node {end!r}")
        if a == b:
            raise ValueError(f"a link joins two different nodes, not {a!r} to itself")
        pan_a, pan_b = node_a.pan_id, node_b.pan_id
        if pan_a != pan_b:
            raise ValueError(
                f"a link joins two nodes of one PAN, not {a!r} (PAN 0x{pan_a:04X}) and {b!r} (PAN 0x{pan_b:04X})"
            )
        link = self.links[(a, b)] = self.links[(b, a)] = SimLink(a, b, band, loss)
        for end, other in ((a, b), (b, a)):
            ends = self.neighbors[end]
            if other not in ends:
                bisect.insort(ends, other)  # kept in id order for floods and BFS
        return link

    def node(self, node_id: str) -> SimNode:
        return self.nodes[node_id]

    def gateway(self, node_id: str) -> Gateway:
        return self.gateways[node_id]

    # --- routing ----------------------------------------------------------

    def segment_gateway(self, pan_id: int) -> tuple[SimNode, Gateway] | None:
        """The lowest-id gateway on PAN `pan_id` with its node, or None."""
        gw_id = self._pan_gateway.get(pan_id)
        return None if gw_id is None else (self.nodes[gw_id], self.gateways[gw_id])

    def prepare(self):
        """Give each node its receive stack, note the forwarders routing may
        use and index the nodes of each zigbee PAN by EUI-64.

        A gateway runs the stack of its own mode, any other node that of its
        PAN's segment gateway, and a node in a PAN without a gateway 6LoWPAN.
        Nodes sharing an EUI-64 resolve to the lowest short (as `by_iid` does).
        """
        if self._prepared:
            return
        self._prepared = True
        for gw_id, gw in self.gateways.items():  # bridge mode tunnels NWK frames verbatim
            if gw.mode is GatewayMode.ZIGBEE:
                self.zigbee_shorts[self.nodes[gw_id].pan_id] = {}
        for node_id, node in self.nodes.items():
            gw_id = node_id if node_id in self.gateways else self._pan_gateway.get(node.pan_id)
            if gw_id is not None:
                node.stack = self.gateways[gw_id].mode.stack
            shorts = self.zigbee_shorts.get(node.pan_id)  # gw_id == node_id at a gateway, left out
            if shorts is not None and gw_id != node_id and node.short < shorts.get(node.eui, 0x10000):
                shorts[node.eui] = node.short
        self._relays = {node_id for node_id, node in self.nodes.items() if node.role.forwards}

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
            if entry is not None and entry[0] is not node:
                hop = self._route(node, entry[0].short)
        return hop

    def _route(self, node: SimNode, final_short: int) -> int | None:
        """The pinned route, else the lowest-id neighbour one hop closer.

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
        neighbors, relays = self.neighbors, self._relays
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
            raise NoPrefix(f"segment of {node_id!r} has no delegated prefix")
        return addressing.global_unicast(entry[1].prefix, node.iid)

    # --- event loop -------------------------------------------------------

    def schedule(self, t: float, event: tuple):
        """Queue `event`, a bound method of this world then its arguments, for time `t`."""
        heapq.heappush(self._queue, (t, self._event_seq, event))
        self._event_seq += 1

    def step(self) -> bool:
        if not self._queue:
            return False
        t, _, event = heapq.heappop(self._queue)
        self.now = t
        event[0](*event[1:])
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
        trace = self.trace
        if len(trace.times) == _CHUNK:
            trace.open_chunk()
        ids = trace.ids
        trace.times.append(self.now)
        trace.nodes.append(ids[node])
        trace.kinds.append(ids[kind])
        trace.details.append(ids[detail])
        trace.nbytes.append(nbytes)

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
    ):
        self.schedule(at, (self._do_send_udp, src_id, dst_id, sport, dport, payload, hops))

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

    def _do_send_udp(self, src_id, dst_id, sport, dport, payload, hops):
        self.bump("sent")
        try:
            src, dst = self._pick_addresses(src_id, dst_id)
        except NoPrefix as exc:  # node_global: a segment without a delegated prefix
            self._drop(src_id, exc.reason, f"to={dst_id}")
            return
        pkt = udp_packet(src, dst, sport, dport, payload)
        self.record(src_id, "send", f"kind=udp to={self._addr_text[dst]}", len(payload))
        if src_id in self.hosts:
            self.wired_send(src_id, pkt)
        else:
            self._node_send_ipv6(self.nodes[src_id], pkt, hops)

    def broadcast(self, at: float, src_id: str, payload: bytes, *, hops: int | None = None):
        self.schedule(at, (self._do_broadcast, src_id, payload, hops))

    def send_app(self, at: float, src_id: str, src_devid: int, dst_devid: int, data: bytes):
        self.schedule(at, (self._do_send_app, src_id, src_devid, dst_devid, data))

    def send_nwk(self, at: float, src_id: str, dst_short: int, payload: bytes):
        self.schedule(at, (self._do_send_nwk, src_id, dst_short, payload))

    send_apl = send_nwk  # APL data rides a NWK frame as its payload

    # --- 6LoWPAN node stack --------------------------------------------------

    def _resolve_final_short(self, node: SimNode, dst: IPv6Address) -> int | None:
        entry = self.segment_gateway(node.pan_id)
        if addressing.is_link_local(dst) or (entry is not None and entry[1].owns_prefix(dst)):
            target = self.by_iid.get((node.pan_id, addressing.iid_of(dst)))
            return target.short if target is not None else None
        return entry[0].short if entry is not None else None

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
            self._drop(node.id, exc.reason, f"size={len(stream)}")
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
        # the HC1 octet's low bit (HC2 follows) is set when the UDP header was compressed
        app_octets = len(pkt.payload) - UDP_HEADER_OCTETS * (stream[1] & 1)
        self.bump("header_octets", len(stream) - app_octets)
        self.bump("header_count")
        self.bump("stream_octets", len(stream))
        self.bump("uncompressed_octets", 1 + 40 + len(pkt.payload))

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
        self._deliver(src_id, f"kind=bc0 seq={seq} from={src_id}", len(payload), payload, "bcast_delivered")
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
        self._transmit(node, entry[0].short, payload)

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
        self._transmit(node, entry[0].short, frame.encode())

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
        except PayloadOverBudget as exc:
            self._drop(node.id, exc.reason, f"size={len(payload)}")
            return
        node.mac_seq = (node.mac_seq + 1) & 0xFF
        psdu = encode_mac_frame(frame)
        airtime = frame_airtime(link.band, PHY_OVERHEAD + len(psdu))
        start = max(self.now, node.tx_free_at)
        node.tx_free_at = start + airtime
        self.schedule(start, (self._tx_event, node, dst_node, link, psdu, airtime))

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
            self.schedule(self.now + airtime, (self._drop, dst_node.id, "loss", "", ppdu_octets))
        else:
            self.schedule(self.now + airtime, (self._rx_event, dst_node, psdu))

    def _rx_event(self, node: SimNode, psdu: bytes):
        if not node.is_awake(self.now):
            self._drop(node.id, "asleep", "dir=rx", PHY_OVERHEAD + len(psdu))
            return
        try:
            frame = decode_mac_frame(psdu)
        except FrameError as exc:
            self._drop(node.id, "malformed-frame", str(exc))
            return
        src = frame.src
        detail = self._rx_text[src.short] if isinstance(src, Short16) else "src=?"
        self.record(node.id, "rx", detail, PHY_OVERHEAD + len(psdu))
        self.bump("frames_rx")
        self._receivers[node.stack](node, frame)

    def _drop(self, node_id: str, reason: str, extra: str = "", nbytes: int = 0):
        """The one drop path: a `drop` trace record and the `drops` counters."""
        detail = f"reason={reason}" + (f" {extra}" if extra else "")
        self.record(node_id, "drop", detail, nbytes)
        self.bump("drops")
        self.bump(f"drops_{reason}")

    def _deliver(self, node_id: str, detail: str, nbytes: int, delivered, counter: str = "delivered"):
        """The one delivery path: a `deliver` trace record and `counter`.

        `delivered`, the `Ipv6Packet`, payload octets or `NwkFrame` the
        application receives, is not kept; to see it, wrap this method.
        """
        self.record(node_id, "deliver", detail, nbytes)
        self.bump(counter)

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
                    deadline = (self._reassembly_deadline, node, result.opened, node.reassembly[result.opened])
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
        self._deliver(node.id, f"kind=bc0 seq={seq}", len(payload), payload, "bcast_delivered")
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
        self._deliver(node.id, f"kind=ipv6 from={self._addr_text[pkt.src]}", pkt.payload_length, pkt)

    def _rx_app(self, node: SimNode, frame: MacFrame):
        gw = self.gateways.get(node.id)
        if gw is None:
            entry = self.segment_gateway(node.pan_id)
            if entry is None or frame.src != entry[0].wpan_address:
                self._drop(node.id, "stack-mismatch")  # app frames come only from the translator
                return
            self._deliver(node.id, "kind=app", len(frame.payload), frame.payload)
            return
        try:
            pkt = gw.devid_uplink(frame.payload)
        except GatewayError as exc:
            self._drop(node.id, exc.reason)
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
                self._deliver(node.id, f"kind=nwk src=0x{nwk.src_short:04X}", len(nwk.payload), nwk)
            else:
                self._drop(node.id, "nwk-not-mine", f"dst=0x{nwk.dst_short:04X}")
            return
        src = self.by_addr.get((node.pan_id, nwk.src_short))
        src_ext = None if src is None or src is node else src.eui  # a gateway never speaks for itself
        try:
            pkts = gw.zigbee_uplink(nwk, src_ext) if gw.mode is GatewayMode.ZIGBEE else [gw.bridge_uplink(nwk)]
        except GatewayError as exc:
            self._drop(node.id, exc.reason)
            return
        for pkt in pkts:
            self._uplink(node, gw, pkt)

    # --- wired domain ---------------------------------------------------------

    def wired_send(self, origin_id: str, pkt: Ipv6Packet):
        dst = self._addr_text[pkt.dst]
        self.record(origin_id, "wired-tx", f"dst={dst} nh={pkt.next_header}", pkt.payload_length)
        self.bump("wired_tx")
        self.schedule(self.now + WIRED_DELAY, (self._wired_rx, pkt))

    def _wired_rx(self, pkt: Ipv6Packet):
        host = self.host_by_addr.get(pkt.dst)
        src = self._addr_text[pkt.src]
        if host is not None:
            self.record(host.id, "wired-rx", f"src={src} nh={pkt.next_header}", pkt.payload_length)
            self._deliver(host.id, f"kind=ipv6 from={src}", pkt.payload_length, pkt)
            return
        # the lowest-id gateway whose wired address is, or whose prefix holds, the destination
        gw_id = self._wired_gateway.get(pkt.dst)
        by_prefix = self._prefix_gateway.get(pkt.dst.packed[:8])
        if by_prefix is not None and (gw_id is None or by_prefix < gw_id):
            gw_id = by_prefix
        if gw_id is None:
            self._drop("wired", "no-wired-route", f"dst={self._addr_text[pkt.dst]}")
            return
        self.record(gw_id, "wired-rx", f"src={src} nh={pkt.next_header}", pkt.payload_length)
        self._gateway_downlink(gw_id, self.gateways[gw_id], pkt)

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
                    nwk = gw.zigbee_downlink(pkt, self.zigbee_shorts[node.pan_id], node.nwk_seq)
                    node.nwk_seq = (node.nwk_seq + 1) & 0xFF
                else:
                    nwk = gw.bridge_downlink(pkt)
                self._downlink(node, gw, pkt, nwk.dst_short, nwk.encode())
        except (GatewayError, PacketError) as exc:
            self._drop(gw_id, exc.reason)

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

    def trace_lines(self) -> Iterator[str]:
        """The trace as `trace.tsv` lines, rendered lazily: iterate it once."""
        return self.trace.lines()

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
