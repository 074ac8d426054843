"""Deterministic discrete-event simulation of LoWPAN segments.

A world holds WPAN nodes, point-to-point radio links inside one PAN,
optional gateways and wired IPv6 hosts.  A gateway is a node whose
`gateway` slot holds its translator.  The radio graph is one map per
node from each neighbour's id to the `SimLink` (band and loss) the two share: one link
record per pair, reachable from both ends.  Nodes, gateways and links are
added before `World.prepare`; a prepared world refuses more, so `prepare`
puts each map in neighbour id order once, the order floods walk.

Events are processed in (time, sequence) order from a single queue of
`(t, seq, (method, *args))` entries, where `method` is a bound method of
the world: what is in flight is plain data a test can read.  The only
randomness is per-transmission loss, sampled from one seeded generator,
so a world's trace is a pure function of its scenario and seed.

The send calls (`send_udp`, `broadcast`, `send_app`, `send_nwk`,
`send_apl`) are where traffic is checked: each refuses an illegal send
with `ValueError` and queues nothing, so no queued send aborts a run.

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
  * A node's flood dedup cache (`bc0_seen`) is made on first use, when it
    first sees a flood; most nodes of a large mesh never need it.  Its
    fragment tag (`next_tag`) is a plain counter, like its sequence numbers.

Addressing: a UDP send names each node end link-local when both ends are
nodes of one PAN and the destination is no gateway, and by `node_global`
(its PAN gateway's delegated prefix and its interface identifier)
otherwise; a host end is its own address and a gateway destination the
gateway's wired address.  Each gateway translation, up, down or a relayed
flood, writes one `gw-translate` record, through `World._translated`.

Trace records are one line each: time, node, event kind, detail and a
byte count, tab separated.  Only `World._deliver` writes `deliver` records
and only `World._drop` writes `drop` records; no delivered payload is kept.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from collections import OrderedDict, namedtuple
from collections.abc import Iterator
from enum import Enum
from itertools import chain
from ipaddress import IPv6Address

from . import addressing
from .codec import (
    DISPATCH_TABLE,
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
from .ipv6 import IPV6_HEADER_OCTETS, UDP_HEADER_OCTETS, Ipv6Packet, PacketError, udp_packet
from .reassembly import (
    REASSEMBLY_TIMEOUT,
    FragmentationContext,
    FragmentOutcome,
    ReassemblyError,
    accept_fragment,
)

BC0_CACHE_ENTRIES = 64
WIRED_DELAY = 0.001  # one-way latency of the wired IPv6 domain, in seconds
MAX_PAYLOAD = 0xFFFF - UDP_HEADER_OCTETS  # the 16-bit UDP length field counts its 8-octet header
_TRACE_LINE = "%.6f\t%s\t%s\t%s\t%s"  # time, node, kind, detail, nbytes


class NodeRole(Enum):
    COORDINATOR = "coordinator"
    FFD = "ffd"
    RFD = "rfd"

    def __init__(self, value: str):
        self.forwards: bool = value != "rfd"


_COORDINATOR = NodeRole.COORDINATOR  # read once: an enum member read off its class is slow


class SleepSchedule(CheckedTuple, namedtuple("SleepSchedule", "awake asleep")):
    """Periodic awake/asleep cycle starting awake at t=0; `__new__` refuses a negative time or a zero period."""

    __slots__ = ()

    def __new__(cls, awake: float, asleep: float):
        if not (awake >= 0 and asleep >= 0 and awake + asleep > 0):
            raise ValueError(f"sleep needs awake and asleep >= 0 and a period > 0, not {awake}/{asleep}")
        return tuple.__new__(cls, (awake, asleep))

    def is_awake(self, t: float) -> bool:
        return t % (self.awake + self.asleep) < self.awake


class SimLink(CheckedTuple, namedtuple("SimLink", "band loss_probability", defaults=(PhyBand.B2450, 0.0))):
    """A radio link's band and loss; `World.neighbors` keys it by its two ends.  Unchecked."""

    __slots__ = ()


TraceRecord = namedtuple("TraceRecord", "time node kind detail nbytes", defaults=("", 0))


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
        "routes", "default_route", "mac_seq", "nwk_seq", "bc0_seq", "bc0_seen", "tx_free_at", "next_tag",
        "reassembly", "gateway",
    )

    def __init__(
        self,
        node_id: str,
        role: NodeRole,
        pan_id: int,
        short: int,
        eui: bytes | None,
        sleep: SleepSchedule | None = None,
        security: SecurityMode = SecurityMode.NONE,
    ):
        self.id = node_id
        self.role = role
        self.pan_id = pan_id
        self.short = short
        self.wpan_address = Short16(pan_id, short)  # refuses a PAN or short out of range
        self.iid = addressing.iid_for(self.wpan_address)  # the interface identifier, from the short
        self.eui = eui if eui is not None else synth_eui(pan_id, short)
        self.sleep = sleep
        self.security = security
        self.stack = "lowpan"  # the receive stack; World.prepare sets it from the gateway mode
        self.routes: dict[int, int] = {}  # scenario pins only (World.next_hop)
        self.default_route: int | None = None
        self.mac_seq = 0
        self.nwk_seq = 0
        self.bc0_seq = 0
        self.bc0_seen: OrderedDict | None = None  # made by the first note_broadcast
        self.tx_free_at = 0.0
        self.next_tag = 0  # the tag of the next datagram this node fragments
        self.reassembly: dict = {}
        self.gateway: Gateway | None = None  # the translator of a gateway node (World.add_gateway)

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
        seen = self.bc0_seen
        if seen is None:
            seen = self.bc0_seen = OrderedDict()
        elif key in seen:
            return False
        seen[key] = True
        if len(seen) > BC0_CACHE_ENTRIES:
            seen.popitem(last=False)
        return True

    # a node is its own `fragment` context: one tag rule, and no context object per node
    take_tag = FragmentationContext.take_tag


class WiredHost(CheckedTuple, namedtuple("WiredHost", "id addr")):
    """A wired IPv6 host: its id and address; an unchecked value type."""

    __slots__ = ()


def _check_range(name: str, value: int, top: int):
    """Refuse at the call a field that the header built from it would refuse
    when a send runs, with that header's `ValueError`."""
    if not 0 <= value <= top:
        raise ValueError(f"{name} out of range: {value}")


def _wrong_type(name: str, value, needed: str) -> TypeError:
    """The error an `add_*` call raises, storing nothing, for an argument of the wrong type."""
    return TypeError(f"{name} must be {needed}, not {type(value).__name__}")


def synth_eui(pan_id: int, short: int) -> bytes:
    """Deterministic EUI-64 for scenario nodes that do not pin one."""
    return b"\x00\x12\x4b\x00" + pan_id.to_bytes(2, "big") + short.to_bytes(2, "big")


class World:
    """Nodes, links, gateways and hosts, each address with one owner: the `add_*`
    methods raise `ValueError`, storing nothing, for an id, short, interface
    identifier, wired address or prefix already taken, a second gateway or
    coordinator in a PAN, or a link loss outside 0..1, and `TypeError` for
    an enum, schedule, address, number or EUI-64 argument of the wrong type."""

    def __init__(self, seed: int = 0, pan_id: int = 0xBEEF, default_hops: int = 8):
        if not isinstance(pan_id, int):
            raise _wrong_type("pan_id", pan_id, "an int")
        _check_range("hops_left", default_hops, 0x0F)
        self.rng = random.Random(seed)
        self.pan_id = pan_id
        self.default_hops = default_hops
        self.now = 0.0
        self.nodes: dict[str, SimNode] = {}
        self.by_addr: dict[tuple[int, int], SimNode] = {}
        self.by_iid: dict[tuple[int, bytes], SimNode] = {}
        # the radio graph: node id -> {neighbour id: the link they share}, one
        # SimLink per pair; in insertion order until `prepare` sorts each map
        # by neighbour id for floods
        self.neighbors: dict[str, dict[str, SimLink]] = {}
        self.zigbee_shorts: dict[int, dict[bytes, int]] = {}  # zigbee PAN -> EUI-64 -> short (prepare)
        self._pan_gateway: dict[int, SimNode] = {}  # PAN id -> its gateway's node
        self._pan_coordinator: dict[int, SimNode] = {}  # PAN id -> its coordinator node
        # a wired address -> its host or gateway node, and a prefix's first 8
        # octets -> its gateway node; IPv6Address keys compare scope ids, as `==` does
        self._wired_owner: dict[IPv6Address, SimNode | WiredHost] = {}
        self._prefix_gateway: dict[bytes, SimNode] = {}
        self.hosts: dict[str, WiredHost] = {}
        self.trace = Trace()
        self._addr_text = _Memo(str)  # IPv6Address -> its text
        self._rx_text = _Memo("src=0x%04X".__mod__)  # a frame's source short -> rx detail
        self.metrics: dict[str, float] = {}
        self._queue: list = []
        self._event_seq = 0
        self._prepared = False
        self._relays: set[str] = set()  # the nodes routing may use as transit
        # routing state, grown on lookup: destination id -> (next-hop id by
        # node id, None at the destination; the nodes still to expand)
        self.hop_trees: dict[str, tuple[dict[str, str | None], list[str]]] = {}
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
        if not isinstance(role, NodeRole):
            raise _wrong_type("role", role, "a NodeRole")
        if not isinstance(short, int):
            raise _wrong_type("short", short, "an int")
        if eui is not None and not isinstance(eui, bytes):
            raise _wrong_type("eui", eui, "bytes or None")
        if pan_id is not None and not isinstance(pan_id, int):
            raise _wrong_type("pan_id", pan_id, "an int or None")
        if not isinstance(security, SecurityMode):
            raise _wrong_type("security", security, "a SecurityMode")
        if sleep is not None and not isinstance(sleep, SleepSchedule):
            raise _wrong_type("sleep", sleep, "a SleepSchedule or None")
        if self._prepared:
            raise ValueError(f"cannot add {node_id!r}: the world is prepared")
        pan = self.pan_id if pan_id is None else pan_id
        if node_id in self.nodes or node_id in self.hosts:
            raise ValueError(f"duplicate id {node_id!r}")
        coordinator = role is _COORDINATOR
        if coordinator and pan in self._pan_coordinator:
            raise ValueError(f"PAN 0x{pan:04X} has coordinator {self._pan_coordinator[pan].id!r}")
        addr_key = (pan, short)
        if addr_key in self.by_addr:
            raise ValueError(f"short 0x{short:04X} already used in PAN 0x{pan:04X}")
        node = SimNode(node_id, role, pan, short, eui, sleep, security)
        by_iid = self.by_iid
        iid_key, eui_key = (pan, node.iid), (pan, addressing.iid_from_eui64(node.eui))
        taken = iid_key if iid_key in by_iid else eui_key if eui_key in by_iid else None
        if taken is not None:
            held = by_iid[taken].id
            raise ValueError(f"interface identifier {taken[1].hex()} already names {held!r} in PAN 0x{pan:04X}")
        self.nodes[node_id] = self.by_addr[addr_key] = by_iid[iid_key] = by_iid[eui_key] = node
        if coordinator:
            self._pan_coordinator[pan] = node
        self.neighbors[node_id] = {}
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
        if not isinstance(short, int):
            raise _wrong_type("short", short, "an int")
        if pan_id is not None and not isinstance(pan_id, int):
            raise _wrong_type("pan_id", pan_id, "an int or None")
        if not isinstance(mode, GatewayMode):
            raise _wrong_type("mode", mode, "a GatewayMode")
        if not isinstance(wired_addr, IPv6Address):
            raise _wrong_type("wired_addr", wired_addr, "an IPv6Address")
        for name, addr in (("prefix", prefix), ("tunnel_peer", tunnel_peer)):
            if addr is not None and not isinstance(addr, IPv6Address):
                raise _wrong_type(name, addr, "an IPv6Address or None")
        for i, addr in enumerate(subscribers):
            if not isinstance(addr, IPv6Address):
                raise _wrong_type(f"subscribers[{i}]", addr, "an IPv6Address")
        pan = self.pan_id if pan_id is None else pan_id
        if pan in self._pan_gateway:
            raise ValueError(f"PAN 0x{pan:04X} already has gateway {self._pan_gateway[pan].id!r}")
        if wired_addr in self._wired_owner:
            raise ValueError(f"wired address {wired_addr} already belongs to {self._wired_owner[wired_addr].id!r}")
        gw = Gateway(
            mode=mode,
            wired_addr=wired_addr,
            prefix=prefix,
            subscribers=subscribers,
            tunnel_peer=tunnel_peer,
        )
        prefix64 = gw.mapping.prefix64
        if prefix64 in self._prefix_gateway:
            raise ValueError(f"prefix {prefix} is already delegated to {self._prefix_gateway[prefix64].id!r}")
        node = self.add_node(node_id, NodeRole.FFD, short, pan_id=pan)  # refuses a prepared world
        node.gateway = gw
        self._pan_gateway[pan] = self._wired_owner[wired_addr] = node
        if prefix64 is not None:
            self._prefix_gateway[prefix64] = node
        return gw

    def add_host(self, host_id: str, addr: IPv6Address) -> WiredHost:
        if not isinstance(addr, IPv6Address):
            raise _wrong_type("addr", addr, "an IPv6Address")
        if host_id in self.hosts or host_id in self.nodes:
            raise ValueError(f"duplicate id {host_id!r}")
        if addr in self._wired_owner:
            raise ValueError(f"wired address {addr} already belongs to {self._wired_owner[addr].id!r}")
        host = WiredHost(host_id, addr)
        self.hosts[host_id] = self._wired_owner[addr] = host
        return host

    def add_link(
        self, a: str, b: str, band: PhyBand = PhyBand.B2450, loss: float = 0.0
    ) -> SimLink:
        """Join two different nodes of one PAN, once, with a loss probability
        in 0..1; PANs meet only through a gateway.

        The link is stored at both ends as given; `prepare` puts each
        node's neighbours in id order.
        """
        if not isinstance(band, PhyBand):
            raise _wrong_type("band", band, "a PhyBand")
        if not isinstance(loss, (int, float)):
            raise _wrong_type("loss", loss, "an int or float")
        if self._prepared:
            raise ValueError(f"cannot link {a!r} and {b!r}: the world is prepared")
        node_a = self.nodes.get(a)
        if node_a is None:
            raise ValueError(f"unknown node {a!r}")
        node_b = self.nodes.get(b)
        if node_b is None:
            raise ValueError(f"unknown node {b!r}")
        if a == b:
            raise ValueError(f"a link joins two different nodes, not {a!r} to itself")
        pan_a, pan_b = node_a.pan_id, node_b.pan_id
        if pan_a != pan_b:
            raise ValueError(
                f"a link joins two nodes of one PAN, not {a!r} (PAN 0x{pan_a:04X}) and {b!r} (PAN 0x{pan_b:04X})"
            )
        a, b = node_a.id, node_b.id  # the world's own id strings, not the caller's copies
        if b in self.neighbors[a]:
            raise ValueError(f"{a!r} and {b!r} are already linked")
        if not 0 <= loss <= 1:  # refuses nan too
            raise ValueError(f"link loss {loss!r} is not in 0..1")
        link = tuple.__new__(SimLink, (band, loss))
        self.neighbors[a][b] = self.neighbors[b][a] = link
        return link

    def node(self, node_id: str) -> SimNode:
        return self.nodes[node_id]

    def gateway(self, node_id: str) -> Gateway | None:
        """The translator of node `node_id`, or None at a node that is no gateway."""
        return self.nodes[node_id].gateway

    # --- routing ----------------------------------------------------------

    def segment_gateway(self, pan_id: int) -> SimNode | None:
        """The gateway node of PAN `pan_id`, or None; a PAN has at most one."""
        return self._pan_gateway.get(pan_id)

    def prepare(self):
        """Put each node's neighbours in id order for floods, give each node
        its receive stack, note the forwarders routing may use and index the
        nodes of each zigbee PAN by EUI-64.

        A gateway runs the stack of its own mode, any other node that of its
        PAN's segment gateway, and a node in a PAN without a gateway 6LoWPAN.
        No two nodes of a PAN share an EUI-64, so each index entry names one.
        """
        if self._prepared:
            return
        self._prepared = True
        neighbors = self.neighbors
        for node_id, ends in neighbors.items():  # a prepared world takes no more links
            neighbors[node_id] = dict(sorted(ends.items()))
        for pan, gw_node in self._pan_gateway.items():  # bridge mode tunnels NWK frames verbatim
            if gw_node.gateway.mode is GatewayMode.ZIGBEE:
                self.zigbee_shorts[pan] = {}
        for node in self.nodes.values():
            gw_node = self._pan_gateway.get(node.pan_id)  # a gateway is its PAN's only one
            if gw_node is not None:
                node.stack = gw_node.gateway.mode.stack
            shorts = self.zigbee_shorts.get(node.pan_id)  # the gateway itself is left out
            if shorts is not None and gw_node is not node:
                shorts[node.eui] = node.short
        self._relays = {node_id for node_id, node in self.nodes.items() if node.role.forwards}

    def next_hop(self, node: SimNode, final_short: int) -> int | None:
        """Short of the radio neighbour that `node` hands a frame for `final_short` to.

        A route pinned by the scenario wins, then the shortest-path hop of
        lowest id; a destination with neither goes by the pinned default
        route or, failing that, toward the segment gateway.  Valid after
        `prepare`; the answer does not depend on neighbour order.
        """
        hop = self._route(node, final_short)
        if hop is None:
            hop = node.default_route
        if hop is None:
            gw_node = self.segment_gateway(node.pan_id)
            if gw_node is not None and gw_node is not node:
                hop = self._route(node, gw_node.short)
        return hop

    def _route(self, node: SimNode, final_short: int) -> int | None:
        """The pinned route, else the lowest-id neighbour one hop closer.

        Next hops come from a breadth-first search out of the destination,
        kept per destination and shared by every node routing toward it.  It
        grows one level at a time, only until `node` has a hop, and expands
        each level in id order, so the first node to reach another is its
        lowest-id neighbour one hop closer.  Only the destination and
        forwarders are expanded, so an RFD is never transit.
        """
        pinned = node.routes.get(final_short)
        if pinned is not None:
            return pinned
        target = self.by_addr.get((node.pan_id, final_short))
        if target is None:
            return None
        tree = self.hop_trees.get(target.id)
        if tree is None:
            tree = self.hop_trees[target.id] = ({target.id: None}, [target.id])
        next_hops, frontier = tree
        neighbors, relays = self.neighbors, self._relays
        while node.id not in next_hops and frontier:
            grown = []
            for u in frontier:  # in id order, so the lowest-id hop claims each node
                for v in neighbors[u]:
                    if v not in next_hops:
                        next_hops[v] = u
                        if v in relays:
                            grown.append(v)
            frontier[:] = sorted(grown)
        hop = next_hops.get(node.id)  # None if unreachable, or `node` is the destination
        return None if hop is None else self.nodes[hop].short

    def node_global(self, node_id: str) -> IPv6Address:
        """Delegated-prefix global address of a node (short-derived IID)."""
        node = self.nodes[node_id]
        gw_node = self.segment_gateway(node.pan_id)
        if gw_node is None or gw_node.gateway.mapping.prefix is None:
            raise NoPrefix(f"segment of {node_id!r} has no delegated prefix")
        return addressing.global_unicast(gw_node.gateway.mapping.prefix, node.iid)

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

    def _sender(self, src_id: str, kind: str) -> str:
        """The world's own id of the sender of a `kind` send; `ValueError`
        for an unknown id, or for a host sending anything but udp."""
        node = self.nodes.get(src_id)
        if node is not None:
            return node.id
        host = self.hosts.get(src_id)
        if host is None:
            raise ValueError(f"unknown sender {src_id!r}")
        if kind != "udp":
            raise ValueError(f"{kind} traffic must start at a node, not host {src_id!r}")
        return host.id

    def _check_send(self, at: float, src_id: str, kind: str, payload: bytes, hops: int | None = None) -> str:
        """The rules every send call applies before it queues, returning the
        world's own id of the sender: a time that is a finite number >= 0, a
        known sender (`_sender`), a payload of at most `MAX_PAYLOAD` octets,
        and a hops budget only from a node, in 0..15.  A host's datagram
        enters its PAN at the gateway, which sends it with `default_hops`."""
        if not 0 <= at < math.inf:  # refuses nan too
            raise ValueError(f"send time {at!r} is not a finite number >= 0")
        src_id = self._sender(src_id, kind)
        if len(payload) > MAX_PAYLOAD:
            raise ValueError(f"payload of {len(payload)} octets is over {MAX_PAYLOAD}")
        if hops is not None:
            if src_id in self.hosts:
                raise ValueError(f"hops applies only to a node's sends, not host {src_id!r}")
            _check_range("hops_left", hops, 0x0F)
        return src_id

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
        src_id = self._check_send(at, src_id, "udp", payload, hops)
        receiver = self.nodes.get(dst_id) or self.hosts.get(dst_id)
        if receiver is None:
            raise ValueError(f"unknown udp destination {dst_id!r}")
        _check_range("src_port", sport, 0xFFFF)
        _check_range("dst_port", dport, 0xFFFF)
        self.schedule(at, (self._do_send_udp, src_id, receiver.id, sport, dport, payload, hops))

    def _pick_addresses(self, src_id: str, dst_id: str) -> tuple[IPv6Address, IPv6Address]:
        """Name a UDP send's ends, the source first: a node link-local when both ends are nodes
        of one PAN and the destination is no gateway, else by `node_global`; a host by its own
        address and a gateway destination by its wired one."""
        src_node, dst_node = self.nodes.get(src_id), self.nodes.get(dst_id)  # None at a wired host
        local = (src_node is not None and dst_node is not None
                 and dst_node.gateway is None and src_node.pan_id == dst_node.pan_id)
        if src_node is None:
            src = self.hosts[src_id].addr
        else:
            src = src_node.link_local if local else self.node_global(src_id)
        if dst_node is None:
            dst = self.hosts[dst_id].addr
        elif dst_node.gateway is not None:
            dst = dst_node.gateway.wired_addr
        else:
            dst = dst_node.link_local if local else self.node_global(dst_id)
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
        src_id = self._check_send(at, src_id, "broadcast", payload, hops)
        self.schedule(at, (self._do_broadcast, src_id, payload, hops))

    def send_app(self, at: float, src_id: str, src_devid: int, dst_devid: int, data: bytes):
        src_id = self._check_send(at, src_id, "app", data)
        self.schedule(at, (self._do_send_app, src_id, AppHeader(src_devid, dst_devid), data))

    def send_nwk(self, at: float, src_id: str, dst_short: int, payload: bytes):
        self._send_nwk("nwk", at, src_id, dst_short, payload)

    def send_apl(self, at: float, src_id: str, dst_short: int, payload: bytes):
        """An APL send to the short `apl_destination` gives; APL data rides a NWK frame as its payload."""
        self._send_nwk("apl", at, src_id, dst_short, payload)

    def _send_nwk(self, kind: str, at: float, src_id: str, dst_short: int, payload: bytes):
        src_id = self._check_send(at, src_id, kind, payload)
        _check_range("dst_short", dst_short, 0xFFFF)
        self.schedule(at, (self._do_send_nwk, src_id, dst_short, payload))

    def apl_destination(self, src_id: str, dst_id: str) -> int:
        """The short node `src_id` puts in the NWK frame of an APL send to `dst_id`.

        A node of the sender's PAN is named by its own short.  A wired host
        or a node of another segment is named by a short from the pool of
        the sender's gateway, assigned here, before the run; a remote node's
        peer address is its pseudo address, computed from the remote prefix
        and its EUI-64 alone (`prepare` indexes the remote PAN's nodes by
        EUI-64).  `ValueError` for a sender `_sender` refuses, a sender or
        remote node whose segment has no gateway, an unknown destination, a
        remote gateway without a prefix or a spent pool.
        """
        node = self.nodes[self._sender(src_id, "apl")]
        gw_node = self.segment_gateway(node.pan_id)
        if gw_node is None:
            raise ValueError(f"segment of {src_id!r} has no gateway")
        if dst_id in self.hosts:
            peer = self.hosts[dst_id].addr
        elif dst_id in self.nodes:
            target = self.nodes[dst_id]
            if target.pan_id == node.pan_id:
                return target.short
            remote = self.segment_gateway(target.pan_id)
            if remote is None:
                raise ValueError(f"segment of {dst_id!r} has no gateway")
            peer = remote.gateway.mapping.assign_pseudo(target.eui)
        else:
            raise ValueError(f"unknown apl destination {dst_id!r}")
        return gw_node.gateway.mapping.assign_short(peer)

    # --- 6LoWPAN node stack --------------------------------------------------

    def _resolve_final_short(self, node: SimNode, dst: IPv6Address) -> int | None:
        gw_node = self.segment_gateway(node.pan_id)
        if addressing.is_link_local(dst) or (gw_node is not None and gw_node.gateway.owns_prefix(dst)):
            target = self.by_iid.get((node.pan_id, addressing.iid_of(dst)))
            return target.short if target is not None else None
        return gw_node.short if gw_node is not None else None

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
            frames = mesh_fragments(stream, orig, final, node, node.security, hops)  # tags from take_tag
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
        self.bump("uncompressed_octets", 1 + IPV6_HEADER_OCTETS + len(pkt.payload))

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

    def _do_send_app(self, src_id: str, header: AppHeader, data: bytes):
        node = self.nodes[src_id]
        payload = header.encode() + data
        self.bump("sent")
        self.record(src_id, "send", f"kind=app devid={header.dst_devid}", len(data))
        gw_node = self.segment_gateway(node.pan_id)
        if gw_node is None:
            self._drop(src_id, "no-route", "detail=no-translator")
            return
        self._transmit(node, gw_node.short, payload)

    def _do_send_nwk(self, src_id: str, dst_short: int, payload: bytes):
        node = self.nodes[src_id]
        data = NwkFrame(dst_short=dst_short, src_short=node.short, sequence=node.nwk_seq, payload=payload).encode()
        node.nwk_seq = (node.nwk_seq + 1) & 0xFF
        self.bump("sent")
        self.record(src_id, "send", f"kind=nwk dst=0x{dst_short:04X}", len(payload))
        if dst_short == NWK_BROADCAST_SHORT:
            self._flood(node, data)
            return
        local = self.by_addr.get((node.pan_id, dst_short))
        gw_node = self.segment_gateway(node.pan_id)
        if local is not None and local.id in self.neighbors[src_id]:
            self._transmit(node, dst_short, data)
        elif gw_node is None:
            self._drop(src_id, "no-route", f"dst=0x{dst_short:04X}")
        else:
            self._transmit(node, gw_node.short, data)

    # --- radio -----------------------------------------------------------------

    def _transmit(self, node: SimNode, dst_short: int, payload: bytes):
        dst_node = self.by_addr.get((node.pan_id, dst_short))
        if dst_node is None:
            self._drop(node.id, "no-such-node", f"dst=0x{dst_short:04X}")
            return
        link = self.neighbors[node.id].get(dst_node.id)
        if link is None:
            self._drop(node.id, "no-link", f"dst={dst_node.id}")
            return
        try:
            frame = MacFrame(
                FrameType.DATA, node.mac_seq, node.wpan_address, dst_node.wpan_address, node.security, payload
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
            kind = DISPATCH_TABLE[data[0]]
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
                kind = DISPATCH_TABLE[data[0]]
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
                kind = DISPATCH_TABLE[data[0]]
            if kind in (DispatchKind.HC1, DispatchKind.UNCOMPRESSED_IPV6):
                pkt = decompress_ipv6(data, orig, final)
                if node.gateway is not None:
                    self._uplink(node, pkt)  # a border gateway: the packet crosses as is
                else:
                    self._deliver(node.id, f"kind=ipv6 from={self._addr_text[pkt.src]}", pkt.payload_length, pkt)
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
        gw = node.gateway
        if gw is not None and gw.subscribers:
            for pkt in gw.relay_broadcast(payload):
                self._uplink(node, pkt, "bcast")
        if node.role.forwards and mesh.hops_left - 1 > 0:
            self.record(node.id, "forward", f"final=bcast hops={mesh.hops_left - 1}")
            self._flood(node, decrement_hops(data))

    def _rx_app(self, node: SimNode, frame: MacFrame):
        gw = node.gateway
        if gw is None:
            gw_node = self.segment_gateway(node.pan_id)
            if gw_node is None or frame.src != gw_node.wpan_address:
                self._drop(node.id, "stack-mismatch")  # app frames come only from the translator
                return
            self._deliver(node.id, "kind=app", len(frame.payload), frame.payload)
            return
        try:
            pkt = gw.devid_uplink(frame.payload)
        except GatewayError as exc:
            self._drop(node.id, exc.reason)
            return
        self._uplink(node, pkt)

    def _rx_nwk(self, node: SimNode, frame: MacFrame):
        try:
            nwk = NwkFrame.decode(frame.payload)
        except GatewayError:
            self._drop(node.id, "malformed-nwk")
            return
        gw = node.gateway
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
            self._uplink(node, pkt)

    # --- wired domain ---------------------------------------------------------

    def wired_send(self, origin_id: str, pkt: Ipv6Packet):
        dst = self._addr_text[pkt.dst]
        self.record(origin_id, "wired-tx", f"dst={dst} nh={pkt.next_header}", pkt.payload_length)
        self.bump("wired_tx")
        self.schedule(self.now + WIRED_DELAY, (self._wired_rx, pkt))

    def _wired_rx(self, pkt: Ipv6Packet):
        owner = self._wired_owner.get(pkt.dst)
        if owner is None:  # an exact address beats a delegated prefix
            owner = self._prefix_gateway.get(pkt.dst.packed[:8])
        if owner is None:
            self._drop("wired", "no-wired-route", f"dst={self._addr_text[pkt.dst]}")
            return
        src = self._addr_text[pkt.src]
        self.record(owner.id, "wired-rx", f"src={src} nh={pkt.next_header}", pkt.payload_length)
        if isinstance(owner, WiredHost):
            self._deliver(owner.id, f"kind=ipv6 from={src}", pkt.payload_length, pkt)
        else:
            self._gateway_downlink(owner, pkt)

    def _gateway_downlink(self, node: SimNode, pkt: Ipv6Packet):
        gw = node.gateway
        if gw.mode is GatewayMode.BORDER:  # the packet crosses as is
            if gw.owns_prefix(pkt.dst):
                self._translated(node, "down", self._addr_text[pkt.dst])
                self._node_send_ipv6(node, pkt)
            else:
                self._drop(node.id, "no-such-node", f"dst={self._addr_text[pkt.dst]}")
            return
        try:
            if gw.mode is GatewayMode.DEVID:
                endpoint, payload = gw.devid_downlink(pkt, node.security)
                dst_short = endpoint.short
            else:
                if gw.mode is GatewayMode.ZIGBEE:
                    nwk = gw.zigbee_downlink(pkt, self.zigbee_shorts[node.pan_id], node.nwk_seq)
                    node.nwk_seq = (node.nwk_seq + 1) & 0xFF
                else:
                    nwk = gw.bridge_downlink(pkt)
                dst_short, payload = nwk.dst_short, nwk.encode()
        except (GatewayError, PacketError) as exc:
            self._drop(node.id, exc.reason)
            return
        self._translated(node, "down", f"0x{dst_short:04X}")
        self._transmit(node, dst_short, payload)

    def _uplink(self, node: SimNode, pkt: Ipv6Packet, direction: str = "up"):
        """Send on the wire a packet gateway `node` translated `up` or relayed from a flood (`bcast`)."""
        self._translated(node, direction, self._addr_text[pkt.dst])
        self.wired_send(node.id, pkt)

    def _translated(self, node: SimNode, direction: str, dst: str):
        """The one `gw-translate` record: gateway `node` translated a datagram `up`, `down` or,
        relaying a flood, `bcast` toward `dst`; `gw_translations` counts the first two."""
        self.record(node.id, "gw-translate", f"mode={node.gateway.mode.value} dir={direction} dst={dst}")
        if direction != "bcast":
            self.bump("gw_translations")

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
