"""Line-oriented scenario files for the simulator.

A scenario is a sequence of sections.  Lines end only at a line feed.
Every non-blank, non-comment line is either a `[section ...]` header or
a `key = value` pair (`key=value` tokens on one line inside `[traffic]`).
Keys before a `;` are required, and bracketed traffic tokens are optional:

    [general]            seed, t_end, pan, hops
    [node ID]            short; role, eui, sleep, security, devid, pan
    [gateway ID]         mode, short, wired; prefix, pan, subscribers, peer
    [host ID]            addr; devid
    [link A B]           band, loss
    [route ID]           <final-short> = <next-hop-short>, default = <short>
    [traffic]            one traffic event per line; only udp may start at a host, hops= only at a node

    at=T kind=udp from=ID to=ID [sport=P] [dport=P] size=N|hex=HH [hops=N]
    at=T kind=broadcast from=ID size=N|hex=HH [hops=N]
    at=T kind=app from=ID todevid=N [devid=N] size=N|hex=HH
    at=T kind=apl from=ID to=ID size=N|hex=HH
    at=T kind=nwk from=ID dst=SHORT size=N|hex=HH

Numbers accept 0x prefixes.  Times (`at`, `t_end`, both parts of
`sleep = awake/asleep`) are finite and >= 0, `loss` is in 0..1, shorts,
PANs, ports and devids in 0..0xFFFF, hop budgets in 0..15.  `size=N`
generates a deterministic payload pattern and `hex=` gives it verbatim;
either is at most 65,527 octets, what one UDP datagram carries.  A link
joins two different nodes of one PAN, once, and a PAN has at most one
coordinator: a second is reported at its section's header, after that
section's own values have passed their checks.  An address has one
owner: a PAN one gateway, a short or EUI-64 one node of its PAN, a wired
address one host or gateway, a prefix one gateway.  A node pins the
route to a final short, and its default route, once: `2` and `0x2` name
one short, and a second pin, in the same route section or another, names
the first pin's line.  Unknown sections, keys and tokens, a wrong number
of ids, a key given twice in a section, a host named twice in
`subscribers`, a link, address or route that breaks these rules and
out-of-range values are a `ScenarioError` naming their line.  Routes not
pinned by a [route] section are hop-count shortest paths, computed on
first use.

A traffic line only turns its text into values: the `World` send call it
makes (`send_udp`, `broadcast`, `send_app`, `send_nwk`, or `send_apl` to
the short `World.apl_destination` gives) decides whether the send is
legal, and a send it refuses is a `ScenarioError` at the traffic line.
`hops=` applies only to a node's sends: a host's datagram enters its PAN
at the gateway, which sends it with the general `hops`.

The whole file is read before anything is built: an unknown section or
key, a key given twice and then a missing required key are found first,
wherever they are.  The world is then built one kind at a time, whatever
the file order: general, hosts, gateways, nodes, links, routes, host
devids, traffic.  So a link, route or traffic line may come before the
nodes it names, and of two faults in values the one in the kind built
first is reported.
"""

from __future__ import annotations

import gc
import math
from ipaddress import AddressValueError, IPv6Address

from .addressing import eui64_from_text
from .frame import PhyBand, SecurityMode
from .gateway import GatewayMode, register_devid
from .netsim import MAX_PAYLOAD, NodeRole, SleepSchedule, World

DEFAULT_T_END = 60.0
U16 = 0xFFFF  # pan, short and devid values
MAX_HOPS = 0x0F  # the 4-bit hops-left field of the mesh header


class ScenarioError(ValueError):
    pass


# section kind -> (number of ids, required keys, optional keys); any key of
# a route section is a final short, and a traffic section holds events
_SECTIONS = {
    "general": (0, (), ("seed", "t_end", "pan", "hops")),
    "node": (1, ("short",), ("role", "eui", "sleep", "security", "devid", "pan")),
    "gateway": (1, ("mode", "short", "wired"), ("prefix", "pan", "subscribers", "peer")),
    "host": (1, ("addr",), ("devid",)),
    "link": (2, (), ("band", "loss")),
    "route": (1, (), None),
    "traffic": (0, (), None),
}
# section kind -> {key: the slot of its value in a parsed record}, for the
# kinds `_parse_sections` lays out flat; the key's line is the next slot
_SLOTS = {kind: {key: 1 + ids + 2 * i for i, key in enumerate((*required, *optional))}
          for kind, (ids, required, optional) in _SECTIONS.items() if optional is not None}
# section kind -> its parsed record with no key given
_BLANK = {kind: [None] * (1 + _SECTIONS[kind][0] + 2 * len(slots)) for kind, slots in _SLOTS.items()}
# traffic kind -> (required tokens, optional tokens) besides at=, kind=, from=
# and one of size=/hex=; only udp may start at a wired host
_TRAFFIC = {
    "udp": (("to",), ("sport", "dport", "hops")),
    "broadcast": ((), ("hops",)),
    "app": (("todevid",), ("devid",)),
    "apl": (("to",), ()),
    "nwk": (("dst",), ()),
}
_TOKENS = {kind: {"at", "kind", "from", "size", "hex", *required, *optional}
           for kind, (required, optional) in _TRAFFIC.items()}
# traffic kind -> the tokens it needs, in the order a missing one is reported
_NEEDS = {kind: ("at", "from", *required) for kind, (required, _) in _TRAFFIC.items()}
_ROLES = {role.value: role for role in NodeRole}
_MODES = {mode.value: mode for mode in GatewayMode}
_BANDS = {band.label: band for band in PhyBand}
_SECURITY = {suite.label: suite for suite in SecurityMode}
# the band `_build` gives a link that names none, read off its enum once: an
# enum member read off its class costs several plain attribute reads
_B2450 = PhyBand.B2450


_PATTERN = bytes((i * 37 + 11) & 0xFF for i in range(256))  # pattern payloads repeat every 256 octets


def pattern_payload(size: int) -> bytes:
    """Deterministic filler bytes for size= traffic specs."""
    return (_PATTERN * (size // 256 + 1))[:size]


def _parse_sections(text: str) -> dict[str, list]:
    """The sections of each kind in file order, checked against `_SECTIONS`.

    A general, node, gateway, host or link section is one flat list laid
    out by its kind's `_SLOTS`: `[header line, *ids, value₀, line₀, value₁,
    line₁, …]`, a value and its line for each key of `_SECTIONS` in order,
    both None for a key the section does not give.  A route section is
    `[header line, id, {key: (line, value)}]`.  `"traffic"` holds one
    `(line, text)` pair per traffic line, of every traffic section.

    Lines end only at a line feed: a form feed or another break that
    `str.splitlines` honours stays inside its line.  The records share one
    string object per distinct id, key and value text, so a thousand links
    hold no thousand copies of one `loss`."""
    sections: dict[str, list] = {kind: [] for kind in _SECTIONS}
    events = sections["traffic"]
    # section kind -> (number of ids, key slots, blank record, its records):
    # what a header needs, in one lookup; for this parse only
    specs = {kind: (count, _SLOTS.get(kind), _BLANK.get(kind), sections[kind])
             for kind, (count, _, _) in _SECTIONS.items()}
    share = {}.setdefault  # text -> its first copy, for this parse only
    # the open section's kind and record, and its key slots (None in a
    # route section, whose keys go to `pins`); `traffic` in a traffic section
    kind = record = slots = pins = None
    traffic = False
    for lineno, raw in enumerate(text.split("\n"), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        line = raw.strip()
        if not line:
            continue
        if line[0] == "[":
            if line[-1] != "]":
                raise ScenarioError(f"line {lineno}: unterminated section header")
            kind, *ids = line[1:-1].split() or [""]
            spec = specs.get(kind)
            if spec is None:
                raise ScenarioError(f"line {lineno}: unknown section {line}")
            count, slots, blank, records = spec
            if len(ids) != count:
                raise ScenarioError(f"line {lineno}: a {kind} section takes {count} id(s)")
            traffic = kind == "traffic"
            if slots is not None:
                record = blank.copy()
                record[0] = lineno
                slot = 1  # a plain loop: cheaper here than a slice assignment from `map`
                for name in ids:
                    record[slot] = share(name, name)
                    slot += 1
                records.append(record)
            elif not traffic:  # a route section
                pins = {}
                records.append([lineno, share(ids[0], ids[0]), pins])
        elif traffic:
            events.append((lineno, line))
        elif kind is None:
            raise ScenarioError(f"line {lineno}: entry before any section header")
        else:
            key, equals, value = line.partition("=")
            if not equals:
                raise ScenarioError(f"line {lineno}: expected key = value")
            key = key.strip()
            value = value.strip()
            if slots is None:  # a route section takes any key
                if key in pins:
                    raise ScenarioError(f"line {lineno}: {key!r} is already set at line {pins[key][0]}")
                pins[share(key, key)] = (lineno, share(value, value))
                continue
            slot = slots.get(key)
            if slot is None:
                raise ScenarioError(f"line {lineno}: unknown {kind} key {key!r}")
            if record[slot] is not None:
                raise ScenarioError(f"line {lineno}: {key!r} is already set at line {record[slot + 1]}")
            record[slot] = share(value, value)
            record[slot + 1] = lineno
    for kind, (_, required, _) in _SECTIONS.items():
        if required:
            slots = _SLOTS[kind]
            for record in sections[kind]:
                for key in required:
                    if record[slots[key]] is None:
                        raise ScenarioError(f"line {record[0]}: {kind} needs {key} =")
    return sections


def _int(value: str, lineno: int, top: int | None = None) -> int:
    """An integer (0x prefix accepted), in 0..top when `top` is given."""
    try:
        number = int(value, 0)
    except ValueError:
        raise ScenarioError(f"line {lineno}: not a number: {value!r}") from None
    if top is not None and not 0 <= number <= top:
        raise ScenarioError(f"line {lineno}: {value!r} is outside 0..{top}")
    return number


def _float(value: str, lineno: int, top: float | None = math.inf) -> float:
    """A number, a finite one in 0..top unless `top` is None."""
    try:
        number = float(value)
    except ValueError:
        raise ScenarioError(f"line {lineno}: not a number: {value!r}") from None
    if top is not None and not (0 <= number <= top and math.isfinite(number)):
        raise ScenarioError(f"line {lineno}: {value!r} is not a finite number in 0..{top:g}")
    return number


def _choice(value: str, lineno: int, table: dict, what: str):
    if value not in table:
        raise ScenarioError(f"line {lineno}: unknown {what} {value!r}")
    return table[value]


class _at:
    """Report a rejected step at the line of its key: an EUI-64, a sleep
    period or a devid already owned."""

    __slots__ = ("lineno",)

    def __init__(self, lineno: int):
        self.lineno = lineno

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValueError) and not isinstance(exc, ScenarioError):
            raise ScenarioError(f"line {self.lineno}: {exc}") from None
        return False


def _addr(value: str, lineno: int) -> IPv6Address:
    try:
        return IPv6Address(value)
    except AddressValueError:
        raise ScenarioError(f"line {lineno}: not an IPv6 address: {value!r}") from None


def _eui(value: str, lineno: int) -> bytes:
    with _at(lineno):
        return eui64_from_text(value)


def _sleep(value: str, lineno: int) -> SleepSchedule:
    awake, slash, asleep = value.partition("/")
    if not slash:
        raise ScenarioError(f"line {lineno}: sleep needs awake/asleep")
    with _at(lineno):
        return SleepSchedule(_float(awake, lineno), _float(asleep, lineno))


def _payload(fields: dict[str, str], lineno: int, patterns: dict[int, bytes]) -> bytes:
    """The line's payload; `size=` payloads come from `patterns`, one object per size."""
    if ("size" in fields) == ("hex" in fields):
        raise ScenarioError(f"line {lineno}: traffic needs one of size= or hex=")
    if "size" in fields:
        size = _int(fields["size"], lineno, MAX_PAYLOAD)
        payload = patterns.get(size)
        if payload is None:
            payload = patterns[size] = pattern_payload(size)
        return payload
    try:
        return bytes.fromhex(fields["hex"])
    except ValueError:
        raise ScenarioError(f"line {lineno}: bad hex payload") from None


def load_scenario(
    text: str,
    *,
    seed_override: int | None = None,
    t_end_override: float | None = None,
    mode_override: str | None = None,
) -> tuple[World, float]:
    """Build a ready-to-run world from scenario text.

    Returns the world and the end time; traffic is already scheduled.  The
    cyclic collector is paused for the load and then left as the caller had
    it: what the load keeps is the world, which outlives it, so collecting
    during the load would walk a growing heap and free nothing.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _build(_parse_sections(text), seed_override, t_end_override, mode_override)
    finally:
        if collecting:
            gc.enable()


def _build(
    sections: dict[str, list],
    seed_override: int | None,
    t_end_override: float | None,
    mode_override: str | None,
) -> tuple[World, float]:
    """The world of `sections`, built kind by kind in the module docstring's
    order.  Each loop unpacks its kind's records in the layout of
    `_parse_sections`, and the records are released once their kind is built."""
    general = sections.pop("general")
    if len(general) > 1:
        raise ScenarioError(f"line {general[1][0]}: a second general section")
    _, seed, seed_at, t_end, t_end_at, pan, pan_at, hops, hops_at = general[0] if general else _BLANK["general"]

    seed = 0 if seed is None else _int(seed, seed_at)
    if seed_override is not None:
        seed = seed_override
    t_end = DEFAULT_T_END if t_end is None else _float(t_end, t_end_at)
    if t_end_override is not None:
        if not (0 <= t_end_override and math.isfinite(t_end_override)):  # the rule `_float` applies
            raise ScenarioError(f"t_end override {t_end_override!r} is not a finite number >= 0")
        t_end = t_end_override
    pan = 0xBEEF if pan is None else _int(pan, pan_at, U16)
    hops = 8 if hops is None else _int(hops, hops_at, MAX_HOPS)

    if mode_override is not None and mode_override not in _MODES:
        raise ScenarioError(f"unknown gateway mode override: {mode_override!r}")

    world = World(seed=seed, pan_id=pan, default_hops=hops)

    # hosts first: gateways may subscribe to them; their devids register last
    host_devids = []
    for at, host_id, addr, addr_at, devid, devid_at in sections.pop("host"):
        addr = _addr(addr, addr_at)
        try:
            world.add_host(host_id, addr)
        except ValueError as exc:
            raise ScenarioError(f"line {at}: {exc}") from None
        if devid is not None:
            host_devids.append((addr, devid, devid_at))

    for (at, gw_id, mode, mode_at, short, short_at, wired, wired_at, prefix, prefix_at, gw_pan, pan_at,
         subscribers, subscribers_at, peer, peer_at) in sections.pop("gateway"):
        gw_pan = pan if gw_pan is None else _int(gw_pan, pan_at, U16)
        mode = _choice(mode, mode_at, _MODES, "gateway mode")
        members = []  # the subscribers' addresses
        if subscribers is not None:
            for host_id in subscribers.split(","):
                host = world.hosts.get(host_id.strip())
                if host is None:
                    raise ScenarioError(f"line {subscribers_at}: unknown host {host_id.strip()!r}")
                if host.addr in members:
                    raise ScenarioError(f"line {subscribers_at}: host {host.id!r} is already a subscriber")
                members.append(host.addr)
        short = _int(short, short_at, U16)
        wired = _addr(wired, wired_at)
        prefix = None if prefix is None else _addr(prefix, prefix_at)
        peer = None if peer is None else _addr(peer, peer_at)
        try:
            world.add_gateway(
                gw_id, short, _MODES[mode_override] if mode_override is not None else mode, wired,
                prefix=prefix, pan_id=gw_pan, subscribers=tuple(members), tunnel_peer=peer,
            )
        except ValueError as exc:
            raise ScenarioError(f"line {at}: {exc}") from None

    for (at, node_id, short, short_at, role, role_at, eui, eui_at, sleep, sleep_at, security, security_at,
         devid, devid_at, node_pan, pan_at) in sections.pop("node"):
        role = NodeRole.FFD if role is None else _choice(role, role_at, _ROLES, "role")
        node_pan = pan if node_pan is None else _int(node_pan, pan_at, U16)
        sleep = None if sleep is None else _sleep(sleep, sleep_at)
        security = SecurityMode.NONE if security is None else _choice(
            security, security_at, _SECURITY, "security suite")
        short = _int(short, short_at, U16)
        eui = None if eui is None else _eui(eui, eui_at)
        try:  # an id, short or interface identifier taken, or a second coordinator in the PAN
            node = world.add_node(node_id, role, short, eui=eui, pan_id=node_pan, sleep=sleep, security=security)
        except ValueError as exc:
            raise ScenarioError(f"line {at}: {exc}") from None
        if devid is not None:  # registered at the node's segment gateway; hosts register below
            gw_node = world.segment_gateway(node_pan)
            if gw_node is None:
                raise ScenarioError(f"line {devid_at}: node {node_id!r} has a devid but its PAN has no gateway")
            with _at(devid_at):
                register_devid(gw_node.gateway.registry, _int(devid, devid_at, U16), node.wpan_address)

    for at, a, b, band, band_at, loss, loss_at in sections.pop("link"):
        band = _B2450 if band is None else _choice(band, band_at, _BANDS, "band")
        loss = 0.0 if loss is None else _float(loss, loss_at, 1.0)
        try:  # an unknown node, a node to itself, two PANs, or a pair linked twice
            world.add_link(a, b, band, loss)
        except ValueError as exc:
            raise ScenarioError(f"line {at}: {exc}") from None

    pinned_at: dict[tuple[str, int | str], int] = {}  # (node id, final short or "default") -> its pin's line
    for at, node_id, pins in sections.pop("route"):
        node = world.nodes.get(node_id)
        if node is None:
            raise ScenarioError(f"line {at}: route section needs a node id")
        for key, (lineno, value) in pins.items():
            final = key if key == "default" else _int(key, lineno, U16)
            first = pinned_at.setdefault((node_id, final), lineno)
            if first != lineno:
                route = "a default route" if key == "default" else f"a route to 0x{final:04X}"
                raise ScenarioError(f"line {lineno}: node {node_id!r} already has {route}, pinned at line {first}")
            if key == "default":
                node.default_route = _int(value, lineno, U16)
            else:
                node.routes[final] = _int(value, lineno, U16)

    # host devids register at every devid gateway
    devid_gateways = [node.gateway for node in world.nodes.values()
                      if node.gateway is not None and node.gateway.mode is GatewayMode.DEVID]
    for addr, devid, lineno in host_devids:
        devid = _int(devid, lineno, U16)
        for gw in devid_gateways:
            with _at(lineno):
                register_devid(gw.registry, devid, addr)

    patterns: dict[int, bytes] = {}  # this load's only: a size= may be up to MAX_PAYLOAD octets
    for lineno, line in sections.pop("traffic"):
        _schedule_traffic(world, line, lineno, patterns)

    return world, t_end


def _schedule_traffic(world: World, line: str, lineno: int, patterns: dict[int, bytes]):
    """Turn one traffic line into its `World` send call.  The call decides
    whether the send is legal; a `ValueError` it raises is reported here, at
    the line."""
    tokens = line.split()
    fields = {}
    for token in tokens:
        key, equals, value = token.partition("=")
        if not equals:
            raise ScenarioError(f"line {lineno}: traffic tokens must be key=value")
        fields[key] = value
    if len(fields) < len(tokens):
        raise ScenarioError(f"line {lineno}: a traffic token is given twice")
    kind = fields.get("kind")
    if kind not in _TRAFFIC:
        raise ScenarioError(f"line {lineno}: unknown traffic kind {kind!r}")
    for key in _NEEDS[kind]:
        if key not in fields:
            raise ScenarioError(f"line {lineno}: {kind} traffic needs {key}=")
    if not fields.keys() <= _TOKENS[kind]:
        unknown = fields.keys() - _TOKENS[kind]
        raise ScenarioError(f"line {lineno}: unknown {kind} traffic token {min(unknown)}=")
    at = _float(fields["at"], lineno, None)
    src = fields["from"]
    payload = _payload(fields, lineno, patterns)
    hops = _int(fields["hops"], lineno) if "hops" in fields else None
    try:
        if kind == "udp":
            sport = _int(fields.get("sport", "0xF0B0"), lineno)
            dport = _int(fields.get("dport", "0xF0B1"), lineno)
            world.send_udp(at, src, fields["to"], sport, dport, payload, hops=hops)
        elif kind == "broadcast":
            world.broadcast(at, src, payload, hops=hops)
        elif kind == "app":
            src_devid = _int(fields.get("devid", "0"), lineno)
            world.send_app(at, src, src_devid, _int(fields["todevid"], lineno), payload)
        elif kind == "apl":
            world.send_apl(at, src, world.apl_destination(src, fields["to"]), payload)
        else:
            world.send_nwk(at, src, _int(fields["dst"], lineno), payload)
    except ScenarioError:
        raise  # a token that is not a number, already reported at the line
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from None
