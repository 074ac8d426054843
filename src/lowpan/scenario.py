"""Line-oriented scenario files for the simulator.

A scenario is a sequence of sections.  Every non-blank, non-comment
line is either a `[section ...]` header or a `key = value` pair
(`key=value` tokens on one line inside `[traffic]`).  Keys before a `;`
are required, and bracketed traffic tokens are optional:

    [general]            seed, t_end, pan, hops
    [node ID]            short; role, eui, sleep, security, devid, pan
    [gateway ID]         mode, short, wired; prefix, pan, subscribers, peer
    [host ID]            addr; devid
    [link A B]           band, loss
    [route ID]           <final-short> = <next-hop-short>, default = <short>
    [traffic]            one traffic event per line; only udp may start at a host

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
joins two different nodes of one PAN.  Unknown sections, keys and
tokens, a wrong number of ids, a key given twice in a section, a link
that breaks that rule and out-of-range values are a `ScenarioError`
naming their line.
Routes not pinned by a [route] section are hop-count shortest paths,
computed on first use.
"""

from __future__ import annotations

import math
from ipaddress import AddressValueError, IPv6Address

from .frame import PhyBand, SecurityMode
from .gateway import GatewayMode, register_devid
from .netsim import NodeRole, SleepSchedule, World

DEFAULT_T_END = 60.0
U16 = 0xFFFF  # pan, short, port, devid and nwk dst values
MAX_HOPS = 0x0F  # the 4-bit hops-left field of the mesh header
MAX_PAYLOAD = U16 - 8  # the 16-bit UDP length field counts its 8-octet header


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
_KEYS = {kind: {*required, *optional} for kind, (_, required, optional) in _SECTIONS.items() if optional}
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
_BANDS = {band.name[1:]: band for band in PhyBand}  # "868", "915", "2450"
_SECURITY = {suite.name.lower().replace("_", "-"): suite for suite in SecurityMode}  # "aes-ccm-32", ...


_PATTERN = bytes((i * 37 + 11) & 0xFF for i in range(256))  # pattern payloads repeat every 256 octets


def pattern_payload(size: int) -> bytes:
    """Deterministic filler bytes for size= traffic specs."""
    return (_PATTERN * (size // 256 + 1))[:size]


class _Section:
    __slots__ = ("lineno", "kind", "ids", "keys", "events")

    def __init__(self, lineno: int, kind: str, ids: list[str]):
        self.lineno = lineno
        self.kind = kind
        self.ids = ids
        self.keys: dict[str, tuple[int, str]] = {}  # key -> (line, value)
        self.events: list[tuple[int, str]] = []  # a traffic section's lines


def _parse_sections(text: str) -> dict[str, list[_Section]]:
    """The sections of each kind in file order, checked against `_SECTIONS`."""
    sections: dict[str, list[_Section]] = {kind: [] for kind in _SECTIONS}
    # the open section's kind, key dict and allowed keys (None: any key), and
    # its event list if it is a traffic section
    kind = keys = allowed = events = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        line = raw.strip()
        if not line:
            continue
        if line[0] == "[":
            if line[-1] != "]":
                raise ScenarioError(f"line {lineno}: unterminated section header")
            kind, *ids = line[1:-1].split() or [""]
            if kind not in _SECTIONS:
                raise ScenarioError(f"line {lineno}: unknown section {line}")
            if len(ids) != _SECTIONS[kind][0]:
                raise ScenarioError(f"line {lineno}: a {kind} section takes {_SECTIONS[kind][0]} id(s)")
            section = _Section(lineno, kind, ids)
            sections[kind].append(section)
            keys, allowed = section.keys, _KEYS.get(kind)
            events = section.events if kind == "traffic" else None
        elif events is not None:
            events.append((lineno, line))
        elif keys is None:
            raise ScenarioError(f"line {lineno}: entry before any section header")
        else:
            key, equals, value = line.partition("=")
            if not equals:
                raise ScenarioError(f"line {lineno}: expected key = value")
            key = key.strip()
            if allowed is not None and key not in allowed:
                raise ScenarioError(f"line {lineno}: unknown {kind} key {key!r}")
            if key in keys:
                raise ScenarioError(f"line {lineno}: {key!r} is already set at line {keys[key][0]}")
            keys[key] = (lineno, value.strip())
    for kind, (_, required, _) in _SECTIONS.items():
        for section in sections[kind]:
            for key in required:
                if key not in section.keys:
                    raise ScenarioError(f"line {section.lineno}: {kind} needs {key} =")
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


def _float(value: str, lineno: int, top: float = math.inf) -> float:
    """A finite number in 0..top."""
    try:
        number = float(value)
    except ValueError:
        raise ScenarioError(f"line {lineno}: not a number: {value!r}") from None
    if not (0 <= number <= top and math.isfinite(number)):
        raise ScenarioError(f"line {lineno}: {value!r} is not a finite number in 0..{top:g}")
    return number


def _get(kv: dict[str, tuple[int, str]], key: str, parse, default=None, *bounds):
    """`parse(value, line, *bounds)` for `key`; `default` if the key is absent."""
    if key not in kv:
        return default
    lineno, value = kv[key]
    return parse(value, lineno, *bounds)


def _choice(value: str, lineno: int, table: dict, what: str):
    if value not in table:
        raise ScenarioError(f"line {lineno}: unknown {what} {value!r}")
    return table[value]


class _at:
    """Report a rejected world-building step (duplicate id, short, devid, link, sleep period) at its line."""

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
    raw = value.replace(":", "").replace("-", "")
    try:
        eui = bytes.fromhex(raw)
    except ValueError:
        raise ScenarioError(f"line {lineno}: not an EUI-64: {value!r}") from None
    if len(eui) != 8:
        raise ScenarioError(f"line {lineno}: EUI-64 must be 8 octets: {value!r}")
    return eui


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
        payload = bytes.fromhex(fields["hex"])
    except ValueError:
        raise ScenarioError(f"line {lineno}: bad hex payload") from None
    if len(payload) > MAX_PAYLOAD:
        raise ScenarioError(f"line {lineno}: hex payload of {len(payload)} octets is over {MAX_PAYLOAD}")
    return payload


def load_scenario(
    text: str,
    *,
    seed_override: int | None = None,
    t_end_override: float | None = None,
    mode_override: str | None = None,
) -> tuple[World, float]:
    """Build a ready-to-run world from scenario text.

    Returns the world and the end time; traffic is already scheduled.
    """
    sections = _parse_sections(text)
    if len(sections["general"]) > 1:
        raise ScenarioError(f"line {sections['general'][1].lineno}: a second general section")
    general = sections["general"][0].keys if sections["general"] else {}

    seed = _get(general, "seed", _int, 0)
    if seed_override is not None:
        seed = seed_override
    t_end = _get(general, "t_end", _float, DEFAULT_T_END)
    if t_end_override is not None:
        if not (0 <= t_end_override and math.isfinite(t_end_override)):  # the rule `_float` applies
            raise ScenarioError(f"t_end override {t_end_override!r} is not a finite number >= 0")
        t_end = t_end_override
    pan = _get(general, "pan", _int, 0xBEEF, U16)
    hops = _get(general, "hops", _int, 8, MAX_HOPS)

    if mode_override is not None and mode_override not in _MODES:
        raise ScenarioError(f"unknown gateway mode override: {mode_override!r}")

    world = World(seed=seed, pan_id=pan, default_hops=hops)

    # hosts first: gateways may subscribe to them
    for section in sections["host"]:
        with _at(section.lineno):
            world.add_host(section.ids[0], _get(section.keys, "addr", _addr))

    for section in sections["gateway"]:
        kv = section.keys
        gw_pan = _get(kv, "pan", _int, pan, U16)
        if world.segment_gateway(gw_pan) is not None:
            raise ScenarioError(f"line {section.lineno}: PAN 0x{gw_pan:04X} already has a gateway")
        mode = _get(kv, "mode", _choice, None, _MODES, "gateway mode")
        subscribers = []
        if "subscribers" in kv:
            lineno, value = kv["subscribers"]
            for host_id in value.split(","):
                host = world.hosts.get(host_id.strip())
                if host is None:
                    raise ScenarioError(f"line {lineno}: unknown host {host_id.strip()!r}")
                subscribers.append(host.addr)
        with _at(section.lineno):
            world.add_gateway(
                section.ids[0], _get(kv, "short", _int, None, U16),
                _MODES[mode_override] if mode_override is not None else mode,
                _get(kv, "wired", _addr), prefix=_get(kv, "prefix", _addr), pan_id=gw_pan,
                subscribers=tuple(subscribers), tunnel_peer=_get(kv, "peer", _addr),
            )

    coordinators: dict[int, str] = {}
    for section in sections["node"]:
        kv, node_id = section.keys, section.ids[0]
        role = _get(kv, "role", _choice, NodeRole.FFD, _ROLES, "role")
        node_pan = _get(kv, "pan", _int, pan, U16)
        if role is NodeRole.COORDINATOR:
            held = coordinators.setdefault(node_pan, node_id)
            if held != node_id:
                raise ScenarioError(f"line {section.lineno}: PAN 0x{node_pan:04X} has coordinator {held!r}")
        sleep = _get(kv, "sleep", _sleep)
        security = _get(kv, "security", _choice, SecurityMode.NONE, _SECURITY, "security suite")
        with _at(section.lineno):
            node = world.add_node(
                node_id, role, _get(kv, "short", _int, None, U16), eui=_get(kv, "eui", _eui),
                pan_id=node_pan, sleep=sleep, security=security,
            )
        if "devid" in kv:  # registered at the node's segment gateway; hosts register below
            lineno = kv["devid"][0]
            entry = world.segment_gateway(node_pan)
            if entry is None:
                raise ScenarioError(f"line {lineno}: node {node_id!r} has a devid but its PAN has no gateway")
            with _at(lineno):
                register_devid(entry[1].registry, _get(kv, "devid", _int, None, U16), node.wpan_address)

    for section in sections["link"]:
        band = _get(section.keys, "band", _choice, PhyBand.B2450, _BANDS, "band")
        loss = _get(section.keys, "loss", _float, 0.0, 1.0)
        with _at(section.lineno):  # an unknown node, a node to itself, or two PANs
            world.add_link(*section.ids, band, loss)

    for section in sections["route"]:
        node = world.nodes.get(section.ids[0])
        if node is None:
            raise ScenarioError(f"line {section.lineno}: route section needs a node id")
        for key, (lineno, value) in section.keys.items():
            if key == "default":
                node.default_route = _int(value, lineno, U16)
            else:
                node.routes[_int(key, lineno, U16)] = _int(value, lineno, U16)

    # host devids register at every devid gateway
    devid_gateways = [gw for _, gw in sorted(world.gateways.items()) if gw.mode is GatewayMode.DEVID]
    for section in sections["host"]:
        if "devid" in section.keys:
            devid = _get(section.keys, "devid", _int, None, U16)
            for gw in devid_gateways:
                with _at(section.keys["devid"][0]):
                    register_devid(gw.registry, devid, world.hosts[section.ids[0]].addr)

    patterns: dict[int, bytes] = {}  # this load's only: a size= may be up to MAX_PAYLOAD octets
    for section in sections["traffic"]:
        for lineno, line in section.events:
            _schedule_traffic(world, line, lineno, patterns)

    return world, t_end


def _schedule_traffic(world: World, line: str, lineno: int, patterns: dict[int, bytes]):
    """Queue one traffic line's send.  Queued events name nodes and hosts by
    the world's own id strings, not by the line's token copies."""
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
    at = _float(fields["at"], lineno)
    sender = world.nodes.get(fields["from"]) or world.hosts.get(fields["from"])
    if sender is None:
        raise ScenarioError(f"line {lineno}: unknown sender {fields['from']!r}")
    src = sender.id
    if src in world.hosts and kind != "udp":
        raise ScenarioError(f"line {lineno}: {kind} traffic must start at a node, not host {src!r}")
    payload = _payload(fields, lineno, patterns)
    hops = _int(fields["hops"], lineno, MAX_HOPS) if "hops" in fields else None

    if kind == "udp":
        receiver = world.nodes.get(fields["to"]) or world.hosts.get(fields["to"])
        if receiver is None:
            raise ScenarioError(f"line {lineno}: unknown udp destination {fields['to']!r}")
        dst = receiver.id
        sport = _int(fields.get("sport", "0xF0B0"), lineno, U16)
        dport = _int(fields.get("dport", "0xF0B1"), lineno, U16)
        world.send_udp(at, src, dst, sport, dport, payload, hops=hops)
    elif kind == "broadcast":
        world.broadcast(at, src, payload, hops=hops)
    elif kind == "app":
        src_devid = _int(fields.get("devid", "0"), lineno, U16)
        world.send_app(at, src, src_devid, _int(fields["todevid"], lineno, U16), payload)
    elif kind == "apl":
        world.send_apl(at, src, _resolve_apl_destination(world, src, fields["to"], lineno), payload)
    else:
        world.send_nwk(at, src, _int(fields["dst"], lineno, U16), payload)


def _resolve_apl_destination(world: World, src: str, dst: str, lineno: int) -> int:
    """Short address the sender should put in the NWK frame.

    Wired hosts and remote-segment nodes are represented by shorts from
    the local gateway's pool; the mapping is established here, before
    the run.  A remote node is named by its pseudo address, computed from
    the remote prefix and its EUI-64 alone; `World.prepare` indexes the
    remote PAN's nodes by EUI-64.
    """
    node = world.nodes[src]
    entry = world.segment_gateway(node.pan_id)
    if entry is None:
        raise ScenarioError(f"line {lineno}: segment of {src!r} has no gateway")
    gateway = entry[1]
    if dst in world.hosts:
        peer = world.hosts[dst].addr
    elif dst in world.nodes:
        target = world.nodes[dst]
        if target.pan_id == node.pan_id:
            return target.short
        remote = world.segment_gateway(target.pan_id)
        if remote is None:
            raise ScenarioError(f"line {lineno}: segment of {dst!r} has no gateway")
        with _at(lineno):  # the remote gateway may have no prefix
            peer = remote[1].mapping.assign_pseudo(target.eui)
    else:
        raise ScenarioError(f"line {lineno}: unknown apl destination {dst!r}")
    with _at(lineno):  # the pool may be exhausted
        return gateway.mapping.assign_short(peer)
