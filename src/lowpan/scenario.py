"""Line-oriented scenario files for the simulator.

A scenario is a sequence of sections.  Every non-blank, non-comment
line is either a `[section ...]` header or a `key = value` pair
(`key=value` tokens on one line inside `[traffic]`):

    [general]            seed, t_end, pan, hops
    [node ID]            role, short, eui, sleep, security, devid, pan
    [gateway ID]         mode, short, wired, prefix, pan, subscribers, peer, ttl
    [host ID]            addr, devid
    [link A B]           band, loss
    [route ID]           <final-short> = <next-hop-short>, default = <short>
    [traffic]            one traffic event per line

Traffic kinds:

    at=T kind=udp from=ID to=ID sport=P dport=P size=N|hex=HH [hops=N]
    at=T kind=broadcast from=ID size=N|hex=HH [hops=N]
    at=T kind=app from=ID devid=N todevid=N size=N|hex=HH
    at=T kind=apl from=ID to=ID size=N|hex=HH
    at=T kind=nwk from=ID dst=SHORT size=N|hex=HH

Numbers accept 0x prefixes.  `size=N` generates a deterministic payload
pattern; `hex=` gives the payload verbatim.  Routes not pinned by a
[route] section are filled in as hop-count shortest paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from ipaddress import AddressValueError, IPv6Address

from .frame import PhyBand, SecurityMode
from .gateway import DEFAULT_DISCOVERY_TTL, GatewayMode, register_devid
from .netsim import NodeRole, SleepSchedule, World

DEFAULT_T_END = 60.0
U16 = 0xFFFF  # pan, short, port, devid and nwk dst values
MAX_HOPS = 0x0F  # the 4-bit hops-left field of the mesh header


class ScenarioError(ValueError):
    pass


_ROLES = {role.value: role for role in NodeRole}
_MODES = {mode.value: mode for mode in GatewayMode}
_BANDS = {"868": PhyBand.B868, "915": PhyBand.B915, "2450": PhyBand.B2450}
_SECURITY = {
    "none": SecurityMode.NONE,
    "aes-ccm-32": SecurityMode.AES_CCM_32,
    "aes-ccm-64": SecurityMode.AES_CCM_64,
    "aes-ccm-128": SecurityMode.AES_CCM_128,
}


def pattern_payload(size: int) -> bytes:
    """Deterministic filler bytes for size= traffic specs."""
    return bytes((i * 37 + 11) & 0xFF for i in range(size))


@dataclass
class _Section:
    lineno: int
    tokens: list[str]
    entries: list[tuple[int, str, str]] = field(default_factory=list)


def _parse_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"line {lineno}: unterminated section header")
            tokens = line[1:-1].split()
            if not tokens:
                raise ScenarioError(f"line {lineno}: empty section header")
            sections.append(_Section(lineno, tokens))
            continue
        if not sections:
            raise ScenarioError(f"line {lineno}: entry before any section header")
        if sections[-1].tokens[0] == "traffic":
            sections[-1].entries.append((lineno, "", line))
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        sections[-1].entries.append((lineno, key.strip(), value.strip()))
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


def _get(kv: dict[str, tuple[int, str]], key: str, parse, default=None, **bounds):
    """`parse` the value of `key` at its own line; `default` if the key is absent."""
    if key not in kv:
        return default
    lineno, value = kv[key]
    return parse(value, lineno, **bounds)


def _choice(value: str, lineno: int, table: dict, what: str):
    if value not in table:
        raise ScenarioError(f"line {lineno}: unknown {what} {value!r}")
    return table[value]


@contextmanager
def _at(lineno: int):
    """Report a rejected world-building step (duplicate id, short, devid) at its line."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from None


def _float(value: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ScenarioError(f"line {lineno}: not a number: {value!r}") from None


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


def _kv(section: _Section) -> dict[str, tuple[int, str]]:
    return {key: (lineno, value) for lineno, key, value in section.entries}


def _payload(fields: dict[str, str], lineno: int) -> bytes:
    if "hex" in fields:
        try:
            return bytes.fromhex(fields["hex"])
        except ValueError:
            raise ScenarioError(f"line {lineno}: bad hex payload") from None
    if "size" in fields:
        return pattern_payload(_int(fields["size"], lineno))
    raise ScenarioError(f"line {lineno}: traffic needs size= or hex=")


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

    general: dict[str, tuple[int, str]] = {}
    for section in sections:
        if section.tokens[0] == "general":
            general.update(_kv(section))

    seed = _get(general, "seed", _int, 0)
    if seed_override is not None:
        seed = seed_override
    t_end = _get(general, "t_end", _float, DEFAULT_T_END)
    if t_end_override is not None:
        t_end = t_end_override
    pan = _get(general, "pan", _int, 0xBEEF, top=U16)
    hops = _get(general, "hops", _int, 8, top=MAX_HOPS)

    if mode_override is not None and mode_override not in _MODES:
        raise ScenarioError(f"unknown gateway mode override: {mode_override!r}")

    world = World(seed=seed, pan_id=pan, default_hops=hops)

    # pan -> gateway mode, for assigning node stacks
    gw_sections = [s for s in sections if s.tokens[0] == "gateway"]
    pan_mode: dict[int, GatewayMode] = {}
    for section in gw_sections:
        kv = _kv(section)
        if "mode" not in kv:
            raise ScenarioError(f"line {section.lineno}: gateway needs mode =")
        mode_name = mode_override if mode_override is not None else kv["mode"][1]
        gw_pan = _get(kv, "pan", _int, pan, top=U16)
        if gw_pan in pan_mode:
            raise ScenarioError(f"line {section.lineno}: PAN 0x{gw_pan:04X} already has a gateway")
        pan_mode[gw_pan] = _choice(mode_name, kv["mode"][0], _MODES, "gateway mode")

    # hosts first: gateways may subscribe to them
    for section in sections:
        if section.tokens[0] != "host":
            continue
        if len(section.tokens) != 2:
            raise ScenarioError(f"line {section.lineno}: host section needs one id")
        kv = _kv(section)
        if "addr" not in kv:
            raise ScenarioError(f"line {section.lineno}: host needs addr =")
        with _at(section.lineno):
            world.add_host(section.tokens[1], _get(kv, "addr", _addr))

    for section in gw_sections:
        kv = _kv(section)
        if len(section.tokens) != 2:
            raise ScenarioError(f"line {section.lineno}: gateway section needs one id")
        if "short" not in kv or "wired" not in kv:
            raise ScenarioError(f"line {section.lineno}: gateway needs short = and wired =")
        gw_pan = _get(kv, "pan", _int, pan, top=U16)
        subscribers = ()
        if "subscribers" in kv:
            lineno, value = kv["subscribers"]
            hosts = []
            for host_id in value.split(","):
                host_id = host_id.strip()
                if host_id not in world.hosts:
                    raise ScenarioError(f"line {lineno}: unknown host {host_id!r}")
                hosts.append(world.hosts[host_id].addr)
            subscribers = tuple(hosts)
        with _at(section.lineno):
            world.add_gateway(
                section.tokens[1], _get(kv, "short", _int, top=U16), pan_mode[gw_pan],
                _get(kv, "wired", _addr), prefix=_get(kv, "prefix", _addr), pan_id=gw_pan,
                subscribers=subscribers, tunnel_peer=_get(kv, "peer", _addr),
                discovery_ttl=_get(kv, "ttl", _float, DEFAULT_DISCOVERY_TTL),
            )

    coordinators: dict[int, str] = {}
    for section in sections:
        if section.tokens[0] != "node":
            continue
        if len(section.tokens) != 2:
            raise ScenarioError(f"line {section.lineno}: node section needs one id")
        kv = _kv(section)
        if "short" not in kv:
            raise ScenarioError(f"line {section.lineno}: node needs short =")
        role = _get(kv, "role", _choice, NodeRole.FFD, table=_ROLES, what="role")
        node_pan = _get(kv, "pan", _int, pan, top=U16)
        if role is NodeRole.COORDINATOR:
            if node_pan in coordinators:
                raise ScenarioError(
                    f"line {section.lineno}: PAN 0x{node_pan:04X} already has coordinator "
                    f"{coordinators[node_pan]!r}"
                )
            coordinators[node_pan] = section.tokens[1]
        sleep = None
        if "sleep" in kv:
            lineno, value = kv["sleep"]
            if "/" not in value:
                raise ScenarioError(f"line {lineno}: sleep needs awake/asleep")
            awake, asleep = value.split("/", 1)
            sleep = SleepSchedule(_float(awake, lineno), _float(asleep, lineno))
            if not sleep.awake + sleep.asleep > 0:
                raise ScenarioError(f"line {lineno}: sleep period must be positive: {value!r}")
        security = _get(kv, "security", _choice, SecurityMode.NONE, table=_SECURITY, what="security suite")
        with _at(section.lineno):
            node = world.add_node(
                section.tokens[1], role, _get(kv, "short", _int, top=U16), eui=_get(kv, "eui", _eui),
                pan_id=node_pan, sleep=sleep, security=security,
                stack=pan_mode[node_pan].stack if node_pan in pan_mode else "lowpan",
            )
        if "devid" in kv:  # registered at the node's segment gateway; hosts register below
            lineno = kv["devid"][0]
            entry = world.segment_gateway(node_pan)
            if entry is None:
                raise ScenarioError(
                    f"line {lineno}: node {section.tokens[1]!r} declares a devid but its PAN has no gateway"
                )
            with _at(lineno):
                register_devid(entry[1].registry, _get(kv, "devid", _int, top=U16), node.wpan_address)

    for section in sections:
        if section.tokens[0] != "link":
            continue
        if len(section.tokens) != 3:
            raise ScenarioError(f"line {section.lineno}: link section needs two node ids")
        kv = _kv(section)
        band = _get(kv, "band", _choice, PhyBand.B2450, table=_BANDS, what="band")
        loss = _get(kv, "loss", _float, 0.0)
        a, b = section.tokens[1], section.tokens[2]
        if a not in world.nodes or b not in world.nodes:
            raise ScenarioError(f"line {section.lineno}: link endpoints must be nodes")
        world.add_link(a, b, band, loss)

    for section in sections:
        if section.tokens[0] != "route":
            continue
        if len(section.tokens) != 2 or section.tokens[1] not in world.nodes:
            raise ScenarioError(f"line {section.lineno}: route section needs a node id")
        node = world.nodes[section.tokens[1]]
        for lineno, key, value in section.entries:
            if key == "default":
                node.default_route = _int(value, lineno)
            else:
                node.routes[_int(key, lineno)] = _int(value, lineno)

    # host devids register at every devid gateway
    for section in sections:
        if section.tokens[0] != "host":
            continue
        kv = _kv(section)
        if "devid" in kv:
            host = world.hosts[section.tokens[1]]
            devid = _get(kv, "devid", _int, top=U16)
            for gw_id in sorted(world.gateways):
                gw = world.gateways[gw_id]
                if gw.mode is GatewayMode.DEVID:
                    with _at(kv["devid"][0]):
                        register_devid(gw.registry, devid, host.addr)

    for section in sections:
        if section.tokens[0] == "traffic":
            for lineno, _, line in section.entries:
                _schedule_traffic(world, line, lineno)

    return world, t_end


def _schedule_traffic(world: World, line: str, lineno: int):
    fields: dict[str, str] = {}
    for token in line.split():
        if "=" not in token:
            raise ScenarioError(f"line {lineno}: traffic tokens must be key=value")
        key, value = token.split("=", 1)
        fields[key] = value
    for required in ("at", "kind", "from"):
        if required not in fields:
            raise ScenarioError(f"line {lineno}: traffic needs {required}=")
    at = _float(fields["at"], lineno)
    kind = fields["kind"]
    src = fields["from"]
    if src not in world.nodes and src not in world.hosts:
        raise ScenarioError(f"line {lineno}: unknown sender {src!r}")
    payload = _payload(fields, lineno)
    hops = _int(fields["hops"], lineno, MAX_HOPS) if "hops" in fields else None

    if kind == "udp":
        dst = fields.get("to")
        if dst is None or (dst not in world.nodes and dst not in world.hosts):
            raise ScenarioError(f"line {lineno}: udp traffic needs a known to=")
        sport = _int(fields.get("sport", "0xF0B0"), lineno, U16)
        dport = _int(fields.get("dport", "0xF0B1"), lineno, U16)
        world.send_udp(at, src, dst, sport, dport, payload, hops=hops)
    elif kind == "broadcast":
        world.broadcast(at, src, payload, hops=hops)
    elif kind == "app":
        if "todevid" not in fields:
            raise ScenarioError(f"line {lineno}: app traffic needs todevid=")
        src_devid = _int(fields.get("devid", "0"), lineno, U16)
        world.send_app(at, src, src_devid, _int(fields["todevid"], lineno, U16), payload)
    elif kind == "apl":
        dst = fields.get("to")
        dst_short = _resolve_apl_destination(world, src, dst, lineno)
        world.send_apl(at, src, dst_short, payload)
    elif kind == "nwk":
        if "dst" not in fields:
            raise ScenarioError(f"line {lineno}: nwk traffic needs dst=")
        world.send_nwk(at, src, _int(fields["dst"], lineno, U16), payload)
    else:
        raise ScenarioError(f"line {lineno}: unknown traffic kind {kind!r}")


def _resolve_apl_destination(world: World, src: str, dst: str | None, lineno: int) -> int:
    """Short address the sender should put in the NWK frame.

    Wired hosts and remote-segment nodes are represented by shorts from
    the local gateway's pool; the mapping is established here, before
    the run, exactly as a completed discovery exchange would leave it.
    """
    if dst is None:
        raise ScenarioError(f"line {lineno}: apl traffic needs to=")
    node = world.nodes.get(src)
    if node is None:
        raise ScenarioError(f"line {lineno}: apl traffic must originate at a node")
    entry = world.segment_gateway(node.pan_id)
    if entry is None:
        raise ScenarioError(f"line {lineno}: segment of {src!r} has no gateway")
    gateway = entry[1]
    if dst in world.hosts:
        return gateway.mapping.assign_short(world.hosts[dst].addr)
    if dst in world.nodes:
        target = world.nodes[dst]
        if target.pan_id == node.pan_id:
            return target.short
        remote = world.segment_gateway(target.pan_id)
        if remote is None:
            raise ScenarioError(f"line {lineno}: segment of {dst!r} has no gateway")
        pseudo = remote[1].mapping.register_node(target.eui, target.short)
        return gateway.mapping.assign_short(pseudo)
    raise ScenarioError(f"line {lineno}: unknown apl destination {dst!r}")
