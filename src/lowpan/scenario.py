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

from dataclasses import dataclass, field
from ipaddress import AddressValueError, IPv6Address

from .frame import PhyBand, SecurityMode
from .gateway import DEFAULT_DISCOVERY_TTL, GatewayMode, register_devid
from .netsim import NodeRole, SleepSchedule, World

DEFAULT_T_END = 60.0


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


def _int(value: str, lineno: int) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise ScenarioError(f"line {lineno}: not a number: {value!r}") from None


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
    out = {}
    for lineno, key, value in section.entries:
        out[key] = (lineno, value)
    return out


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

    seed = _int(general["seed"][1], general["seed"][0]) if "seed" in general else 0
    if seed_override is not None:
        seed = seed_override
    t_end = _float(general["t_end"][1], general["t_end"][0]) if "t_end" in general else DEFAULT_T_END
    if t_end_override is not None:
        t_end = t_end_override
    pan = _int(general["pan"][1], general["pan"][0]) if "pan" in general else 0xBEEF
    hops = _int(general["hops"][1], general["hops"][0]) if "hops" in general else 8

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
        lineno, value = kv["mode"]
        mode_name = mode_override if mode_override is not None else value
        if mode_name not in _MODES:
            raise ScenarioError(f"line {lineno}: unknown gateway mode {value!r}")
        gw_pan = _int(kv["pan"][1], kv["pan"][0]) if "pan" in kv else pan
        if gw_pan in pan_mode:
            raise ScenarioError(f"line {section.lineno}: PAN 0x{gw_pan:04X} already has a gateway")
        pan_mode[gw_pan] = _MODES[mode_name]

    # hosts first: gateways may subscribe to them
    for section in sections:
        if section.tokens[0] != "host":
            continue
        if len(section.tokens) != 2:
            raise ScenarioError(f"line {section.lineno}: host section needs one id")
        kv = _kv(section)
        if "addr" not in kv:
            raise ScenarioError(f"line {section.lineno}: host needs addr =")
        world.add_host(section.tokens[1], _addr(kv["addr"][1], kv["addr"][0]))

    for section in gw_sections:
        kv = _kv(section)
        if len(section.tokens) != 2:
            raise ScenarioError(f"line {section.lineno}: gateway section needs one id")
        if "short" not in kv or "wired" not in kv:
            raise ScenarioError(f"line {section.lineno}: gateway needs short = and wired =")
        gw_pan = _int(kv["pan"][1], kv["pan"][0]) if "pan" in kv else pan
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
        world.add_gateway(
            section.tokens[1],
            _int(kv["short"][1], kv["short"][0]),
            pan_mode[gw_pan],
            _addr(kv["wired"][1], kv["wired"][0]),
            prefix=_addr(kv["prefix"][1], kv["prefix"][0]) if "prefix" in kv else None,
            pan_id=gw_pan,
            subscribers=subscribers,
            tunnel_peer=_addr(kv["peer"][1], kv["peer"][0]) if "peer" in kv else None,
            discovery_ttl=_float(kv["ttl"][1], kv["ttl"][0]) if "ttl" in kv else DEFAULT_DISCOVERY_TTL,
        )

    node_devids: list[tuple[str, int]] = []
    coordinators: dict[int, str] = {}
    for section in sections:
        if section.tokens[0] != "node":
            continue
        if len(section.tokens) != 2:
            raise ScenarioError(f"line {section.lineno}: node section needs one id")
        kv = _kv(section)
        if "short" not in kv:
            raise ScenarioError(f"line {section.lineno}: node needs short =")
        role_name = kv["role"][1] if "role" in kv else "ffd"
        if role_name not in _ROLES:
            raise ScenarioError(f"line {kv['role'][0]}: unknown role {role_name!r}")
        role = _ROLES[role_name]
        node_pan = _int(kv["pan"][1], kv["pan"][0]) if "pan" in kv else pan
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
        security = SecurityMode.NONE
        if "security" in kv:
            lineno, value = kv["security"]
            if value not in _SECURITY:
                raise ScenarioError(f"line {lineno}: unknown security suite {value!r}")
            security = _SECURITY[value]
        world.add_node(
            section.tokens[1],
            role,
            _int(kv["short"][1], kv["short"][0]),
            eui=_eui(kv["eui"][1], kv["eui"][0]) if "eui" in kv else None,
            pan_id=node_pan,
            sleep=sleep,
            security=security,
            stack=pan_mode[node_pan].stack if node_pan in pan_mode else "lowpan",
        )
        if "devid" in kv:
            node_devids.append((section.tokens[1], _int(kv["devid"][1], kv["devid"][0])))

    for section in sections:
        if section.tokens[0] != "link":
            continue
        if len(section.tokens) != 3:
            raise ScenarioError(f"line {section.lineno}: link section needs two node ids")
        kv = _kv(section)
        band = PhyBand.B2450
        if "band" in kv:
            lineno, value = kv["band"]
            if value not in _BANDS:
                raise ScenarioError(f"line {lineno}: unknown band {value!r}")
            band = _BANDS[value]
        loss = _float(kv["loss"][1], kv["loss"][0]) if "loss" in kv else 0.0
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

    # devid registrations: nodes at their segment gateway, hosts everywhere
    for node_id, devid in node_devids:
        node = world.nodes[node_id]
        entry = world.segment_gateway(node.pan_id)
        if entry is None:
            raise ScenarioError(f"node {node_id!r} declares a devid but its PAN has no gateway")
        register_devid(entry[1].registry, devid, node.wpan_address)
    for section in sections:
        if section.tokens[0] != "host":
            continue
        kv = _kv(section)
        if "devid" in kv:
            host = world.hosts[section.tokens[1]]
            devid = _int(kv["devid"][1], kv["devid"][0])
            for gw_id in sorted(world.gateways):
                gw = world.gateways[gw_id]
                if gw.mode is GatewayMode.DEVID:
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
    hops = _int(fields["hops"], lineno) if "hops" in fields else None

    if kind == "udp":
        dst = fields.get("to")
        if dst is None or (dst not in world.nodes and dst not in world.hosts):
            raise ScenarioError(f"line {lineno}: udp traffic needs a known to=")
        sport = _int(fields.get("sport", "0xF0B0"), lineno)
        dport = _int(fields.get("dport", "0xF0B1"), lineno)
        world.send_udp(at, src, dst, sport, dport, payload, hops=hops)
    elif kind == "broadcast":
        world.broadcast(at, src, payload, hops=hops)
    elif kind == "app":
        if "todevid" not in fields:
            raise ScenarioError(f"line {lineno}: app traffic needs todevid=")
        src_devid = _int(fields.get("devid", "0"), lineno)
        world.send_app(at, src, src_devid, _int(fields["todevid"], lineno), payload)
    elif kind == "apl":
        dst = fields.get("to")
        dst_short = _resolve_apl_destination(world, src, dst, lineno)
        world.send_apl(at, src, dst_short, payload)
    elif kind == "nwk":
        if "dst" not in fields:
            raise ScenarioError(f"line {lineno}: nwk traffic needs dst=")
        world.send_nwk(at, src, _int(fields["dst"], lineno), payload)
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
