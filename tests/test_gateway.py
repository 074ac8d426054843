from ipaddress import IPv6Address

import pytest
from deliveries import watch
from hypothesis import given, settings
from hypothesis import strategies as st
from value_checks import check_rebuild, raises_exactly

from lowpan.codec import MeshHeader, UnknownDispatch, encode_mesh, parse_dispatch
from lowpan.frame import Eui64, FrameType, MacFrame, Short16, SecurityMode, encode_mac_frame, mac_payload_budget
from lowpan.gateway import (
    APL_MAX_OCTETS,
    AplTooLarge,
    AppHeader,
    DuplicateDevid,
    Gateway,
    GatewayError,
    GatewayMode,
    MappingTable,
    NoFragmentation,
    NoPrefix,
    NoSuchNode,
    NotTunnelTraffic,
    NwkFrame,
    PoolExhausted,
    UnknownDevid,
    demux,
    pad_transform,
    register_devid,
    resolve_devid,
    strip_transform,
    wired_to_lowpan,
)
from lowpan.ipv6 import Ipv6Packet, UdpDatagram, decode_udp, encode_udp, udp_packet
from lowpan.netsim import NodeRole, World
from lowpan.reassembly import FragmentationContext
from lowpan.scenario import ScenarioError, load_scenario

PREFIX_A = IPv6Address("2001:db8:a::")
PREFIX_B = IPv6Address("2001:db8:b::")
WIRED_A = IPv6Address("fd00::a")
WIRED_B = IPv6Address("fd00::b")
HOST_ADDR = IPv6Address("fd00::99")


# --- demux ---------------------------------------------------------------

def test_demux_examples(golden_dir):
    assert demux(b"\x09\x00\x00") == "nwk"
    assert demux(b"\x42\xfb\x40") == "lowpan"
    assert demux(b"\x41") == "lowpan"
    assert demux(b"\x7f") == "lowpan"  # recognized, if unsupported
    with pytest.raises(UnknownDispatch):
        demux(b"\x7a\x00")
    with pytest.raises(UnknownDispatch):
        demux(b"")
    # every first octet, by its class in the pinned dispatch table
    for line in (golden_dir / "dispatch_table.txt").read_text().splitlines():
        byte_hex, kind = line.split()
        payload = bytes([int(byte_hex, 16)])
        if kind == "unknown":
            raises_exactly(UnknownDispatch, f"reserved dispatch 0x{payload[0]:02X}", lambda: demux(payload))
        else:
            assert demux(payload) == ("nwk" if kind == "not-lowpan" else "lowpan")


# --- devid registry ---------------------------------------------------------

def test_register_and_resolve():
    registry = {}
    register_devid(registry, 7, Short16(0xBEEF, 0x0010))
    assert resolve_devid(registry, 7) == Short16(0xBEEF, 0x0010)


def test_duplicate_devid():
    registry = {}
    register_devid(registry, 7, Short16(0xBEEF, 0x0010))
    with pytest.raises(DuplicateDevid):
        register_devid(registry, 7, HOST_ADDR)


@pytest.mark.parametrize("endpoint, name", [
    (Eui64(bytes(8)), "Eui64"), ("fd00::99", "str"), (0x0010, "int"), (None, "NoneType"),
])
def test_a_devid_endpoint_the_radio_cannot_reach_is_refused_and_stores_nothing(endpoint, name):
    registry = {7: HOST_ADDR}
    for devid in (7, 8):  # refused before the duplicate check
        raises_exactly(TypeError, f"endpoint must be an IPv6Address or Short16, not {name}",
                       lambda: register_devid(registry, devid, endpoint))
    assert registry == {7: HOST_ADDR}


def test_unknown_devid():
    with pytest.raises(UnknownDevid):
        resolve_devid({}, 9)


def _devid_gateway() -> Gateway:
    gw = Gateway(mode=GatewayMode.DEVID, wired_addr=WIRED_A)
    register_devid(gw.registry, 1, Short16(0xBEEF, 0x0010))
    register_devid(gw.registry, 9, HOST_ADDR)
    return gw


def test_devid_uplink_payload_verbatim():
    gw = _devid_gateway()
    app_frame = AppHeader(1, 9).encode() + b"reading=42"
    pkt = gw.devid_uplink(app_frame)
    assert pkt.src == WIRED_A  # the IP stack terminates at the gateway
    assert pkt.dst == HOST_ADDR
    assert decode_udp(pkt.payload).payload == app_frame


def test_devid_downlink_payload_verbatim():
    gw = _devid_gateway()
    app_frame = AppHeader(9, 1).encode() + b"set=on"
    udp = UdpDatagram(5, 5, 0, app_frame)
    pkt = Ipv6Packet(src=HOST_ADDR, dst=WIRED_A, payload=encode_udp(udp))
    endpoint, payload = gw.devid_downlink(pkt)
    assert endpoint == Short16(0xBEEF, 0x0010)
    assert payload == app_frame


def test_devid_downlink_no_fragmentation():
    gw = _devid_gateway()
    app_frame = AppHeader(9, 1).encode() + bytes(200)
    udp = UdpDatagram(5, 5, 0, app_frame)
    pkt = Ipv6Packet(src=HOST_ADDR, dst=WIRED_A, payload=encode_udp(udp))
    with pytest.raises(NoFragmentation):
        gw.devid_downlink(pkt)
    # boundary: exactly the budget still passes
    exact = AppHeader(9, 1).encode() + bytes(mac_payload_budget(SecurityMode.NONE) - 4)
    pkt = Ipv6Packet(src=HOST_ADDR, dst=WIRED_A, payload=encode_udp(UdpDatagram(5, 5, 0, exact)))
    endpoint, payload = gw.devid_downlink(pkt)
    assert len(payload) == mac_payload_budget(SecurityMode.NONE)


def test_devid_downlink_unknown():
    gw = _devid_gateway()
    udp = UdpDatagram(5, 5, 0, AppHeader(9, 77).encode())
    pkt = Ipv6Packet(src=HOST_ADDR, dst=WIRED_A, payload=encode_udp(udp))
    with pytest.raises(UnknownDevid):
        gw.devid_downlink(pkt)


# --- pseudo addresses and short pool ---------------------------------------

def test_assign_pseudo_is_raw_concatenation():
    table = MappingTable(prefix=IPv6Address("2001:db8::"))
    ext = bytes.fromhex("00124b0001020304")
    pseudo = table.assign_pseudo(ext)
    assert pseudo == IPv6Address("2001:db8::12:4b00:102:304")  # no U/L bit flip
    assert table.assign_pseudo(ext) == pseudo  # idempotent
    assert table.ext_for_pseudo(pseudo) == ext
    raises_exactly(ValueError, "extended address must be 8 octets", lambda: table.assign_pseudo(ext[:7]))


def test_assign_pseudo_needs_a_prefix():
    with pytest.raises(NoPrefix) as raised:
        MappingTable(None).assign_pseudo(bytes.fromhex("00124b0001020304"))
    assert raised.value.reason == "no-prefix"


def test_ext_for_pseudo_unknown():
    table = MappingTable(prefix=PREFIX_A)
    with pytest.raises(NoSuchNode):
        table.ext_for_pseudo(IPv6Address("2001:db8:b::1"))  # wrong prefix


def test_short_pool():
    table = MappingTable(prefix=PREFIX_A)
    peers = [IPv6Address(f"fd00::{i + 1:x}") for i in range(0x40)]
    assert [table.assign_short(peer) for peer in peers] == list(range(0x8000, 0x8040))
    assert table.assign_short(peers[0]) == 0x8000  # idempotent
    with pytest.raises(PoolExhausted, match="short-address pool is empty"):
        table.assign_short(IPv6Address("fd00::1:0"))
    assert table.peer_by_short[0x803F] == peers[-1]


# --- pad / strip ---------------------------------------------------------------

def test_pad_strip_roundtrip_all_sizes():
    for n in range(APL_MAX_OCTETS + 1):
        data = bytes((i * 3 + n) & 0xFF for i in range(n))
        block = pad_transform(data)
        assert len(block) == 1240
        assert strip_transform(block) == data


def test_pad_rejects_95():
    pad_transform(bytes(94))
    with pytest.raises(AplTooLarge):
        pad_transform(bytes(95))


def test_pad_handles_trailing_zero_data():
    # the length prefix disambiguates payloads that end in zeros
    data = b"\x01\x00\x00\x00"
    assert strip_transform(pad_transform(data)) == data


def test_strip_rejects_bad_prefix():
    with pytest.raises(Exception):
        strip_transform(b"")
    with pytest.raises(Exception):
        strip_transform(bytes([50]) + bytes(10))  # shorter than the prefix claims


# --- bridge tunnelling ------------------------------------------------------------

BRIDGE = Gateway(mode=GatewayMode.BRIDGE, wired_addr=WIRED_A, tunnel_peer=WIRED_B)


def test_bridge_roundtrip():
    nwk = NwkFrame(dst_short=0x0020, src_short=0x0010, sequence=3, payload=b"apl-data")
    pkt = BRIDGE.bridge_uplink(nwk)
    assert pkt.src == WIRED_A and pkt.dst == WIRED_B
    assert BRIDGE.bridge_downlink(pkt) == nwk


def test_bridge_rejects_non_tunnel():
    nwk = NwkFrame(dst_short=1, src_short=2)
    pkt = BRIDGE.bridge_uplink(nwk)
    udp = decode_udp(pkt.payload)
    other = UdpDatagram(udp.src_port, 9999, udp.checksum, udp.payload)
    with pytest.raises(NotTunnelTraffic):
        BRIDGE.bridge_downlink(
            Ipv6Packet(src=pkt.src, dst=pkt.dst, payload=encode_udp(other))
        )
    with pytest.raises(NotTunnelTraffic):
        BRIDGE.bridge_downlink(Ipv6Packet(src=WIRED_A, dst=WIRED_B, next_header=58, payload=b""))


def test_nwk_frame_classifies_as_not_lowpan():
    nwk = NwkFrame(dst_short=1, src_short=2)
    assert demux(nwk.encode()) == "nwk"
    with pytest.raises(ValueError):
        NwkFrame(dst_short=1, src_short=2, frame_control=0xC000)


def test_nwk_decode_rejects_lowpan_dispatch_space():
    frame = NwkFrame(dst_short=1, src_short=2).encode()
    with pytest.raises(GatewayError):
        NwkFrame.decode(b"\x41" + frame[1:])  # frame control reads as an IPv6 dispatch


def test_a_nwk_frame_may_start_with_exactly_the_octets_the_dispatch_table_gives_the_nwk_stack():
    # ZigBee NWK frames and 6LoWPAN payloads share the MAC payload's first octet
    frame = NwkFrame(dst_short=1, src_short=2).encode()
    for high in range(256):
        def build():
            return NwkFrame(1, 2, frame_control=high << 8)

        def decode():
            return NwkFrame.decode(bytes([high]) + frame[1:])

        if parse_dispatch(high).stack == "nwk":
            assert build().frame_control == decode().frame_control == high << 8
        else:
            for make in (build, decode):
                raises_exactly(GatewayError, "frame control would collide with 6LoWPAN dispatch space", make)


# --- adaptation pipeline --------------------------------------------------------------

def two_node_world():
    """Two FFDs, one radio hop apart, in a PAN with no gateway."""
    world = World(pan_id=0xBEEF)
    world.add_node("a", NodeRole.FFD, 0x00FE)
    world.add_node("b", NodeRole.FFD, 0x0010)
    world.add_link("a", "b")
    return world


def test_pipeline_inverse():
    world = two_node_world()
    a, b = world.node("a"), world.node("b")
    src = IPv6Address("2001:db8::1")  # not derivable from the MAC address: carried inline
    payload = bytes(range(256)) * 4
    pkt = udp_packet(src, b.link_local, 0xF0B3, 0xF0B4, payload)
    frames = wired_to_lowpan(pkt, a.wpan_address, b.wpan_address, FragmentationContext())
    assert len(frames) > 1
    seen = watch(world)
    world.schedule(0.0, (world._node_send_ipv6, a, pkt))
    world.run()
    assert world.metrics["fragments_tx"] == len(frames)
    assert [p for _, p in seen["b", "ipv6"]] == [pkt]
    assert "drops" not in world.metrics


def test_pipeline_rejects_empty_mesh_frame():
    world = two_node_world()
    a, b = world.node("a"), world.node("b")
    world._transmit(a, b.short, encode_mesh(MeshHeader(a.wpan_address, b.wpan_address, 8)))
    world.run()
    drops = [(r.node, r.detail) for r in world.trace if r.kind == "drop"]
    assert drops == [("b", "reason=empty-payload")]


# --- border gateway end to end ----------------------------------------------------------

def border_world(seed=0):
    """RFD - f1 - f2 - border gateway - wired host (3 mesh hops)."""
    world = World(seed=seed, pan_id=0xAAAA)
    world.add_node("rfd", NodeRole.RFD, 0x0010)
    world.add_node("f1", NodeRole.FFD, 0x0002)
    world.add_node("f2", NodeRole.FFD, 0x0003)
    world.add_gateway("gw", 0x00FE, GatewayMode.BORDER, WIRED_A, prefix=PREFIX_A)
    world.add_host("h1", HOST_ADDR)
    world.add_link("rfd", "f1")
    world.add_link("f1", "f2")
    world.add_link("f2", "gw")
    return world


def test_border_uplink_byte_identical():
    world = border_world()
    seen = watch(world)
    payload = bytes((7 * i + 1) & 0xFF for i in range(40))
    world.send_udp(0.0, "rfd", "h1", 0xF0B3, 0xF0BF, payload)
    world.run()
    delivered = seen["h1", "ipv6"]
    assert len(delivered) == 1
    pkt = delivered[0][1]
    assert decode_udp(pkt.payload).payload == payload
    assert pkt.src == world.node_global("rfd")  # end-to-end addresses survive
    assert any(r.kind == "gw-translate" and "dir=up" in r.detail for r in world.trace)


def test_border_downlink_1280_fragment_roundtrip():
    world = border_world()
    seen = watch(world)
    data = bytes((i * 13 + 7) & 0xFF for i in range(1232))
    world.send_udp(0.0, "h1", "rfd", 0xF0B3, 0xF0B4, data)  # 1280-octet IPv6 packet
    world.run()
    packets = seen["rfd", "ipv6"]
    assert len(packets) == 1
    pkt = packets[0][1]
    assert len(pkt.payload) + 40 == 1280
    assert decode_udp(pkt.payload).payload == data
    assert pkt.src == HOST_ADDR and pkt.dst == world.node_global("rfd")
    frag_starts = [r for r in world.trace if r.kind == "frag-start"]
    assert len(frag_starts) == 1 and frag_starts[0].node == "gw"
    assert any(r.kind == "reasm-complete" and r.node == "rfd" for r in world.trace)


def test_border_downlink_fragment_count_matches_arithmetic():
    world = border_world()
    data = bytes(1232)
    world.send_udp(0.0, "h1", "rfd", 0xF0B3, 0xF0B4, data)
    world.run()
    # stream: dispatch + HC1 + hop limit + 16-octet src inline + 8-octet
    # prefix + 4-octet HC2 header + UDP payload
    stream_len = 3 + 16 + 8 + 4 + 1232
    budget = 102 - 5  # short-address mesh header rides outside the budget
    first = (budget - 4) // 8 * 8
    sub = (budget - 5) // 8 * 8
    expected = 1 + -(-(stream_len - first) // sub)
    frames = [r for r in world.trace if r.kind == "tx" and r.node == "gw"]
    assert len(frames) == expected


def test_border_unknown_destination():
    world = border_world()
    seen = watch(world)
    world.schedule(0.0, (world.wired_send, "h1", udp_packet(HOST_ADDR, IPv6Address("2001:db8:a::dead"), 1, 2, b"x")))
    world.run()
    assert seen["rfd", "ipv6"] == []
    assert any("reason=no-such-node" in r.detail for r in world.trace if r.kind == "drop")


def test_border_downlink_oversize_stream_drops():
    # a wired packet whose compressed stream exceeds the 11-bit size field
    world = border_world()
    seen = watch(world)
    world.send_udp(0.0, "h1", "rfd", 1, 2, bytes(2100))
    world.run()
    assert seen["rfd", "ipv6"] == []
    assert any("datagram-too-large" in r.detail for r in world.trace if r.kind == "drop")


def test_border_broadcast_relay_to_subscribers():
    world = World(seed=0, pan_id=0xAAAA)
    world.add_node("c", NodeRole.COORDINATOR, 0x0001)
    world.add_host("h1", HOST_ADDR)
    world.add_host("h2", IPv6Address("fd00::98"))
    world.add_gateway(
        "gw", 0x00FE, GatewayMode.BORDER, WIRED_A, prefix=PREFIX_A,
        subscribers=(HOST_ADDR, IPv6Address("fd00::98")),
    )
    world.add_link("c", "gw")
    seen = watch(world)
    world.broadcast(0.0, "c", b"alarm")
    world.run()
    for host_id in ("h1", "h2"):
        delivered = seen[host_id, "ipv6"]
        assert len(delivered) == 1
        assert decode_udp(delivered[0][1].payload).payload == b"alarm"


# --- cross-region scenarios ------------------------------------------------------------

def two_region_world(mode: GatewayMode, seed=0) -> World:
    world = World(seed=seed)
    world.add_node("x", NodeRole.FFD, 0x0010, pan_id=0xAAAA)
    world.add_gateway("ga", 0x00FE, mode, WIRED_A, prefix=PREFIX_A, pan_id=0xAAAA,
                      tunnel_peer=WIRED_B)
    world.add_node("y", NodeRole.FFD, 0x0020, pan_id=0xBBBB)
    world.add_gateway("gb", 0x00FD, mode, WIRED_B, prefix=PREFIX_B, pan_id=0xBBBB,
                      tunnel_peer=WIRED_A)
    world.add_link("x", "ga")
    world.add_link("y", "gb")
    return world


def test_cross_region_border_passes():
    world = two_region_world(GatewayMode.BORDER)
    seen = watch(world)
    payload = b"cross-region"
    world.send_udp(0.0, "x", "y", 0xF0B3, 0xF0B4, payload)
    world.run()
    packets = seen["y", "ipv6"]
    assert len(packets) == 1
    assert decode_udp(packets[0][1].payload).payload == payload
    assert packets[0][1].src == world.node_global("x")


def test_cross_region_devid_fails():
    world = two_region_world(GatewayMode.DEVID)
    register_devid(world.gateway("ga").registry, 1, world.node("x").wpan_address)
    register_devid(world.gateway("gb").registry, 2, world.node("y").wpan_address)
    # x only knows its preconfigured gateway; y's devid is not registered there
    seen = watch(world)
    world.send_app(0.0, "x", 1, 2, b"hello")
    world.run()
    assert seen["y", "app"] == []
    drops = [r for r in world.trace if r.kind == "drop" and "unknown-devid" in r.detail]
    assert len(drops) == 1 and drops[0].node == "ga"


def test_cross_region_zigbee_passes():
    world = two_region_world(GatewayMode.ZIGBEE)
    world.prepare()
    ga, gb = world.gateway("ga"), world.gateway("gb")
    pseudo_y = gb.mapping.assign_pseudo(world.node("y").eui)
    dst_short = ga.mapping.assign_short(pseudo_y)
    apl = b"apl-through-wire"
    seen = watch(world)
    world.send_apl(0.0, "x", dst_short, apl)
    world.run()
    frames = seen["y", "nwk"]
    assert len(frames) == 1
    assert frames[0][1].payload == apl
    assert frames[0][1].dst_short == 0x0020


def line_of(text: str, header: str) -> int:
    """The line number of `header` in `text`."""
    return text.count("\n", 0, text.index(header)) + 1


@pytest.mark.parametrize("target", ["y1", "y2"])
def test_zigbee_downlink_reaches_the_one_owner_of_an_eui(target):
    text = f"""
[gateway ga]
mode = zigbee
short = 0x00FE
wired = fd00::a
prefix = 2001:db8:a::
pan = 0x000A
[gateway gb]
mode = zigbee
short = 0x00FE
wired = fd00::b
prefix = 2001:db8:b::
pan = 0x000B
[node x]
short = 0x0010
pan = 0x000A
[node y1]
short = 0x0020
pan = 0x000B
eui = 00:12:4b:00:00:00:00:77
[node y2]
short = 0x0030
pan = 0x000B
eui = 00:12:4b:00:00:00:00:77
[link x ga]
[link y1 gb]
[link y2 gb]
[traffic]
at=0.5 kind=apl from=x to={target} size=8
"""
    # y2 pins y1's EUI-64 in y1's PAN: refused at y2's header, whichever node the apl line names
    with pytest.raises(ScenarioError, match=rf"line {line_of(text, '[node y2]')}: interface identifier "
                       r"02124b0000000077 already names 'y1' in PAN 0x000B"):
        load_scenario(text)
    world, t_end = load_scenario(text.replace("00:00:00:77\n[link", "00:00:00:78\n[link"))
    seen = watch(world)
    world.run_until(t_end)
    y1, y2 = world.node("y1"), world.node("y2")
    # the only zigbee PANs are indexed, and only by their non-gateway nodes
    assert world.zigbee_shorts == {0x000A: {world.node("x").eui: 0x0010}, 0x000B: {y1.eui: 0x0020, y2.eui: 0x0030}}
    other = "y2" if target == "y1" else "y1"
    assert [frame.dst_short for _, frame in seen[target, "nwk"]] == [world.node(target).short]
    assert seen[other, "nwk"] == []


TWO_ZIGBEE_PANS = """
[gateway ga]
mode = zigbee
short = 0x00FE
wired = fd00::a
prefix = 2001:db8:a::
pan = 0x000A
[gateway gb]
mode = zigbee
short = 0x00FE
wired = fd00::b
prefix = 2001:db8:b::
pan = 0x000B
[node x]
short = 0x0010
pan = 0x000A
[node y]
short = 0x0020
pan = 0x000B
[link x ga]
[link y gb]
"""

ZIGBEE_WITHOUT_PREFIX = """
[gateway gz]
mode = zigbee
short = 0x00FE
wired = fd00::a
[node z1]
short = 0x0010
[host h1]
addr = fd00::99
[link z1 gz]
"""

DEVID_TWO_HOSTS = """
[gateway g]
mode = devid
short = 0x00FE
wired = fd00::a
[host h1]
addr = fd00::99
devid = 9
[host h2]
addr = fd00::98
devid = 8
"""


@pytest.mark.parametrize("text, line, drop", [
    # the pseudo address of gb itself: the world indexes no gateway by its EUI-64
    (TWO_ZIGBEE_PANS, "at=0.5 kind=apl from=x to=gb size=8", (0.50212, "gb", "reason=no-such-node")),
    # a NWK destination short that ga's pool never handed out
    (TWO_ZIGBEE_PANS, "at=1.0 kind=nwk from=x dst=0x9000 size=8", (1.00112, "ga", "reason=no-such-node")),
    # h2 addresses h1's devid, which sits on the wired side of g
    (DEVID_TWO_HOSTS, "at=0.5 kind=udp from=h2 to=g hex=00080009aabb", (0.501, "g", "reason=unknown-devid")),
    # z1 has no pseudo address to send from, so nothing reaches the wire and h1
    (ZIGBEE_WITHOUT_PREFIX, "at=0.5 kind=apl from=z1 to=h1 size=8", (0.50112, "gz", "reason=no-prefix")),
], ids=["zigbee-unadmitted-pseudo", "zigbee-unknown-peer-short", "devid-wired-to-wired", "zigbee-without-prefix"])
def test_translator_refusals_are_traced_drops(text, line, drop):
    world, t_end = load_scenario(f"{text}[traffic]\n{line}\n")
    seen = watch(world)
    world.run_until(t_end)
    assert [(round(r.time, 6), r.node, r.detail) for r in world.trace if r.kind == "drop"] == [drop]
    assert not any(seen.values())


def test_a_node_pinning_its_gateways_eui_is_refused():
    # y2 pins gb's EUI-64, so gb's pseudo address would name two nodes
    text = f"""{TWO_ZIGBEE_PANS}[node y2]
short = 0x0100
pan = 0x000B
eui = 00:12:4b:00:00:0b:00:fe
[link y2 gb]
[traffic]
at=0.5 kind=apl from=x to=y2 size=8
"""
    with pytest.raises(ScenarioError, match=rf"line {line_of(text, '[node y2]')}: interface identifier "
                       r"02124b00000b00fe already names 'gb' in PAN 0x000B"):
        load_scenario(text)
    world, t_end = load_scenario(text.replace("eui = 00:12:4b:00:00:0b:00:fe\n", ""))  # y2 keeps its own
    assert world.node("gb").eui != world.node("y2").eui
    seen = watch(world)
    world.run_until(t_end)
    assert [frame.dst_short for _, frame in seen["y2", "nwk"]] == [0x0100]
    assert not any(r.kind == "drop" for r in world.trace)


def test_zigbee_uplink_from_the_gateways_own_short_names_no_node():
    # x hands ga a NWK frame whose source short is ga's own, for a peer ga knows
    world, _ = load_scenario(TWO_ZIGBEE_PANS)
    assert world.gateway("ga").mapping.assign_short(HOST_ADDR) == 0x8000
    frame = NwkFrame(dst_short=0x8000, src_short=0x00FE, payload=b"spoof")
    psdu = MacFrame(FrameType.DATA, 0, src=Short16(0x000A, 0x0010), dst=Short16(0x000A, 0x00FE),
                    payload=frame.encode())
    world.schedule(0.0, (world._rx_event, world.node("ga"), encode_mac_frame(psdu)))
    world.run()
    assert [(r.node, r.detail) for r in world.trace if r.kind == "drop"] == [("ga", "reason=no-such-node")]
    assert world.metrics.get("wired_tx", 0) == 0


def test_cross_region_bridge_nwk_byte_identical():
    world = two_region_world(GatewayMode.BRIDGE)
    seen = watch(world)
    world.send_nwk(0.0, "x", 0x0020, b"continuous-nwk")
    world.run()
    frames = seen["y", "nwk"]
    assert len(frames) == 1
    expected = NwkFrame(dst_short=0x0020, src_short=0x0010, sequence=0,
                        payload=b"continuous-nwk")
    assert frames[0][1] == expected
    assert frames[0][1].encode() == expected.encode()


# --- devid mode through the simulator ----------------------------------------------------

def devid_world(seed=0):
    world = World(seed=seed, pan_id=0xAAAA)
    world.add_node("n1", NodeRole.RFD, 0x0010)
    world.add_gateway("gw", 0x00FE, GatewayMode.DEVID, WIRED_A)
    world.add_host("h1", HOST_ADDR)
    world.add_link("n1", "gw")
    register_devid(world.gateway("gw").registry, 1, world.node("n1").wpan_address)
    register_devid(world.gateway("gw").registry, 9, HOST_ADDR)
    return world


def test_devid_uplink_through_sim():
    world = devid_world()
    seen = watch(world)
    world.send_app(0.0, "n1", 1, 9, b"reading")
    world.run()
    delivered = seen["h1", "ipv6"]
    assert len(delivered) == 1
    pkt = delivered[0][1]
    assert pkt.src == WIRED_A  # not the node's address: IP terminates at the gateway
    assert decode_udp(pkt.payload).payload == AppHeader(1, 9).encode() + b"reading"


def test_devid_downlink_through_sim():
    world = devid_world()
    app_frame = AppHeader(9, 1).encode() + b"command"
    seen = watch(world)
    world.send_udp(0.0, "h1", "gw", 5, 5, app_frame)
    world.run()
    received = seen["n1", "app"]
    assert len(received) == 1
    assert received[0][1] == app_frame


def test_devid_downlink_over_budget_drops():
    world = devid_world()
    seen = watch(world)
    world.send_udp(0.0, "h1", "gw", 5, 5, AppHeader(9, 1).encode() + bytes(200))
    world.run()
    assert seen["n1", "app"] == []
    assert any("no-fragmentation" in r.detail for r in world.trace if r.kind == "drop")


@settings(max_examples=300)
@given(st.binary(max_size=24))
def test_nwk_decode_raises_only_gateway_errors(data):
    try:
        nwk = NwkFrame.decode(data)
    except GatewayError:
        return
    check_rebuild(nwk)


@settings(max_examples=300)
@given(st.binary(max_size=8))
def test_app_header_decode_raises_only_gateway_errors(data):
    try:
        header = AppHeader.decode(data)
    except GatewayError:
        return
    check_rebuild(header)
