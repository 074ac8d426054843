"""Acceptance suite: one test per release criterion, run at full scale.

Each test prints a PASS line once its assertions hold, so `pytest -v -s
tests/test_acceptance.py` reads as a criterion-by-criterion report.
"""

import random
from ipaddress import IPv6Address

import pytest

from lowpan import addressing
from lowpan.cli import main as cli_main
from lowpan.codec import (
    Hc1Encoding,
    compress_ipv6,
    compress_udp,
    decompress_ipv6,
    decompress_udp,
    parse_dispatch,
)
from lowpan.frame import PhyBand, SecurityMode, Short16, frame_airtime, mac_payload_budget
from lowpan.gateway import (
    APL_MAX_OCTETS,
    AplTooLarge,
    AppHeader,
    GatewayMode,
    NoFragmentation,
    pad_transform,
    register_devid,
    strip_transform,
)
from lowpan.ipv6 import (
    NEXT_HEADER_ICMPV6,
    NEXT_HEADER_UDP,
    Ipv6Packet,
    UdpDatagram,
    decode_udp,
    encode_udp,
)
from lowpan.netsim import NodeRole, World
from lowpan.reassembly import (
    FragmentOutcome,
    FragmentationContext,
    accept_fragment,
    fragment,
)

from deliveries import watch
from test_codec import _random_packet
from test_gateway import border_world, devid_world, two_region_world
from test_netsim import make_line, make_mesh_10


def ok(number: int, name: str):
    print(f"[acceptance] criterion {number:02d} {name}: PASS")


def test_criterion_01_budget_arithmetic():
    assert mac_payload_budget(SecurityMode.NONE) == 102
    assert mac_payload_budget(SecurityMode.AES_CCM_128) == 81
    assert mac_payload_budget(SecurityMode.AES_CCM_32) == 93
    assert mac_payload_budget(SecurityMode.AES_CCM_64) == 89
    ok(1, "budget-arithmetic")


def test_criterion_02_dispatch_table(golden_dir):
    lines = (golden_dir / "dispatch_table.txt").read_text().splitlines()
    assert len(lines) == 256
    seen = set()
    for line in lines:
        byte_hex, kind = line.split()
        byte = int(byte_hex, 16)
        assert byte not in seen
        seen.add(byte)
        assert parse_dispatch(byte).value == kind
    assert seen == set(range(256))
    ok(2, "dispatch-table")


def test_criterion_03_two_byte_header():
    src_l2 = Short16(0xBEEF, 0x0001)
    dst_l2 = Short16(0xBEEF, 0x0002)
    src = addressing.link_local(addressing.iid_for(src_l2))
    dst = addressing.link_local(addressing.iid_for(dst_l2))
    # non-UDP next header: the whole stream is dispatch + HC1 + hop limit
    pkt = Ipv6Packet(src=src, dst=dst, next_header=NEXT_HEADER_ICMPV6, payload=b"")
    stream = compress_ipv6(pkt, src_l2, dst_l2)
    assert len(stream) == 3  # dispatch byte + exactly 2 octets of IPv6 header
    # UDP next header: the IPv6 portion before the HC2 region is still 2 octets
    udp = UdpDatagram(0xF0B0, 0xF0B1, 1, b"")
    pkt = Ipv6Packet(src=src, dst=dst, next_header=NEXT_HEADER_UDP, payload=encode_udp(udp))
    stream = compress_ipv6(pkt, src_l2, dst_l2)
    assert Hc1Encoding.from_byte(stream[1]).hc2_follows
    assert len(stream) == 1 + 2 + 4
    ok(3, "two-byte-header")


def test_criterion_04_udp_port_compression():
    for sport in range(0xF0B0, 0xF0C0):
        for dport in (0xF0B0, 0xF0BF):
            header = compress_udp(UdpDatagram(sport, dport, 0xABCD, b""))
            assert len(header) == 4
    # out-of-range ports fall back inline, never an error
    for ports in ((0xF0AF, 0xF0B0), (0xF0C0, 0xF0B0), (80, 5683)):
        udp = UdpDatagram(*ports, 7, b"x")
        assert decompress_udp(compress_udp(udp) + b"x") == udp
    ok(4, "udp-port-compression")


def test_criterion_05_codec_soundness_10k():
    rng = random.Random(20118)
    for _ in range(10_000):
        pkt, l2_src, l2_dst = _random_packet(rng)
        stream = compress_ipv6(pkt, l2_src, l2_dst)
        back = decompress_ipv6(stream, l2_src, l2_dst)
        assert back == pkt
    ok(5, "codec-soundness-10k")


def test_criterion_06_fragmentation():
    # the 1280-octet case at the unsecured budget
    datagram = bytes((i * 9 + 1) & 0xFF for i in range(1280))
    frames = fragment(datagram, 102, FragmentationContext())
    assert len(frames) == 14
    table = {}
    src = Short16(0xBEEF, 1)
    results = [accept_fragment(table, src, f, 0.0) for f in frames]
    assert results[-1].outcome is FragmentOutcome.COMPLETE
    assert results[-1].datagram == datagram

    # randomized sizes, budgets and arrival order
    rng = random.Random(9120)
    for _ in range(1_000):
        size = rng.randrange(1, 2048)
        budget = rng.randrange(16, 140)
        data = rng.randbytes(size)
        pieces = fragment(data, budget, FragmentationContext(next_tag=rng.randrange(0x10000)))
        if len(pieces) == 1:
            assert pieces[0] == data
            continue
        rng.shuffle(pieces)
        table = {}
        outcome = None
        for piece in pieces:
            outcome = accept_fragment(table, src, piece, 0.0)
        assert outcome.outcome is FragmentOutcome.COMPLETE
        assert outcome.datagram == data

    # a fragment 61 simulated seconds late drops the pending buffer
    frames = fragment(bytes(500), 102, FragmentationContext())
    table = {}
    assert accept_fragment(table, src, frames[0], 0.0).outcome is FragmentOutcome.PENDING
    late = accept_fragment(table, src, frames[1], 61.0)
    assert late.outcome is FragmentOutcome.DROPPED and late.reason == "timeout"
    ok(6, "fragmentation")


def test_criterion_07_mesh_invariants():
    world = make_line()
    seen = watch(world)
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, b"hop", hops=4)
    world.run()
    assert len(seen["d", "ipv6"]) == 1
    for node_id, hops in (("b", 3), ("c", 2)):
        decrements = [
            r for r in world.trace if r.node == node_id and r.kind == "forward"
        ]
        assert len(decrements) == 1
        assert f"hops={hops}" in decrements[0].detail

    world = make_line()
    seen = watch(world)
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, b"hop", hops=2)
    world.run()
    assert seen["d", "ipv6"] == []
    drops = [r for r in world.trace if r.kind == "drop" and "hops-exhausted" in r.detail]
    assert [r.node for r in drops] == ["c"]  # the second forwarder

    # RFDs never forward, even with a route pointing through them
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("r", NodeRole.RFD, 2)
    world.add_node("b", NodeRole.FFD, 3)
    world.add_link("a", "r")
    world.add_link("r", "b")
    world.node("a").routes[3] = 2
    world.send_udp(0.0, "a", "b", 1, 2, b"x")
    world.run()
    assert not [r for r in world.trace if r.node == "r" and r.kind == "forward"]
    assert any("not-forwarder" in r.detail for r in world.trace if r.kind == "drop")
    ok(7, "mesh-invariants")


def test_criterion_08_broadcast_flood():
    world = make_mesh_10()
    seen = watch(world)
    world.broadcast(0.0, "n0", b"flood", hops=15)
    world.run()  # queue drains: the flood terminates
    for i in range(10):
        copies = seen[f"n{i}", "bc0"]
        assert len(copies) == 1 and copies[0][1] == b"flood"
    ok(8, "broadcast-flood")


def test_criterion_09_gateway_end_to_end():
    world = border_world()
    seen = watch(world)
    payload = bytes((3 * i + 5) & 0xFF for i in range(48))
    world.send_udp(0.0, "rfd", "h1", 0xF0B3, 0xF0BF, payload)
    world.run()
    delivered = seen["h1", "ipv6"]
    assert len(delivered) == 1
    assert decode_udp(delivered[0][1].payload).payload == payload

    world = border_world()
    seen = watch(world)
    data = bytes((i * 5 + 2) & 0xFF for i in range(1232))
    world.send_udp(0.0, "h1", "rfd", 0xF0B3, 0xF0B4, data)  # 1280-octet packet
    world.run()
    packets = seen["rfd", "ipv6"]
    assert len(packets) == 1
    assert packets[0][1].payload_length + 40 == 1280
    assert decode_udp(packets[0][1].payload).payload == data
    assert any(r.kind == "frag-start" and r.node == "gw" for r in world.trace)
    ok(9, "gateway-end-to-end")


def test_criterion_10_mode_contrast():
    # the translator cannot fragment an over-budget wired payload
    world = devid_world()
    seen = watch(world)
    world.send_udp(0.0, "h1", "gw", 5, 5, AppHeader(9, 1).encode() + bytes(200))
    world.run()
    assert seen["n1", "app"] == []
    assert any("no-fragmentation" in r.detail for r in world.trace if r.kind == "drop")

    # devid translation fails across regions: the peer is registered elsewhere
    world = two_region_world(GatewayMode.DEVID)
    register_devid(world.gateway("ga").registry, 1, world.node("x").wpan_address)
    register_devid(world.gateway("gb").registry, 2, world.node("y").wpan_address)
    seen = watch(world)
    world.send_app(0.0, "x", 1, 2, b"hello")
    world.run()
    assert seen["y", "app"] == []
    assert any("unknown-devid" in r.detail for r in world.trace if r.kind == "drop")

    # the IP-layer and mapping gateways pass the same scenario
    world = two_region_world(GatewayMode.BORDER)
    seen = watch(world)
    world.send_udp(0.0, "x", "y", 0xF0B3, 0xF0B4, b"hello")
    world.run()
    assert len(seen["y", "ipv6"]) == 1

    world = two_region_world(GatewayMode.ZIGBEE)
    world.prepare()
    pseudo_y = world.gateway("gb").mapping.assign_pseudo(world.node("y").eui)
    dst_short = world.gateway("ga").mapping.assign_short(pseudo_y)
    seen = watch(world)
    world.send_apl(0.0, "x", dst_short, b"hello")
    world.run()
    assert len(seen["y", "nwk"]) == 1
    assert seen["y", "nwk"][0][1].payload == b"hello"

    # the padding transform round-trips every legal size and rejects 95
    for n in range(APL_MAX_OCTETS + 1):
        data = bytes((i + n) & 0xFF for i in range(n))
        assert strip_transform(pad_transform(data)) == data
    with pytest.raises(AplTooLarge):
        pad_transform(bytes(95))
    ok(10, "mode-contrast")


def test_criterion_11_determinism(scenario_dir, tmp_path, capsys):
    for name in ("first", "second"):
        code = cli_main(
            ["run", str(scenario_dir / "demo.scn"), "--out", str(tmp_path / name)]
        )
        assert code == 0
    capsys.readouterr()
    assert (tmp_path / "first/trace.tsv").read_bytes() == (
        tmp_path / "second/trace.tsv"
    ).read_bytes()
    assert (tmp_path / "first/metrics.txt").read_bytes() == (
        tmp_path / "second/metrics.txt"
    ).read_bytes()
    ok(11, "determinism")


def test_criterion_12_airtime():
    # 133 octets x 8 bits at the three band rates; the 40 kb/s figure is
    # 26.6 ms by that arithmetic (see the decisions ledger)
    assert frame_airtime(PhyBand.B2450, 133) == pytest.approx(4.256e-3, abs=1e-6)
    assert frame_airtime(PhyBand.B915, 133) == pytest.approx(26.6e-3, abs=1e-6)
    assert frame_airtime(PhyBand.B868, 133) == pytest.approx(53.2e-3, abs=1e-6)
    ok(12, "airtime")
