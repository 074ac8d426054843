from ipaddress import IPv6Address

import pytest

from lowpan import addressing, netsim
from lowpan.frame import PhyBand, SecurityMode
from lowpan.gateway import GatewayMode, wired_to_lowpan
from lowpan.ipv6 import decode_udp, udp_packet
from lowpan.netsim import NodeRole, SleepSchedule, World
from lowpan.reassembly import REASSEMBLY_TIMEOUT, FragmentationContext
from lowpan.scenario import load_scenario


def make_line(seed=0, hops=None):
    """4-node line: a (coordinator) - b - c - d (RFD)."""
    world = World(seed=seed)
    world.add_node("a", NodeRole.COORDINATOR, 0x0001)
    world.add_node("b", NodeRole.FFD, 0x0002)
    world.add_node("c", NodeRole.FFD, 0x0003)
    world.add_node("d", NodeRole.RFD, 0x0004)
    world.add_link("a", "b")
    world.add_link("b", "c")
    world.add_link("c", "d")
    return world


def forwards_of(world, node_id):
    return [r for r in world.trace if r.node == node_id and r.kind == "forward"]


def drops_of(world, reason=None):
    records = [r for r in world.trace if r.kind == "drop"]
    if reason is None:
        return records
    return [r for r in records if f"reason={reason}" in r.detail]


# --- mesh forwarding ---------------------------------------------------------

def test_line_delivery_with_hops_4():
    world = make_line()
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, b"hello", hops=4)
    world.run()
    packets = world.node("d").received_packets
    assert len(packets) == 1
    assert decode_udp(packets[0][1].payload).payload == b"hello"
    # each forwarder decrements exactly once
    assert [r.detail for r in forwards_of(world, "b")] == ["final=0x0004 hops=3"]
    assert [r.detail for r in forwards_of(world, "c")] == ["final=0x0004 hops=2"]
    assert not forwards_of(world, "a") and not forwards_of(world, "d")


def test_line_drop_with_hops_2():
    world = make_line()
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, b"hello", hops=2)
    world.run()
    assert world.node("d").received_packets == []
    # the first forwarder still forwards, the second exhausts the budget
    assert len(forwards_of(world, "b")) == 1
    assert forwards_of(world, "c") == []
    exhausted = drops_of(world, "hops-exhausted")
    assert len(exhausted) == 1 and exhausted[0].node == "c"


def test_zero_hop_budget_is_exhausted_at_the_first_forwarder():
    world = make_line()
    world.send_udp(0.0, "a", "c", 0xF0B3, 0xF0B4, b"hello", hops=0)
    world.run()
    assert world.node("c").received_packets == []
    exhausted = drops_of(world, "hops-exhausted")
    assert len(exhausted) == 1 and exhausted[0].node == "b"


def test_shared_iid_resolves_to_the_lower_short():
    world = World(seed=0)
    eui = bytes.fromhex("00124b00000000aa")  # pinned on two nodes of one PAN
    world.add_node("a", NodeRole.COORDINATOR, 0x0001)
    world.add_node("hi", NodeRole.FFD, 0x0009, eui=eui)  # the higher short is added first
    world.add_node("lo", NodeRole.FFD, 0x0005, eui=eui)
    world.add_link("a", "hi")
    world.add_link("a", "lo")
    dst = addressing.link_local(addressing.iid_from_eui64(eui))
    world.send_udp(0.0, "a", "hi", 1, 2, b"shared", dst_addr=dst)
    world.run()
    assert len(world.node("lo").received_packets) == 1
    assert world.node("hi").received_packets == []


def test_neighbour_order_ignores_link_insertion_order():
    world = World(seed=0)
    for short, node_id in enumerate(["s", "d", "x", "m", "b"], 1):
        world.add_node(node_id, NodeRole.FFD, short)
    # d is two hops from s through m or through b; links arrive in no id order
    for a, b in [("s", "x"), ("s", "m"), ("m", "d"), ("s", "b"), ("b", "d")]:
        world.add_link(a, b)
    world.prepare()
    assert world.next_hop(world.node("s"), world.node("d").short) == world.node("b").short  # the lower id wins
    world.broadcast(0.0, "s", b"flood")
    world.run()
    assert [r.detail for r in world.trace if r.node == "s" and r.kind == "tx"] == ["dst=b", "dst=m", "dst=x"]


def test_delivery_to_self_address_forms():
    world = make_line()
    world.send_udp(0.0, "a", "b", 0xF0B3, 0xF0B4, b"direct", hops=4)
    world.run()
    assert len(world.node("b").received_packets) == 1


def test_rfd_never_forwards():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 0x0001)
    world.add_node("r", NodeRole.RFD, 0x0002)
    world.add_node("b", NodeRole.FFD, 0x0003)
    world.add_link("a", "r")
    world.add_link("r", "b")
    # no route via BFS (RFDs are not transit); force one to prove the node refuses
    world.node("a").routes[0x0003] = 0x0002
    world.send_udp(0.0, "a", "b", 1, 2, b"x")
    world.run()
    assert world.node("b").received_packets == []
    refused = drops_of(world, "not-forwarder")
    assert len(refused) == 1 and refused[0].node == "r"
    assert forwards_of(world, "r") == []


def test_bfs_routes_avoid_rfd_transit():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 0x0001)
    world.add_node("r", NodeRole.RFD, 0x0002)
    world.add_node("f", NodeRole.FFD, 0x0003)
    world.add_node("b", NodeRole.FFD, 0x0004)
    world.add_link("a", "r")  # short path, but through an RFD
    world.add_link("r", "b")
    world.add_link("a", "f")
    world.add_link("f", "b")
    world.prepare()
    assert world.next_hop(world.node("a"), 0x0004) == 0x0003  # via the FFD


# --- broadcast ----------------------------------------------------------------

def make_mesh_10(seed=0):
    world = World(seed=seed)
    world.add_node("n0", NodeRole.COORDINATOR, 0x0000)
    for i in range(1, 10):
        world.add_node(f"n{i}", NodeRole.FFD, i)
    for i in range(10):
        world.add_link(f"n{i}", f"n{(i + 1) % 10}")
    world.add_link("n0", "n5")
    world.add_link("n2", "n7")
    return world


def test_flood_delivers_once_per_node_and_terminates():
    world = make_mesh_10()
    world.broadcast(0.0, "n0", b"flood", hops=15)
    world.run()  # run() draining the queue is the termination proof
    for i in range(10):
        copies = world.node(f"n{i}").received_broadcasts
        assert len(copies) == 1, f"n{i} got {len(copies)} copies"
        assert copies[0][1] == b"flood"
    assert len(drops_of(world, "duplicate")) > 0


def test_duplicate_arrival_dropped():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("b", NodeRole.FFD, 2)
    world.add_node("c", NodeRole.FFD, 3)
    world.add_link("a", "b")
    world.add_link("a", "c")
    world.add_link("b", "c")  # triangle: b and c re-flood to each other
    world.broadcast(0.0, "a", b"x")
    world.run()
    assert len(drops_of(world, "duplicate")) >= 2


def test_sequence_wrap_still_dedups():
    world = make_mesh_10()
    world.node("n0").bc0_seq = 255
    world.broadcast(0.0, "n0", b"first")
    world.broadcast(1.0, "n0", b"second")  # wraps to sequence 0
    world.run()
    for i in range(10):
        payloads = [p for _, p in world.node(f"n{i}").received_broadcasts]
        assert payloads == [b"first", b"second"]


def test_rfd_delivers_but_does_not_reflood():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("r", NodeRole.RFD, 2)
    world.add_node("b", NodeRole.FFD, 3)
    world.add_link("a", "r")
    world.add_link("r", "b")
    world.broadcast(0.0, "a", b"x", hops=8)
    world.run()
    assert len(world.node("r").received_broadcasts) == 1
    assert world.node("b").received_broadcasts == []  # r refuses to re-flood
    assert forwards_of(world, "r") == []


# --- sleep, loss, timing --------------------------------------------------------

def test_sleep_gating():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("s", NodeRole.RFD, 2, sleep=SleepSchedule(awake=1.0, asleep=1.0))
    world.add_link("a", "s")
    world.send_udp(0.2, "a", "s", 1, 2, b"awake")
    world.send_udp(1.2, "a", "s", 1, 2, b"asleep")
    world.run()
    assert len(world.node("s").received_packets) == 1
    asleep = drops_of(world, "asleep")
    assert len(asleep) == 1 and asleep[0].node == "s"
    # the invariant: no tx/rx trace row shows a sleeping node
    for record in world.trace:
        if record.kind in ("tx", "rx"):
            assert world.nodes[record.node].is_awake(record.time)


def test_sleeping_sender_drops():
    world = World(seed=0)
    world.add_node("s", NodeRole.FFD, 1, sleep=SleepSchedule(awake=1.0, asleep=9.0))
    world.add_node("b", NodeRole.FFD, 2)
    world.add_link("s", "b")
    world.send_udp(1.5, "s", "b", 1, 2, b"x")
    world.run()
    drops = drops_of(world, "asleep")
    assert len(drops) == 1 and drops[0].node == "s" and "dir=tx" in drops[0].detail


def test_total_loss_drops_everything():
    world = World(seed=1)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("b", NodeRole.FFD, 2)
    world.add_link("a", "b", loss=1.0)
    world.send_udp(0.0, "a", "b", 1, 2, b"x")
    world.run()
    assert world.node("b").received_packets == []
    assert len(drops_of(world, "loss")) == 1


def test_seeded_loss_is_reproducible():
    def run(seed):
        world = World(seed=seed)
        world.add_node("a", NodeRole.COORDINATOR, 1)
        world.add_node("b", NodeRole.FFD, 2)
        world.add_link("a", "b", loss=0.5)
        for i in range(20):
            world.send_udp(0.1 * i, "a", "b", 1, 2, bytes([i]))
        world.run()
        return world.trace_lines()

    assert run(42) == run(42)
    assert run(42) != run(43)  # 2^-20 chance of a false failure


def test_airtime_matches_trace():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("b", NodeRole.FFD, 2)
    world.add_link("a", "b", band=PhyBand.B2450)
    world.send_udp(0.0, "a", "b", 1, 2, b"x")
    world.run()
    tx = next(r for r in world.trace if r.kind == "tx")
    rx = next(r for r in world.trace if r.kind == "rx")
    assert rx.nbytes == tx.nbytes
    assert rx.time - tx.time == pytest.approx(tx.nbytes * 8 / 250_000, abs=1e-12)


def test_transmissions_serialize_on_the_radio():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("b", NodeRole.FFD, 2)
    world.add_link("a", "b")
    world.send_udp(0.0, "a", "b", 1, 2, bytes(600))  # fragmented burst
    world.run()
    tx_times = [r.time for r in world.trace if r.kind == "tx"]
    assert len(tx_times) > 1
    assert all(b > a for a, b in zip(tx_times, tx_times[1:]))


# --- fragmentation through the stack ------------------------------------------

def test_fragmented_unicast_reassembles():
    world = make_line()
    payload = bytes((i * 11 + 3) & 0xFF for i in range(900))
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, payload, hops=8)
    world.run()
    packets = world.node("d").received_packets
    assert len(packets) == 1
    assert decode_udp(packets[0][1].payload).payload == payload
    assert any(r.kind == "frag-start" for r in world.trace)
    assert any(r.kind == "reasm-complete" and r.node == "d" for r in world.trace)


def test_incomplete_reassembly_is_discarded_at_its_deadline():
    world = make_line()
    a, b = world.node("a"), world.node("b")
    pkt = udp_packet(a.link_local, b.link_local, 1, 2, bytes(300))
    first, second, *_ = wired_to_lowpan(pkt, a.wpan_address, b.wpan_address, FragmentationContext())
    world._transmit(a, b.short, first)  # the rest of the datagram never comes
    world.run_until(REASSEMBLY_TIMEOUT - 1)
    assert len(b.reassembly) == 1 and drops_of(world) == []
    world.run_until(REASSEMBLY_TIMEOUT + 1)
    assert b.reassembly == {}
    (drop,) = drops_of(world)
    assert (drop.node, drop.detail) == ("b", "reason=timeout stage=reassembly")
    # a fragment after the deadline opens a fresh buffer and reports nothing
    world._transmit(a, b.short, second)
    world.run_until(2 * REASSEMBLY_TIMEOUT)
    assert len(b.reassembly) == 1 and drops_of(world) == [drop]
    assert world.metrics["drops_timeout"] == 1


def test_security_overhead_shrinks_budget():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1, security=SecurityMode.AES_CCM_128)
    world.add_node("b", NodeRole.FFD, 2, security=SecurityMode.AES_CCM_128)
    world.add_link("a", "b")
    world.send_udp(0.0, "a", "b", 1, 2, bytes(200))
    world.run()
    assert len(world.node("b").received_packets) == 1
    frames = [r for r in world.trace if r.kind == "tx"]
    assert all(r.nbytes <= 133 for r in frames)


# --- determinism -----------------------------------------------------------------

def build_busy_world(seed):
    world = World(seed=seed)
    world.add_node("c", NodeRole.COORDINATOR, 0x0001)
    world.add_node("f", NodeRole.FFD, 0x0002)
    world.add_node("r", NodeRole.RFD, 0x0003, sleep=SleepSchedule(0.5, 0.5))
    world.add_gateway("gw", 0x00FE, GatewayMode.BORDER, IPv6Address("fd00::a"),
                      prefix=IPv6Address("2001:db8:a::"))
    world.add_host("h", IPv6Address("fd00::99"))
    world.add_link("c", "f", loss=0.2)
    world.add_link("f", "gw")
    world.add_link("r", "c")
    for i in range(5):
        world.send_udp(0.3 * i, "c", "h", 0xF0B3, 0xF0B4, bytes([i] * 40))
    world.send_udp(2.0, "h", "c", 0xF0B3, 0xF0B4, bytes(700))
    world.broadcast(3.0, "c", b"hello")
    return world


def test_trace_is_pure_function_of_seed():
    first = build_busy_world(7)
    first.run()
    second = build_busy_world(7)
    second.run()
    assert first.trace_lines() == second.trace_lines()
    assert first.metrics_lines() == second.metrics_lines()


def test_drops_without_gateway_have_a_reason():
    world = make_line()  # one PAN, no gateway
    world.send_app(0.0, "a", 1, 2, b"app")  # no translator to send to
    world.send_nwk(0.0, "a", 0x0004, b"nwk")  # d is not a neighbour of a
    world.run()
    assert len(drops_of(world, "no-route")) == 2
    metrics = world.metrics
    assert metrics["sent"] == 2
    assert metrics["drops_no-route"] == 2
    assert metrics["drops"] == sum(v for k, v in metrics.items() if k.startswith("drops_"))


def test_oversized_mac_payloads_drop_at_the_radio():
    world = make_line()
    world.add_gateway("gw", 0x00FE, GatewayMode.DEVID, IPv6Address("fd00::a"))
    world.add_link("a", "gw")
    world.broadcast(0.0, "a", bytes(200))  # one copy for each neighbour, b and gw
    world.send_nwk(0.0, "a", 0x0002, bytes(200))
    world.send_app(0.0, "a", 1, 2, bytes(200))
    world.run()
    over = drops_of(world, "payload-over-budget")
    assert [r.node for r in over] == ["a"] * 4
    assert not [r for r in world.trace if r.kind == "tx"]
    assert world.metrics["drops"] == world.metrics["drops_payload-over-budget"] == 4


def _gateway_without_prefix(world):
    world.add_gateway("gw", 0x00FE, GatewayMode.DEVID, IPv6Address("fd00::a"))
    world.add_link("a", "gw")
    return "a", "gw"


def _host_and_no_gateway(world):
    world.add_host("h", IPv6Address("fd00::99"))
    return "h", "d"


def _two_pans_and_no_gateway(world):
    world.add_node("x", NodeRole.FFD, 0x0001, pan_id=0x1234)
    return "a", "x"


@pytest.mark.parametrize(
    "build", [_gateway_without_prefix, _host_and_no_gateway, _two_pans_and_no_gateway],
    ids=["node-to-gateway", "host-to-node", "cross-pan"],
)
def test_udp_needing_a_missing_prefix_is_dropped(build):
    world = make_line()  # one PAN, no gateway, until `build` adds to it
    src, dst = build(world)
    world.send_udp(0.0, src, dst, 1, 2, b"x")
    world.run()
    assert [(r.node, r.detail) for r in drops_of(world)] == [(src, f"reason=no-prefix to={dst}")]
    assert world.metrics["sent"] == 1
    assert world.metrics["drops_no-prefix"] == 1


@pytest.mark.parametrize("order", [("gz", "gy", "gx"), ("gy", "gx", "gz")], ids=["reverse", "mixed"])
def test_gateway_lookups_pick_the_lowest_id_whatever_the_insertion_order(order):
    world = make_line()
    prefix = IPv6Address("2001:db8:a::")
    gateways = {  # gz and gx share the default PAN and its prefix
        "gz": dict(short=0x00FD, wired_addr=IPv6Address("fd00::c"), prefix=prefix),
        "gy": dict(short=0x00FE, wired_addr=IPv6Address("fd00::b"), pan_id=0x1234),
        "gx": dict(short=0x00FC, wired_addr=IPv6Address("fd00::a"), prefix=prefix),
    }
    for gw_id in order:
        world.add_gateway(gw_id, mode=GatewayMode.BORDER, **gateways[gw_id])
    world.add_host("h", IPv6Address("fd00::99"))
    assert world.segment_gateway(world.pan_id)[0] == "gx"
    assert world.segment_gateway(0x1234)[0] == "gy"
    assert world.segment_gateway(0x4321) is None
    world.send_udp(0.0, "h", "a", 1, 2, b"x")  # to a's global address, in both gz's and gx's prefix
    world.run()
    assert [r.node for r in world.trace if r.kind == "wired-rx"] == ["gx"]


@pytest.mark.parametrize("scenario", ["demo", "devid", "zigbee"])
def test_every_received_frame_is_decoded(scenario_dir, scenario, monkeypatch):
    calls = 0
    decode = netsim.decode_mac_frame

    def counting_decode(data):
        nonlocal calls
        calls += 1
        return decode(data)

    monkeypatch.setattr(netsim, "decode_mac_frame", counting_decode)
    text = (scenario_dir / f"{scenario}.scn").read_text()
    for mode in (None, "border", "devid", "zigbee", "bridge"):
        calls = 0
        world, t_end = load_scenario(text, mode_override=mode)
        world.run_until(t_end)
        received = [r for r in world.trace if r.kind == "rx"]
        malformed = drops_of(world, "malformed-frame")
        assert received and calls == len(received) + len(malformed), mode


def test_metrics_lines_shape():
    world = make_line()
    world.send_udp(0.0, "a", "d", 1, 2, b"x", hops=8)
    world.run()
    metrics = dict(line.split("=") for line in world.metrics_lines())
    assert metrics["sent"] == "1"
    assert metrics["delivered"] == "1"
    assert metrics["delivery_ratio"] == "1"
    assert "mean_header_overhead" in metrics
