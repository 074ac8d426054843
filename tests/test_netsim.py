import ast
import math
import re
import tracemalloc
from ipaddress import IPv6Address
from pathlib import Path

import pytest
from counter_laws import check_counter_laws
from deliveries import watch
from drop_reasons import drop_reasons
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_digests import _workloads
from value_checks import raises_exactly

from lowpan import addressing, netsim, scenario
from lowpan.codec import MeshHeader, encode_mesh
from lowpan.frame import Eui64, FrameType, MacFrame, PhyBand, SecurityMode, Short16, crc16, encode_mac_frame
from lowpan.gateway import AppHeader, GatewayMode, NwkFrame, wired_to_lowpan
from lowpan.ipv6 import decode_udp, udp_packet
from lowpan.netsim import _TRACE_LINE, NodeRole, SleepSchedule, TraceRecord, World
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
    seen = watch(world)
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, b"hello", hops=4)
    world.run()
    packets = seen["d", "ipv6"]
    assert len(packets) == 1
    assert decode_udp(packets[0][1].payload).payload == b"hello"
    # each forwarder decrements exactly once
    assert [r.detail for r in forwards_of(world, "b")] == ["final=0x0004 hops=3"]
    assert [r.detail for r in forwards_of(world, "c")] == ["final=0x0004 hops=2"]
    assert not forwards_of(world, "a") and not forwards_of(world, "d")


def test_line_drop_with_hops_2():
    world = make_line()
    seen = watch(world)
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, b"hello", hops=2)
    world.run()
    assert seen["d", "ipv6"] == []
    # the first forwarder still forwards, the second exhausts the budget
    assert len(forwards_of(world, "b")) == 1
    assert forwards_of(world, "c") == []
    exhausted = drops_of(world, "hops-exhausted")
    assert len(exhausted) == 1 and exhausted[0].node == "c"


def test_zero_hop_budget_is_exhausted_at_the_first_forwarder():
    world = make_line()
    seen = watch(world)
    world.send_udp(0.0, "a", "c", 0xF0B3, 0xF0B4, b"hello", hops=0)
    world.run()
    assert seen["c", "ipv6"] == []
    exhausted = drops_of(world, "hops-exhausted")
    assert len(exhausted) == 1 and exhausted[0].node == "b"


def indexes(world) -> dict:
    """A copy of every dict the world holds: its nodes, hosts, gateways and their indexes."""
    return {name: dict(value) for name, value in vars(world).items() if isinstance(value, dict)}


@pytest.mark.parametrize("hi_eui, lo_eui", [
    (bytes.fromhex("00124b00000000aa"), bytes.fromhex("00124b00000000aa")),  # pinned on both
    (None, netsim.synth_eui(0xBEEF, 0x0009)),  # lo pins the EUI-64 hi was given
    (bytes.fromhex("0000beff feef0005"), None),  # hi's EUI-64 IID is lo's short-derived one
], ids=["pinned-twice", "pinned-to-a-synthesized-eui", "eui-iid-of-a-short"])
def test_a_shared_iid_is_refused_and_its_first_owner_keeps_it(hi_eui, lo_eui):
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 0x0001)
    hi = world.add_node("hi", NodeRole.FFD, 0x0009, eui=hi_eui)  # the higher short is added first
    iid = addressing.iid_from_eui64(hi.eui)
    before = indexes(world)
    with pytest.raises(ValueError, match=f"interface identifier {iid.hex()} already names 'hi' in PAN 0xBEEF"):
        world.add_node("lo", NodeRole.FFD, 0x0005, eui=lo_eui)
    assert indexes(world) == before  # nothing of lo is stored
    world.add_link("a", "hi")
    dst = addressing.link_local(iid)
    seen = watch(world)
    a = world.node("a")
    world.schedule(0.0, (world._node_send_ipv6, a, udp_packet(a.link_local, dst, 1, 2, b"shared")))
    world.run()
    assert len(seen["hi", "ipv6"]) == 1


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


def test_a_destination_table_maps_each_node_to_its_next_hop():
    world = World(seed=0)
    for short, node_id in enumerate("abcde", 1):
        world.add_node(node_id, NodeRole.FFD, short)
    for a, b in zip("abcd", "bcde"):
        world.add_link(a, b)
    world.prepare()
    assert world.next_hop(world.node("a"), world.node("e").short) == world.node("b").short
    assert world.hop_trees["e"][0] == {"e": None, "d": "e", "c": "d", "b": "c", "a": "b"}


@pytest.mark.parametrize("first", ["k", "f"], ids=["nearer-first", "farther-first"])
def test_a_tie_goes_to_the_lower_id_hop_whatever_its_short(first):
    world = World(seed=0)
    # t's neighbours k and q reach y and b, which both lead to s and on to f;
    # b has the lower id but the higher short
    for node_id, short in [("t", 1), ("k", 5), ("q", 4), ("y", 2), ("b", 9), ("s", 3), ("f", 6)]:
        world.add_node(node_id, NodeRole.FFD, short)
    for a, b in [("t", "k"), ("t", "q"), ("k", "y"), ("q", "b"), ("s", "y"), ("s", "b"), ("s", "f")]:
        world.add_link(a, b)
    world.prepare()
    t = world.node("t").short
    world.next_hop(world.node(first), t)  # from k the table stops short of s, which resumes it
    assert world.next_hop(world.node("s"), t) == world.node("b").short
    assert world.next_hop(world.node("f"), t) == world.node("s").short
    assert world.hop_trees["t"][0]["s"] == "b"


def test_prepare_puts_each_neighbour_map_in_id_order_once():
    world = World(seed=0)
    ids = ["a", "b", "c", "d"]
    for short, node_id in enumerate(ids, 1):
        world.add_node(node_id, NodeRole.FFD, short)
    for a, b in [("d", "c"), ("d", "b"), ("c", "b"), ("d", "a"), ("c", "a"), ("b", "a")]:  # reverse id order
        world.add_link(a, b)
    assert list(world.neighbors["a"]) == ["d", "c", "b"]  # as added, until prepare
    world.prepare()
    assert {node_id: list(ends) for node_id, ends in world.neighbors.items()} == {
        node_id: [other for other in ids if other != node_id] for node_id in ids
    }
    maps = dict(world.neighbors)
    world.prepare()  # a second prepare changes nothing
    assert all(world.neighbors[node_id] is maps[node_id] for node_id in ids)


def test_node_link_and_section_records_have_no_instance_dict():
    world = make_line()
    link = world.neighbors["a"]["b"]
    assert world.neighbors["b"]["a"] is link  # one record per pair, reachable from both ends
    section = scenario._parse_sections("[node a]\nshort = 1\n")["node"][0]  # a parsed section is a plain list
    assert type(section) is list and section[:2] == [1, "a"]
    for record in (world.node("a"), link, section):
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(AttributeError):
        link.loss_probability = 0.5
    assert link == netsim.SimLink() and hash(link) == hash(netsim.SimLink())
    assert link != (PhyBand.B2450, 0.0) and (PhyBand.B2450, 0.0) != link
    assert repr(link) == f"SimLink(band={PhyBand.B2450!r}, loss_probability=0.0)"


def test_a_link_joins_two_different_nodes_of_one_pan():
    world = World(seed=0, pan_id=0xBEEF)
    world.add_node("a", NodeRole.FFD, 1)
    world.add_node("b", NodeRole.FFD, 2)
    world.add_node("c", NodeRole.FFD, 2, pan_id=0x0002)  # b's short, in another PAN
    world.add_link("a", "b")
    seen = watch(world)
    link = world.neighbors["a"]["b"]
    for a, b, message in [("a", "c", "one PAN"), ("c", "a", "one PAN"), ("a", "a", "itself"),
                          ("a", "ghost", "unknown node"), ("a", "b", "already linked"), ("b", "a", "already linked")]:
        with pytest.raises(ValueError, match=message):
            world.add_link(a, b, loss=0.5)
    assert world.neighbors == {"a": {"b": link}, "b": {"a": link}, "c": {}}
    assert world.neighbors["b"]["a"] is link and link == netsim.SimLink()  # the first link stands
    world.broadcast(0.0, "a", b"flood")
    world.run()
    assert [r.detail for r in world.trace if r.node == "a" and r.kind == "tx"] == ["dst=b"]
    assert seen["c", "bc0"] == []


@pytest.mark.parametrize("loss", [float("nan"), -0.5, 1.5, float("inf")])
def test_a_link_loss_outside_0_to_1_is_refused_and_stores_nothing(loss):
    world = make_line()
    world.add_node("e", NodeRole.FFD, 5)
    before = {node_id: dict(ends) for node_id, ends in world.neighbors.items()}
    with pytest.raises(ValueError) as raised:
        world.add_link("d", "e", loss=loss)
    assert (raised.type, str(raised.value)) == (ValueError, f"link loss {loss!r} is not in 0..1")
    assert {node_id: dict(ends) for node_id, ends in world.neighbors.items()} == before
    link = world.add_link("d", "e", loss=1.0)  # the top of the range is a link; make_line's are at 0
    assert world.neighbors["e"]["d"] is link and link == netsim.SimLink(PhyBand.B2450, 1.0)


def test_a_pan_has_one_coordinator():
    world = make_line()  # a coordinates PAN 0xBEEF
    world.add_gateway("g", 0x00FE, GatewayMode.BORDER, IPv6Address("fd00::a"))  # a gateway is an FFD
    world.add_node("x", NodeRole.COORDINATOR, 1, pan_id=0x1234)  # another PAN's coordinator
    before = indexes(world)
    # (id, short, PAN, its coordinator); the coordinator is named before a short taken (b's 2)
    for node_id, short, pan_id, held in [("y", 9, None, "a"), ("y", 2, 0xBEEF, "a"), ("z", 9, 0x1234, "x")]:
        with pytest.raises(ValueError) as raised:
            world.add_node(node_id, NodeRole.COORDINATOR, short, pan_id=pan_id)
        pan = 0xBEEF if pan_id is None else pan_id
        assert str(raised.value) == f"PAN 0x{pan:04X} has coordinator {held!r}"
        assert indexes(world) == before
    assert world.add_node("y", NodeRole.FFD, 9).role is NodeRole.FFD  # the refused call left y free
    assert world._pan_coordinator == {0xBEEF: world.node("a"), 0x1234: world.node("x")}


def test_a_prepared_world_refuses_new_nodes_gateways_and_links():
    def line(shortcut: bool) -> World:
        world = World(seed=0)
        for short, node_id in enumerate("abcde", 1):
            world.add_node(node_id, NodeRole.FFD, short)
        for a, b in zip("abcd", "bcde"):
            world.add_link(a, b)
        if shortcut:
            world.add_node("z", NodeRole.FFD, 9)
            world.add_link("a", "z")
            world.add_link("z", "e")
        return world

    built = line(shortcut=True)
    built.run()
    assert built.next_hop(built.node("a"), 5) == 9  # a - z - e
    # added after `prepare`, z would have no receive stack, would never be transit
    # and would leave the cached hop trees stale, so the world refuses it
    world = line(shortcut=False)
    world.run()
    assert world.next_hop(world.node("a"), 5) == 2
    for add in (lambda: world.add_node("z", NodeRole.FFD, 9),
                lambda: world.add_gateway("gw", 0xFE, GatewayMode.BORDER, IPv6Address("fd00::a")),
                lambda: world.add_link("a", "e")):
        with pytest.raises(ValueError, match="the world is prepared"):
            add()
    assert list(world.nodes) == list("abcde") and world.segment_gateway(world.pan_id) is None and "e" not in world.neighbors["a"]
    assert world.next_hop(world.node("a"), 5) == 2


def test_flood_and_fragment_state_is_made_on_first_use():
    world = make_line()  # a - b - c - d
    world.send_udp(0.0, "a", "c", 0xF0B0, 0xF0B1, b"x" * 8)
    world.run()
    assert all(node.bc0_seen is None and node.next_tag == 0 for node in world.nodes.values())
    for at in (1.0, 2.0):
        world.send_udp(at, "a", "c", 0xF0B0, 0xF0B1, b"x" * 300)
    world.run()
    assert [node.id for node in world.nodes.values() if node.next_tag] == ["a"]
    assert world.node("a").next_tag == 2  # tags 0 and 1, one per fragmented datagram
    assert all(node.bc0_seen is None for node in world.nodes.values())
    world.broadcast(world.now, "b", b"flood")  # the run above ends at the reassembly deadlines
    world.run()
    assert all(len(node.bc0_seen) == 1 for node in world.nodes.values())


def test_a_node_draws_its_fragment_tags_by_the_context_rule_and_wraps_after_0xffff():
    assert netsim.SimNode.take_tag is FragmentationContext.take_tag
    world = make_line()
    seen = watch(world)
    world.node("a").next_tag = 0xFFFF
    for at in (1.0, 2.0):
        world.send_udp(at, "a", "c", 0xF0B0, 0xF0B1, b"x" * 300)
    world.run()
    assert [len(decode_udp(pkt.payload).payload) for _, pkt in seen["c", "ipv6"]] == [300, 300]
    assert world.node("a").next_tag == 1  # tags 0xFFFF, then 0
    assert drops_of(world) == []


def test_delivery_to_self_address_forms():
    world = make_line()
    seen = watch(world)
    world.send_udp(0.0, "a", "b", 0xF0B3, 0xF0B4, b"direct", hops=4)
    world.run()
    assert len(seen["b", "ipv6"]) == 1


def test_rfd_never_forwards():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 0x0001)
    world.add_node("r", NodeRole.RFD, 0x0002)
    world.add_node("b", NodeRole.FFD, 0x0003)
    world.add_link("a", "r")
    world.add_link("r", "b")
    # no route via BFS (RFDs are not transit); force one to prove the node refuses
    world.node("a").routes[0x0003] = 0x0002
    seen = watch(world)
    world.send_udp(0.0, "a", "b", 1, 2, b"x")
    world.run()
    assert seen["b", "ipv6"] == []
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
    seen = watch(world)
    world.broadcast(0.0, "n0", b"flood", hops=15)
    world.run()  # run() draining the queue is the termination proof
    for i in range(10):
        copies = seen[f"n{i}", "bc0"]
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
    seen = watch(world)
    world.broadcast(0.0, "n0", b"first")
    world.broadcast(1.0, "n0", b"second")  # wraps to sequence 0
    world.run()
    for i in range(10):
        payloads = [p for _, p in seen[f"n{i}", "bc0"]]
        assert payloads == [b"first", b"second"]


def test_rfd_delivers_but_does_not_reflood():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("r", NodeRole.RFD, 2)
    world.add_node("b", NodeRole.FFD, 3)
    world.add_link("a", "r")
    world.add_link("r", "b")
    seen = watch(world)
    world.broadcast(0.0, "a", b"x", hops=8)
    world.run()
    assert len(seen["r", "bc0"]) == 1
    assert seen["b", "bc0"] == []  # r refuses to re-flood
    assert forwards_of(world, "r") == []


# --- sleep, loss, timing --------------------------------------------------------

def test_sleep_gating():
    world = World(seed=0)
    world.add_node("a", NodeRole.COORDINATOR, 1)
    world.add_node("s", NodeRole.RFD, 2, sleep=SleepSchedule(awake=1.0, asleep=1.0))
    world.add_link("a", "s")
    seen = watch(world)
    world.send_udp(0.2, "a", "s", 1, 2, b"awake")
    world.send_udp(1.2, "a", "s", 1, 2, b"asleep")
    world.run()
    assert len(seen["s", "ipv6"]) == 1
    asleep = drops_of(world, "asleep")
    assert len(asleep) == 1 and asleep[0].node == "s"
    # the invariant: no tx/rx trace row shows a sleeping node
    for record in world.trace:
        if record.kind in ("tx", "rx"):
            assert world.nodes[record.node].is_awake(record.time)


def test_a_sleep_schedule_needs_a_positive_period():
    world = World(seed=0)
    with pytest.raises(ValueError, match="period > 0"):  # refused before the run reaches is_awake
        world.add_node("s", NodeRole.FFD, 1, sleep=SleepSchedule(0.0, 0.0))
    for awake, asleep in [(1.0, -1.0), (-1.0, 2.0), (math.nan, 1.0), (1.0, math.nan)]:
        with pytest.raises(ValueError, match="period > 0"):
            SleepSchedule(awake, asleep)
    with pytest.raises(ValueError, match="period > 0"):  # no other way to build one skips the check
        SleepSchedule(1.0, 1.0)._replace(awake=0.0, asleep=0.0)


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
    seen = watch(world)
    world.send_udp(0.0, "a", "b", 1, 2, b"x")
    world.run()
    assert seen["b", "ipv6"] == []
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

    assert list(run(42)) == list(run(42))
    assert list(run(42)) != list(run(43))  # 2^-20 chance of a false failure


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
    seen = watch(world)
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, payload, hops=8)
    world.run()
    packets = seen["d", "ipv6"]
    assert len(packets) == 1
    assert decode_udp(packets[0][1].payload).payload == payload
    assert any(r.kind == "frag-start" for r in world.trace)
    assert any(r.kind == "reasm-complete" and r.node == "d" for r in world.trace)


def test_a_completed_reassembly_releases_its_pieces():
    world = make_line()
    world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, bytes(900), hops=8)
    world.run_until(1.0)
    assert any(r.kind == "reasm-complete" and r.node == "d" for r in world.trace)
    deadlines = [event for _, _, event in world._queue if event[0] == world._reassembly_deadline]
    assert deadlines  # each deadline stays queued for the whole window
    for _, node, key, buffer in deadlines:
        assert key not in node.reassembly and buffer.received == {}


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
    seen = watch(world)
    world.send_udp(0.0, "a", "b", 1, 2, bytes(200))
    world.run()
    assert len(seen["b", "ipv6"]) == 1
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
    assert list(first.trace_lines()) == list(second.trace_lines())
    assert first.metrics_lines() == second.metrics_lines()


def test_trace_holds_each_detail_once_and_renders_lazily(scenario_dir):
    world, t_end = load_scenario((scenario_dir / "demo.scn").read_text())
    world.run_until(t_end)
    lines = world.trace_lines()
    assert iter(lines) is lines  # an iterator: no second copy of the trace is built
    # one object per distinct detail text, however many records carry it
    assert len({id(r.detail) for r in world.trace}) == len({r.detail for r in world.trace})
    assert len({r.detail for r in world.trace}) < len(world.trace)
    assert len(list(lines)) == len(world.trace)


def test_a_trace_record_costs_under_48_octets():
    world = World()
    nodes = [f"n{i}" for i in range(4)]
    details = [f"dst=n{i} seq={i}" for i in range(8)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100_000):
            world.now = i * 0.001  # a fresh float per record, as a run makes
            world.record(nodes[i % 4], "tx", details[i % 8], 64)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / 100_000 < 48  # columns: 8 octets of time, 4 each for node, kind, detail, nbytes
    assert len(world.trace) == 100_000
    assert [(r.time, r.node, r.detail) for r in world.trace] == [
        (i * 0.001, nodes[i % 4], details[i % 8]) for i in range(100_000)
    ]


@pytest.mark.parametrize("source", ["demo", "gateway-mix-small"])
def test_trace_records_round_trip_through_the_columns(scenario_dir, source):
    if source == "demo":
        text = (scenario_dir / "demo.scn").read_text()
    else:
        text = _workloads()["gateway-mix"](1, small=True)
    world, t_end = load_scenario(text)
    world.run_until(t_end)
    records = list(world.trace)
    assert len(records) == len(world.trace) > 0
    assert [_TRACE_LINE % r for r in records] == list(world.trace_lines())
    assert all(type(r) is TraceRecord and type(r.time) is float and type(r.nbytes) is int for r in records)


def test_trace_keeps_the_largest_byte_counts_exact():
    world = World()
    world.add_host("h1", IPv6Address("fd00::1"))
    world.add_host("h2", IPv6Address("fd00::2"))
    world.send_udp(0.5, "h1", "h2", 1, 2, bytes(65_527))  # the largest UDP payload
    world.run()
    records = list(world.trace)
    assert (0.5, "h1", "send", "kind=udp to=fd00::2", 65_527) in records
    assert (0.5, "h1", "wired-tx", "dst=fd00::2 nh=17", 65_535) in records  # UDP header included
    assert [_TRACE_LINE % r for r in records] == list(world.trace_lines())


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


@pytest.mark.parametrize("send, message", [
    (lambda world: world.send_udp(0.0, "a", "b", 0x10000, 1, b"x"), "src_port out of range: 65536"),
    (lambda world: world.send_udp(0.0, "a", "b", 1, 0x10000, b"x"), "dst_port out of range: 65536"),
    (lambda world: world.send_app(0.0, "a", 0x10000, 1, b"x"), "src_devid out of range: 65536"),
    (lambda world: world.send_nwk(0.0, "a", 0x10000, b"x"), "dst_short out of range: 65536"),
    (lambda world: world.send_udp(0.0, "a", "b", 1, 2, b"x", hops=16), "hops_left out of range: 16"),
    (lambda world: world.broadcast(0.0, "a", b"x", hops=16), "hops_left out of range: 16"),
    (lambda world: World(default_hops=16), "hops_left out of range: 16"),
    (lambda world: World(default_hops=-1), "hops_left out of range: -1"),
], ids=[
    "udp-src-port", "udp-dst-port", "app-src-devid", "nwk-dst-short", "udp-hops", "broadcast-hops",
    "default-hops-16", "default-hops-negative",
])
def test_a_header_field_out_of_range_is_refused_at_the_call(send, message):
    # the message the header built from the field gives; nothing is queued
    world = make_line()
    raises_exactly(ValueError, message, lambda: send(world))
    world.run()
    assert list(world.trace) == [] and world.metrics == {}


def test_a_world_pan_id_is_16_bits():
    # refused with the message `Short16` gives for an address in that PAN
    for pan_id in (0x10000, -1):
        raises_exactly(ValueError, f"pan_id out of range: {pan_id}", lambda: World(pan_id=pan_id))
    for pan_id in (0, 0xFFFF):
        assert World(pan_id=pan_id).pan_id == pan_id


# --- drop branches that need no random draw ----------------------------------

def _drops(world):
    """The drop records as (node, detail), and the drop counters."""
    return ([(r.node, r.detail) for r in world.trace if r.kind == "drop"],
            {key: value for key, value in world.metrics.items() if key.startswith("drops")})


def _mesh(orig, final, payload=b"\x41data") -> bytes:
    """A mesh-wrapped MAC payload from `orig` to `final`, 4 hops left."""
    return encode_mesh(MeshHeader(orig.wpan_address, final, 4)) + payload


@pytest.mark.parametrize("pin, reason, detail", [
    ("0x0009", "no-such-node", "dst=0x0009"),  # no node has the pinned short
    ("0x0003", "no-link", "dst=c"),  # c is no neighbour of a
])
def test_a_route_pinned_past_the_neighbours_drops_at_the_radio(pin, reason, detail):
    world, _ = load_scenario(
        "[node a]\nshort = 1\n[node b]\nshort = 2\n[node c]\nshort = 3\n[link a b]\n[link b c]\n"
        f"[route a]\n0x0003 = {pin}\n[traffic]\nat=0 kind=udp from=a to=c size=4\n"
    )
    world.run()
    assert _drops(world) == ([("a", f"reason={reason} {detail}")], {"drops": 1, f"drops_{reason}": 1})
    assert not [r for r in world.trace if r.kind == "tx"]


def test_a_frame_failing_its_fcs_is_a_malformed_frame_drop():
    world = make_line()
    a, b = world.node("a"), world.node("b")
    psdu = bytearray(encode_mac_frame(MacFrame(FrameType.DATA, 0, a.wpan_address, b.wpan_address, payload=b"x")))
    psdu[-1] ^= 0xFF
    world.schedule(0.0, (world._rx_event, b, bytes(psdu)))
    world.run()
    fcs, computed = int.from_bytes(psdu[-2:], "big"), crc16(bytes(psdu[:-2]))
    detail = f"reason=malformed-frame FCS 0x{fcs:04X} does not match computed 0x{computed:04X}"
    assert _drops(world) == ([("b", detail)], {"drops": 1, "drops_malformed-frame": 1})
    assert "frames_rx" not in world.metrics


@pytest.mark.parametrize("payload, reason, detail", [
    (lambda a: b"", "empty-payload", ""),  # no dispatch octet at all
    # an EUI-64 final other than b's, which `SimNode.matches` tells apart; b forwards only toward shorts
    (lambda a: _mesh(a, Eui64(bytes.fromhex("0050c20000000009"))), "no-route", " detail=eui-final"),
    (lambda a: _mesh(a, Short16(a.pan_id, 0x0009)), "no-route", " final=0x0009"),  # no node has the short
], ids=["empty-payload", "eui-final", "short-final"])
def test_a_frame_b_cannot_take_or_pass_on_is_dropped(payload, reason, detail):
    world = make_line()  # one PAN and no gateway: nothing to fall back to
    a, b = world.node("a"), world.node("b")
    world.schedule(0.0, (world._transmit, a, b.short, payload(a)))
    world.run()
    assert _drops(world) == ([("b", f"reason={reason}{detail}")], {"drops": 1, f"drops_{reason}": 1})
    assert world.metrics["frames_rx"] == 1 and not forwards_of(world, "b")


def test_a_final_short_with_no_node_goes_toward_the_gateway():
    world = _receiver_world("border")  # n2 - n1 - gw
    n1, n2 = world.node("n1"), world.node("n2")
    world.schedule(0.0, (world._transmit, n2, n1.short, _mesh(n2, Short16(n2.pan_id, 0x0009))))
    world.run()
    assert [r.detail for r in forwards_of(world, "n1")] == ["final=0x0009 hops=3"]
    assert [(r.node, r.detail) for r in world.trace if r.kind == "tx"] == [("n2", "dst=n1"), ("n1", "dst=gw")]
    # the gateway has nowhere further to send it
    assert _drops(world) == ([("gw", "reason=no-route final=0x0009")], {"drops": 1, "drops_no-route": 1})


def test_a_nwk_frame_for_another_short_is_a_nwk_not_mine_drop():
    world = _receiver_world("zigbee")  # n1 and n2 run the NWK stack of their zigbee gateway
    n1, n2 = world.node("n1"), world.node("n2")
    world.schedule(0.0, (world._transmit, n1, n2.short, NwkFrame(dst_short=0x0042, src_short=n1.short).encode()))
    world.run()
    assert n2.stack == "nwk"
    assert _drops(world) == ([("n2", "reason=nwk-not-mine dst=0x0042")], {"drops": 1, "drops_nwk-not-mine": 1})
    assert not [r for r in world.trace if r.kind == "deliver"]


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


def _two_pans_a_host_and_a_bare_pan() -> World:
    """PAN 0xBEEF: a2 - a1 - gateway gwa (2001:db8:a::); PAN 0x1234: b1 - gwb
    (2001:db8:b::); c1 alone in PAN 0x4321, with no gateway; host h."""
    world = World()
    world.add_gateway("gwa", 0x00FE, GatewayMode.BORDER, IPv6Address("fd00::a"), prefix=IPv6Address("2001:db8:a::"))
    world.add_node("a1", NodeRole.FFD, 0x0001)
    world.add_node("a2", NodeRole.FFD, 0x0002)
    world.add_link("a1", "a2")
    world.add_link("a1", "gwa")
    world.add_gateway(
        "gwb", 0x00FE, GatewayMode.BORDER, IPv6Address("fd00::b"), prefix=IPv6Address("2001:db8:b::"), pan_id=0x1234
    )
    world.add_node("b1", NodeRole.FFD, 0x0001, pan_id=0x1234)
    world.add_link("b1", "gwb")
    world.add_node("c1", NodeRole.FFD, 0x0001, pan_id=0x4321)
    world.add_host("h", IPv6Address("fd00::99"))
    return world


LL = "fe80::200:beff:feef:"  # link-local, IID from PAN 0xBEEF and the short
GA = "2001:db8:a:0:200:beff:feef:"  # global in gwa's prefix
GB = "2001:db8:b:0:200:12ff:fe34:"  # global in gwb's prefix


@pytest.mark.parametrize("src, dst, records", [
    ("a1", "a2", [("a1", "send", f"kind=udp to={LL}2"), ("a2", "deliver", f"kind=ipv6 from={LL}1")]),
    ("a1", "b1", [("a1", "send", f"kind=udp to={GB}1"), ("gwb", "wired-rx", f"src={GA}1 nh=17"),
                  ("b1", "deliver", f"kind=ipv6 from={GA}1")]),
    ("a1", "gwa", [("a1", "send", "kind=udp to=fd00::a"), ("gwa", "wired-rx", f"src={GA}1 nh=17"),
                   ("gwa", "drop", "reason=no-such-node dst=fd00::a")]),
    ("gwa", "a1", [("gwa", "send", f"kind=udp to={LL}1"), ("a1", "deliver", f"kind=ipv6 from={LL}fe")]),
    ("h", "a1", [("h", "send", f"kind=udp to={GA}1"), ("gwa", "wired-rx", "src=fd00::99 nh=17"),
                 ("a1", "deliver", "kind=ipv6 from=fd00::99")]),
    ("a1", "h", [("a1", "send", "kind=udp to=fd00::99"), ("h", "wired-rx", f"src={GA}1 nh=17"),
                 ("h", "deliver", f"kind=ipv6 from={GA}1")]),
    ("c1", "a1", [("c1", "drop", "reason=no-prefix to=a1")]),
], ids=["node-to-node-one-pan", "node-to-node-across-pans", "node-to-its-gateway", "gateway-to-its-node",
        "host-to-node", "node-to-host", "prefix-less-source-across-pans"])
def test_each_end_of_a_udp_send_is_named_by_the_addressing_rule(src, dst, records):
    # link-local when both ends are nodes of one PAN and the destination is no
    # gateway, else global; a host by its address, a gateway by its wired one
    world = _two_pans_a_host_and_a_bare_pan()
    world.send_udp(0.0, src, dst, 1, 2, b"x")
    world.run()
    kinds = ("send", "wired-rx", "deliver", "drop")
    assert [(r.node, r.kind, r.detail) for r in world.trace if r.kind in kinds] == records


@pytest.mark.parametrize("order", [("gz", "gy", "gx"), ("gy", "gx", "gz")], ids=["reverse", "mixed"])
def test_gateway_lookups_answer_the_first_owner_whatever_the_insertion_order(order):
    world = make_line()
    prefix = IPv6Address("2001:db8:a::")
    gateways = {  # gz and gx claim the default PAN and its prefix
        "gz": dict(short=0x00FD, wired_addr=IPv6Address("fd00::c"), prefix=prefix),
        "gy": dict(short=0x00FE, wired_addr=IPv6Address("fd00::b"), pan_id=0x1234),
        "gx": dict(short=0x00FC, wired_addr=IPv6Address("fd00::a"), prefix=prefix),
    }
    owner, refused = [gw_id for gw_id in order if gw_id != "gy"]  # the first of gz and gx keeps the PAN
    for gw_id in order:
        if gw_id == refused:
            with pytest.raises(ValueError, match=f"PAN 0xBEEF already has gateway '{owner}'"):
                world.add_gateway(gw_id, mode=GatewayMode.BORDER, **gateways[gw_id])
        else:
            world.add_gateway(gw_id, mode=GatewayMode.BORDER, **gateways[gw_id])
    assert refused not in world.nodes
    world.add_host("h", IPv6Address("fd00::99"))
    assert world.segment_gateway(world.pan_id).id == owner
    assert world.segment_gateway(0x1234).id == "gy"
    assert world.segment_gateway(0x4321) is None
    world.send_udp(0.0, "h", "a", 1, 2, b"x")  # to a's global address, in the owner's prefix
    world.run()
    assert [r.node for r in world.trace if r.kind == "wired-rx"] == [owner]


def _owners_world() -> World:
    """g1 owns the default PAN, fd00::a and 2001:db8:a::; h owns fd00::99; x and y sit in PAN 0x1234."""
    world = make_line()
    world.add_gateway("g1", 0x00FE, GatewayMode.BORDER, IPv6Address("fd00::a"), prefix=IPv6Address("2001:db8:a::"))
    world.add_host("h", IPv6Address("fd00::99"))
    world.add_node("x", NodeRole.FFD, 0x0001, pan_id=0x1234)
    world.add_node("y", NodeRole.FFD, 0x0002, pan_id=0x1234, eui=netsim.synth_eui(0x1234, 0x00FD))
    return world


FREE = dict(wired_addr=IPv6Address("fd00::c"), pan_id=0x1234)  # a gateway of PAN 0x1234 at short 0x00FD


@pytest.mark.parametrize("add, message", [
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, IPv6Address("fd00::c")),
     "PAN 0xBEEF already has gateway 'g1'"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, **{**FREE, "wired_addr": IPv6Address("fd00::99")}),
     "wired address fd00::99 already belongs to 'h'"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, **{**FREE, "wired_addr": IPv6Address("fd00::a")}),
     "wired address fd00::a already belongs to 'g1'"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, prefix=IPv6Address("2001:db8:a::1"), **FREE),
     "prefix 2001:db8:a::1 is already delegated to 'g1'"),
    (lambda w: w.add_gateway("g2", 0x0001, GatewayMode.BORDER, **FREE), "short 0x0001 already used in PAN 0x1234"),
    (lambda w: w.add_gateway("x", 0x00FC, GatewayMode.BORDER, **FREE), "duplicate id 'x'"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, **FREE),  # y pins g2's EUI-64
     "interface identifier 02124b00123400fd already names 'y' in PAN 0x1234"),
    (lambda w: w.add_host("h2", IPv6Address("fd00::99")), "wired address fd00::99 already belongs to 'h'"),
    (lambda w: w.add_host("h2", IPv6Address("fd00::a")), "wired address fd00::a already belongs to 'g1'"),
    (lambda w: w.add_node("g2", NodeRole.COORDINATOR, 0x00FD), "PAN 0xBEEF has coordinator 'a'"),
], ids=["second-gateway-in-a-pan", "wired-of-a-host", "wired-of-a-gateway", "prefix-delegated", "short-taken",
        "id-taken", "eui-taken", "host-on-a-host", "host-on-a-gateway", "second-coordinator-in-a-pan"])
def test_a_refused_claim_leaves_no_node_or_index_entry_behind(add, message):
    world = _owners_world()
    before = indexes(world)
    with pytest.raises(ValueError, match=re.escape(message)):
        add(world)
    assert indexes(world) == before
    assert "g2" not in world.nodes and "h2" not in world.hosts


@pytest.mark.parametrize("add, message", [
    (lambda w: w.add_node("n", "ffd", 0x0010), "role must be a NodeRole, not str"),
    (lambda w: w.add_node("n", NodeRole.FFD, 0x0010, security="none"), "security must be a SecurityMode, not str"),
    (lambda w: w.add_node("n", NodeRole.FFD, 0x0010, sleep=(1.0, 1.0)),
     "sleep must be a SleepSchedule or None, not tuple"),
    (lambda w: w.add_link("x", "y", band="2450"), "band must be a PhyBand, not str"),
    (lambda w: w.add_gateway("g2", 0x00FD, "border", **FREE), "mode must be a GatewayMode, not str"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, "fd00::c", pan_id=0x1234),
     "wired_addr must be an IPv6Address, not str"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, prefix="2001:db8:c::", **FREE),
     "prefix must be an IPv6Address or None, not str"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, subscribers=(IPv6Address("fd00::99"), "fd00::98"),
                             **FREE), "subscribers[1] must be an IPv6Address, not str"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BRIDGE, tunnel_peer="fd00::99", **FREE),
     "tunnel_peer must be an IPv6Address or None, not str"),
    (lambda w: w.add_host("h2", "fd00::98"), "addr must be an IPv6Address, not str"),
    (lambda w: World(pan_id=1.0), "pan_id must be an int, not float"),
    (lambda w: w.add_node("n", NodeRole.FFD, 2.0), "short must be an int, not float"),
    (lambda w: w.add_node("n", NodeRole.FFD, 0x0010, pan_id=1.0), "pan_id must be an int or None, not float"),
    (lambda w: w.add_node("n", NodeRole.FFD, 0x0010, eui="abcdefgh"), "eui must be bytes or None, not str"),
    (lambda w: w.add_node("n", NodeRole.FFD, 0x0010, eui=bytearray(8)), "eui must be bytes or None, not bytearray"),
    (lambda w: w.add_gateway("g2", 253.0, GatewayMode.BORDER, **FREE), "short must be an int, not float"),
    (lambda w: w.add_gateway("g2", 0x00FD, GatewayMode.BORDER, IPv6Address("fd00::c"), pan_id=1.0),
     "pan_id must be an int or None, not float"),
    (lambda w: w.add_link("x", "y", loss="0.5"), "loss must be an int or float, not str"),
], ids=["role", "security", "sleep", "band", "mode", "wired_addr", "prefix", "subscribers", "tunnel_peer", "addr",
        "world-pan_id", "short", "pan_id", "eui-text", "eui-bytearray", "gateway-short", "gateway-pan_id", "loss"])
def test_an_argument_of_the_wrong_type_is_refused_and_stores_nothing(add, message):
    world = _owners_world()
    before = indexes(world), {node_id: dict(ends) for node_id, ends in world.neighbors.items()}
    raises_exactly(TypeError, message, lambda: add(world))
    assert (indexes(world), {node_id: dict(ends) for node_id, ends in world.neighbors.items()}) == before
    assert "n" not in world.nodes and "g2" not in world.nodes and "h2" not in world.hosts


@pytest.mark.parametrize("reverse", [False, True], ids=["in-id-order", "reverse"])
def test_wired_delivery_takes_the_exact_address_before_a_prefix(reverse):
    world = make_line()
    gateways = [  # (id, short, wired address, keyword arguments)
        ("g1", 0x00FE, IPv6Address("fd00::b%eth0"), dict(pan_id=0x2345)),
        ("g2", 0x00FE, IPv6Address("fd00::b"), dict(pan_id=0x3456)),
        ("g3", 0x00FE, IPv6Address("fd00::b"), dict(pan_id=0x4567)),  # claims g2's address
        ("gx", 0x00FC, IPv6Address("fd00::a"), dict(prefix=IPv6Address("2001:db8:a::"))),
        # gy's wired address lies inside gx's prefix
        ("gy", 0x00FD, IPv6Address("2001:db8:a::ff"), dict(pan_id=0x1234)),
    ]
    owner = "g3" if reverse else "g2"  # the first of g2 and g3 added owns fd00::b
    for gw_id, short, wired, kwargs in reversed(gateways) if reverse else gateways:
        if gw_id in ("g2", "g3") and gw_id != owner:
            with pytest.raises(ValueError, match=f"wired address fd00::b already belongs to '{owner}'"):
                world.add_gateway(gw_id, short, GatewayMode.BORDER, wired, **kwargs)
        else:
            world.add_gateway(gw_id, short, GatewayMode.BORDER, wired, **kwargs)
    world.add_host("h", IPv6Address("fd00::99"))
    world.send_udp(0.0, "h", "gy", 1, 2, b"x")  # to 2001:db8:a::ff: gy's own address, not gx's prefix
    world.send_udp(1.0, "h", "g1", 1, 2, b"x")  # to fd00::b%eth0: only g1's scoped address matches
    world.send_udp(2.0, "h", owner, 1, 2, b"x")  # to fd00::b: its one owner, not g1
    scoped = udp_packet(IPv6Address("fd00::99"), IPv6Address("fd00::b%eth1"), 1, 2, b"x")
    world.schedule(3.0, (world.wired_send, "h", scoped))
    world.send_udp(4.0, "h", "a", 1, 2, b"x")  # to a's global address, in gx's prefix
    world.run()
    assert [(r.time, r.node) for r in world.trace if r.kind == "wired-rx"] == [
        (0.001, "gy"), (1.001, "g1"), (2.001, owner), (4.001, "gx"),
    ]
    assert [r.detail for r in drops_of(world, "no-wired-route")] == ["reason=no-wired-route dst=fd00::b%eth1"]


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


def trace_kind_writers(source: str) -> list[tuple[str, str]]:
    """(kind, enclosing class.function) for each "deliver" or "drop" string in `source`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Constant) and child.value in ("deliver", "drop"):
                found.append((child.value, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_deliver_and_drop_write_their_trace_kinds():
    inline = 'class World:\n    def _rx(self):\n        self.record(n, "deliver", f"kind=x")\n'
    assert trace_kind_writers(inline) == [("deliver", "World._rx")]
    source = Path(netsim.__file__).read_text()
    assert trace_kind_writers(source) == [("drop", "World._drop"), ("deliver", "World._deliver")]


@pytest.mark.parametrize("source, fault", [
    ("self._drop(n, reason_of(exc))", "neither a literal"),
    ("self.schedule(t, (self._drop, n))", "not called or queued with a reason"),
    ("drop = self._drop", "not called or queued with a reason"),
    ("self._drop(n, exc.reason)", "not the exception"),
    ("try:\n    f()\nexcept CodecError as exc:\n    self._drop(n, exc.reason)", "CodecError declares no reason"),
])
def test_a_drop_reason_handed_over_any_other_way_is_refused(source, fault):
    with pytest.raises(AssertionError, match=fault):
        drop_reasons(source)


def test_readme_lists_the_closed_set_of_drop_reasons():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Drop reasons", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"(?m)^\* `([a-z-]+)` \(", block)
    assert len(listed) == len(set(listed))
    assert set(listed) == drop_reasons()
    assert {"loss", "codec-error", "unknown-devid", "payload-over-budget"} <= drop_reasons()


def test_metrics_lines_shape():
    world = make_line()
    world.send_udp(0.0, "a", "d", 1, 2, b"x", hops=8)
    world.run()
    metrics = dict(line.split("=") for line in world.metrics_lines())
    assert metrics["sent"] == "1"
    assert metrics["delivered"] == "1"
    assert metrics["delivery_ratio"] == "1"
    assert "mean_header_overhead" in metrics


def _receiver_world(mode: str) -> World:
    """A gateway `gw` of `mode`, its subscriber host and two nodes: n2 - n1 - gw."""
    world, _ = load_scenario(
        "[host h]\naddr = fd00::99\ndevid = 9\n"
        f"[gateway gw]\nmode = {mode}\nshort = 0x00FE\nwired = fd00::a\nprefix = 2001:db8:a::\n"
        "subscribers = h\npeer = fd00::b\n"
        "[node n1]\nshort = 1\ndevid = 1\n[node n2]\nshort = 2\nrole = rfd\n"
        "[link n1 gw]\n[link n1 n2]\n"
    )
    return world


@pytest.mark.parametrize("mode, send, detail", [
    ("border", lambda world: world.send_udp(0.0, "n1", "h", 1, 2, b"x"), "mode=border dir=up dst=fd00::99"),
    ("border", lambda world: world.send_udp(0.0, "h", "n1", 1, 2, b"x"), f"mode=border dir=down dst={GA}1"),
    ("border", lambda world: world.broadcast(0.0, "n1", b"x"), "mode=border dir=bcast dst=fd00::99"),
    ("devid", lambda world: world.send_app(0.0, "n1", 1, 9, b"x"), "mode=devid dir=up dst=fd00::99"),
    ("devid", lambda world: world.send_udp(0.0, "h", "gw", 0xF0B0, 0xF0B0, AppHeader(9, 1).encode() + b"x"),
     "mode=devid dir=down dst=0x0001"),
], ids=["border-up", "border-down", "border-bcast-relay", "devid-up", "devid-down"])
def test_each_translation_writes_one_gw_translate_record_and_counts_up_and_down(mode, send, detail):
    world = _receiver_world(mode)
    send(world)
    world.run()
    assert [(r.node, r.detail) for r in world.trace if r.kind == "gw-translate"] == [("gw", detail)]
    assert world.metrics.get("gw_translations", 0) == (0 if "dir=bcast" in detail else 1)


# MAC payloads: any octets, and octets behind each first octet the receive stacks tell apart
MAC_PAYLOADS = st.binary(max_size=110) | st.builds(
    lambda head, rest: bytes([head]) + rest,
    st.sampled_from([0x00, 0x08, 0x41, 0x42, 0x50, 0x80, 0xBF, 0xC0, 0xC5, 0xE0, 0xE5, 0xFF]),
    st.binary(max_size=109),
)


@pytest.mark.parametrize("receiver", ["gw", "n1"], ids=["at-gateway", "at-node"])
@pytest.mark.parametrize("mode", ["border", "devid", "zigbee", "bridge"])  # stacks lowpan, app, nwk, nwk
@settings(max_examples=60, deadline=None)
@given(payload=MAC_PAYLOADS)
@example(payload=bytes.fromhex("c0000001"))  # FRAG1 of an empty datagram
def test_any_mac_payload_ends_in_a_trace_record_not_an_exception(mode, receiver, payload):
    world = _receiver_world(mode)
    sender = world.node("n1" if receiver == "gw" else "gw")
    world.schedule(0.0, (world._transmit, sender, world.node(receiver).short, payload))
    world.run()
    check_counter_laws(world)
