"""One rule set for a send: `World`'s send calls decide whether a send is
legal, and the scenario loader reports a refused send at its traffic line."""

from ipaddress import IPv6Address

import pytest
from counter_laws import check_counter_laws
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from lowpan.frame import SecurityMode
from lowpan.gateway import GatewayMode
from lowpan.netsim import MAX_PAYLOAD, NodeRole, SleepSchedule, World
from lowpan.scenario import ScenarioError, load_scenario

# nodes a and b, a host and a border gateway; a refused line is line 15
WORLD = (
    "[gateway gw]\nmode = border\nshort = 0x00FE\nwired = fd00::a\nprefix = 2001:db8:a::\n"
    "[node a]\nshort = 1\n[node b]\nshort = 2\n[link a b]\n[link a gw]\n[host h]\naddr = fd00::99\n[traffic]\n"
)
LINE = WORLD.count("\n") + 1


def owners(world: World) -> tuple:
    """Copies of what a refused call must leave as it was: the queue, the ids,
    the owner maps, the radio graph and each gateway's peer pool."""
    return (
        list(world._queue), dict(world.nodes), dict(world.hosts), dict(world.by_addr), dict(world.by_iid),
        dict(world._pan_gateway), dict(world._pan_coordinator), dict(world._wired_owner), dict(world._prefix_gateway),
        {node_id: dict(ends) for node_id, ends in world.neighbors.items()},
        {node.id: dict(node.gateway.mapping.short_by_peer) for node in world._pan_gateway.values()},
    )


@pytest.mark.parametrize("call, line, message", [
    (lambda world: world.send_udp(0.0, "zz", "a", 1, 2, b"x"), "at=0 kind=udp from=zz to=a size=1",
     "unknown sender 'zz'"),
    (lambda world: world.broadcast(0.0, "zz", b"x"), "at=0 kind=broadcast from=zz size=1", "unknown sender 'zz'"),
    (lambda world: world.send_udp(0.0, "a", "zz", 1, 2, b"x"), "at=0 kind=udp from=a to=zz size=1",
     "unknown udp destination 'zz'"),
    (lambda world: world.send_udp(0.0, "h", "zz", 1, 2, b"x"), "at=0 kind=udp from=h to=zz size=1",
     "unknown udp destination 'zz'"),
    (lambda world: world.broadcast(0.0, "h", b"x"), "at=0 kind=broadcast from=h size=1",
     "broadcast traffic must start at a node, not host 'h'"),
    (lambda world: world.send_app(0.0, "h", 0, 1, b"x"), "at=0 kind=app from=h todevid=1 size=1",
     "app traffic must start at a node, not host 'h'"),
    (lambda world: world.send_nwk(0.0, "h", 1, b"x"), "at=0 kind=nwk from=h dst=1 size=1",
     "nwk traffic must start at a node, not host 'h'"),
    (lambda world: world.apl_destination("h", "a"), "at=0 kind=apl from=h to=a size=1",
     "apl traffic must start at a node, not host 'h'"),
    (lambda world: world.send_apl(0.0, "h", 1, b"x"), "at=0 kind=apl from=h to=a size=1",
     "apl traffic must start at a node, not host 'h'"),
    (lambda world: world.send_udp(0.0, "a", "b", 1, 2, bytes(70_000)), "at=0 kind=udp from=a to=b hex=" + "00" * 70_000,
     "payload of 70000 octets is over 65527"),
    (lambda world: world.broadcast(0.0, "a", bytes(MAX_PAYLOAD + 1)),
     "at=0 kind=broadcast from=a hex=" + "00" * (MAX_PAYLOAD + 1), "payload of 65528 octets is over 65527"),
    (lambda world: world.send_udp(float("nan"), "a", "b", 1, 2, b"x"), "at=nan kind=udp from=a to=b size=1",
     "send time nan is not a finite number >= 0"),
    (lambda world: world.send_udp(-1.0, "a", "b", 1, 2, b"x"), "at=-1 kind=udp from=a to=b size=1",
     "send time -1.0 is not a finite number >= 0"),
    (lambda world: world.send_nwk(float("inf"), "a", 2, b"x"), "at=inf kind=nwk from=a dst=2 size=1",
     "send time inf is not a finite number >= 0"),
    (lambda world: world.send_udp(0.0, "h", "a", 1, 2, b"x", hops=4), "at=0 kind=udp from=h to=a size=1 hops=4",
     "hops applies only to a node's sends, not host 'h'"),
    (lambda world: world.send_udp(0.0, "a", "b", 1, 2, b"x", hops=16), "at=0 kind=udp from=a to=b size=1 hops=16",
     "hops_left out of range: 16"),
    (lambda world: world.send_app(0.0, "a", 0, -1, b"x"), "at=0 kind=app from=a todevid=-1 size=1",
     "dst_devid out of range: -1"),
], ids=[
    "udp-unknown-sender", "broadcast-unknown-sender", "udp-unknown-destination", "host-udp-unknown-destination",
    "broadcast-from-host", "app-from-host", "nwk-from-host", "apl-from-host", "apl-send-from-host", "udp-70000-octets",
    "broadcast-65528-octets", "at-nan", "at-negative", "at-inf", "host-hops", "hops-16", "app-devid-negative",
])
def test_a_send_is_refused_at_the_call_and_at_its_traffic_line(call, line, message):
    world, _ = load_scenario(WORLD + "at=0 kind=udp from=a to=h size=8\n")  # one legal send queued
    before = owners(world)
    with pytest.raises(ValueError) as caught:
        call(world)
    assert (caught.type, str(caught.value)) == (ValueError, message)
    assert owners(world) == before
    world.run()  # the queued send runs; nothing refused reaches the run
    check_counter_laws(world)
    with pytest.raises(ScenarioError) as caught:
        load_scenario(WORLD + line + "\n")
    assert f"line {LINE}: {message}" in str(caught.value)


@pytest.mark.parametrize("line", [
    "at=0 kind=udp from=a to=b sport=zz size=1", "at=0 kind=udp from=a to=b size=1 hops=zz",
    "at=0 kind=app from=a todevid=zz size=1", "at=0 kind=nwk from=a dst=zz size=1",
])
def test_a_token_that_is_no_number_is_reported_once_at_its_line(line):
    with pytest.raises(ScenarioError) as caught:
        load_scenario(WORLD + line + "\n")
    assert str(caught.value) == f"line {LINE}: not a number: 'zz'"


# --- a stateful model of the World API ------------------------------------------

NAMES = ["n0", "n1", "n2", "g0", "g1", "h0", "h1"]  # the ids the add rules draw
IDS = NAMES + ["zz"]  # the ids the link and send rules draw; zz is never added
PANS = [0xBEEF, 0x1000, -1, 0x10000]
SHORTS = [1, 2, 3, 0xFE, 0, 0xFFFF, -1, 0x10000]
WIRED = [IPv6Address("fd00::a"), IPv6Address("fd00::b"), IPv6Address("fd00::99")]
PREFIXES = [None, IPv6Address("2001:db8:a::"), IPv6Address("2001:db8:b::")]
EUIS = [None, bytes.fromhex("0050c20000000001"), bytes.fromhex("00124b00beef0001"), b"\x00\x50"]
U16_DRAWS = [0, 1, 2, 0xF0B0, 0xFFFF, -1, 0x10000]
HOPS = [None, 0, 1, 8, 15, 16, -1]
SIZES = [0, 1, 40, 96, 1280, MAX_PAYLOAD, MAX_PAYLOAD + 1]
TIMES = [0.0, 0.25, 1.0, 7.5, -1.0, float("nan"), float("inf")]
LOSSES = [0.0, 0.0, 0.3, 1.0, float("nan"), -0.5, 1.5]


class WorldModel(RuleBasedStateMachine):
    """Each call stores or queues, or raises `ValueError` and leaves the world
    as it was; the world then runs to its end under the counter laws."""

    def __init__(self):
        super().__init__()
        self.world = World()

    def _call(self, build):
        """Run `build()`: it stores what it adds, or queues one send, or raises
        `ValueError` with everything `owners` copies left as it was."""
        before = owners(self.world)
        try:
            build()
        except ValueError:
            assert owners(self.world) == before
            return False
        return True

    def _send(self, send):
        queued = len(self.world._queue)
        if self._call(send):
            assert len(self.world._queue) == queued + 1

    @rule(node_id=st.sampled_from(NAMES), role=st.sampled_from(NodeRole), short=st.sampled_from(SHORTS),
          pan=st.sampled_from(PANS), eui=st.sampled_from(EUIS),
          sleep=st.sampled_from([None, SleepSchedule(1.0, 1.0)]), security=st.sampled_from(SecurityMode))
    def add_node(self, node_id, role, short, pan, eui, sleep, security):
        if self._call(lambda: self.world.add_node(
                node_id, role, short, eui=eui, pan_id=pan, sleep=sleep, security=security)):
            assert self.world.nodes[node_id].short == short

    @rule(node_id=st.sampled_from(NAMES), short=st.sampled_from(SHORTS), mode=st.sampled_from(GatewayMode),
          wired=st.sampled_from(WIRED), prefix=st.sampled_from(PREFIXES), pan=st.sampled_from(PANS),
          subscribe=st.booleans())
    def add_gateway(self, node_id, short, mode, wired, prefix, pan, subscribe):
        subscribers = tuple(host.addr for host in self.world.hosts.values()) if subscribe else ()
        if self._call(lambda: self.world.add_gateway(
                node_id, short, mode, wired, prefix=prefix, pan_id=pan, subscribers=subscribers,
                tunnel_peer=WIRED[0])):
            assert self.world.nodes[node_id].gateway.mode is mode

    @rule(host_id=st.sampled_from(NAMES), addr=st.sampled_from(WIRED))
    def add_host(self, host_id, addr):
        if self._call(lambda: self.world.add_host(host_id, addr)):
            assert self.world.hosts[host_id].addr == addr

    @rule(a=st.sampled_from(IDS), b=st.sampled_from(IDS), loss=st.sampled_from(LOSSES))
    def add_link(self, a, b, loss):
        if self._call(lambda: self.world.add_link(a, b, loss=loss)):
            assert self.world.neighbors[a][b] is self.world.neighbors[b][a]

    @rule(at=st.sampled_from(TIMES), src=st.sampled_from(IDS), dst=st.sampled_from(IDS),
          sport=st.sampled_from(U16_DRAWS), dport=st.sampled_from(U16_DRAWS), size=st.sampled_from(SIZES),
          hops=st.sampled_from(HOPS))
    def send_udp(self, at, src, dst, sport, dport, size, hops):
        self._send(lambda: self.world.send_udp(at, src, dst, sport, dport, bytes(size), hops=hops))

    @rule(at=st.sampled_from(TIMES), src=st.sampled_from(IDS), size=st.sampled_from(SIZES),
          hops=st.sampled_from(HOPS))
    def broadcast(self, at, src, size, hops):
        self._send(lambda: self.world.broadcast(at, src, bytes(size), hops=hops))

    @rule(at=st.sampled_from(TIMES), src=st.sampled_from(IDS), src_devid=st.sampled_from(U16_DRAWS),
          dst_devid=st.sampled_from(U16_DRAWS), size=st.sampled_from(SIZES))
    def send_app(self, at, src, src_devid, dst_devid, size):
        self._send(lambda: self.world.send_app(at, src, src_devid, dst_devid, bytes(size)))

    @rule(at=st.sampled_from(TIMES), src=st.sampled_from(IDS), dst=st.sampled_from(U16_DRAWS),
          size=st.sampled_from(SIZES))
    def send_nwk(self, at, src, dst, size):
        self._send(lambda: self.world.send_nwk(at, src, dst, bytes(size)))

    @rule(at=st.sampled_from(TIMES), src=st.sampled_from(IDS), dst=st.sampled_from(IDS), size=st.sampled_from(SIZES))
    def send_apl(self, at, src, dst, size):
        shorts = []  # the short apl_destination assigns, which a refused send leaves assigned
        if self._call(lambda: shorts.append(self.world.apl_destination(src, dst))):
            self._send(lambda: self.world.send_apl(at, src, shorts[0], bytes(size)))

    def teardown(self):
        self.world.run()
        check_counter_laws(self.world)


WorldModel.TestCase.settings = settings(max_examples=100, stateful_step_count=25, deadline=None)
test_world_model = WorldModel.TestCase
