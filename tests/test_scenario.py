"""The scenario loader: generated input loads or is rejected, and the docs list its grammar."""

import gc
import hashlib
import random
import re
import tracemalloc
import weakref
from ipaddress import IPv6Address
from itertools import combinations
from pathlib import Path

import pytest
from counter_laws import check_counter_laws
from hypothesis import given, note, settings
from hypothesis import strategies as st
from test_digests import _workloads

from lowpan import netsim, scenario
from lowpan.frame import PhyBand, SecurityMode
from lowpan.gateway import GatewayMode
from lowpan.netsim import NodeRole, SleepSchedule
from lowpan.scenario import ScenarioError, load_scenario

NODES = ["n0", "n1", "n2", "n3", "n4"]
GATEWAYS = ["g0", "g1"]
HOSTS = ["h0", "h1"]
IDS = NODES + GATEWAYS + HOSTS
SHORTS = {"n0": "0x0001", "n1": "0x0002", "n2": "0x0003", "n3": "4", "n4": "0x0005", "g0": "0x00FE",
          "g1": "0x00FE"}
# MAC payload budgets are 102, 93, 89 and 81 octets, less the mesh, BC0, NWK
# or application header; 65,527 octets is the most a UDP datagram carries
SIZES = ["0", "1", "8", "20", "73", "74", "77", "78", "81", "82", "85", "86", "88", "89", "90", "93",
         "94", "95", "96", "98", "99", "102", "103", "200", "1232", "1233", "2048", "65527"]
DEVIDS = [str(n) for n in range(1, 12)] + ["0", "0xFFFF"]
VALUES = {  # legal values of each key and traffic token
    "seed": ["0", "1", "7", "0x20261017", "-3"],
    "t_end": ["0", "0.5", "2", "5", "60", "1e308"],
    "pan": ["0xBEEF", "0x1000", "0"],
    "hops": ["0", "1", "2", "8", "15"],
    "role": ["coordinator", "ffd", "ffd", "ffd", "rfd", "rfd"],
    "short": list(SHORTS.values()) + ["0xFFFF", "0"],
    # one per node; no synthesized EUI-64 (00:12:4b:00, PAN, short) starts 00:50:c2
    "eui": ["00:50:c2:00:00:00:00:01", "0050c20000000002", "00-50-c2-00-00-00-00-03", "00:50:c2:00:00:00:00:04",
            "0050c20000000005"],
    "sleep": ["1/1", "0.5/0.5", "0/1", "1/0", "0.25/1e-9"],
    "security": ["none", "aes-ccm-32", "aes-ccm-64", "aes-ccm-128"],
    "devid": DEVIDS,
    "mode": ["border", "devid", "zigbee", "bridge"],
    "wired": ["fd00::a", "fd00::b", "fd00::99", "fd00::98"],  # one per host and gateway
    "prefix": ["2001:db8:a::", "2001:db8:b::"],
    "subscribers": ["h0", "h0,h1", "h1"],
    "peer": ["fd00::a", "fd00::b"],
    "band": ["868", "915", "2450"],
    "loss": ["0", "0", "0.2", "1"],
    "at": ["0", "0.1", "0.5", "1", "4.9", "6"],
    "to": IDS,
    "sport": ["0xF0B0", "1", "0xFFFF"],
    "dport": ["0xF0B1", "0xF0BF", "0"],
    "todevid": DEVIDS,
    "dst": list(SHORTS.values()) + ["0xFFFF", "0x0009"],
    "size": SIZES,
    "hex": ["", "00", "0000a5a5", "0009000aa5a5", "a5" * 90, "a5" * 98, "a5" * 103],
}
OWNED = {"addr": "wired", "wired": "wired", "prefix": "prefix", "eui": "eui"}  # key -> its pool of distinct values
BAD = ["nan", "inf", "-inf", "-1", "0x10000", "", "zz", "1e308", "99999999999", "65528", "16", "1.5",
       "0/0", "1", "queen", "ghost", "0011"]
SECTION_FAULTS = ["[nodes n9]", "[general x]", "[traffic x]", "[link n0]", "[route]", "[gateway]"]


def scenario_text(rnd: random.Random) -> str:
    """A scenario over a few nodes, gateways and hosts with every section kind and traffic kind.

    Values are legal but for an occasional out-of-range, unknown or repeated one.  Wired
    addresses, prefixes and EUI-64s are drawn without repeats, but for one repeated on
    purpose about 1% of the time, which the loader refuses where it shares an owner.  Each
    deliberate fault is drawn rarely enough that most scenarios load (about 2 in 3 of
    seeds 0-2999), so that most draws run the simulator.
    """
    hosts = rnd.sample(HOSTS, rnd.randint(0, 2))
    gateways = rnd.sample(GATEWAYS, rnd.randint(0, 2))
    nodes = rnd.sample(NODES, rnd.randint(1, 5))
    pans = {"g0": "0xBEEF", "g1": "0x1000"}
    fresh = {pool: rnd.sample(VALUES[pool], len(VALUES[pool])) for pool in dict.fromkeys(OWNED.values())}
    drawn = {pool: [] for pool in fresh}

    def owned(key):
        """A value of `key` no section has drawn yet, or about 1% of the time one it has."""
        pool = OWNED[key]
        if drawn[pool] and rnd.random() < 0.01:
            return rnd.choice(drawn[pool])
        drawn[pool].append(fresh[pool].pop())
        return drawn[pool][-1]

    def value(key, usual=None):
        if rnd.random() < 0.002:
            return rnd.choice(BAD)
        if usual is not None and (key in OWNED or rnd.random() < 0.99):
            return usual
        return rnd.choice(VALUES.get(key, ["1"]))

    def section(kind, ids, **usual):
        """Required keys, keys with a usual value and a random share of the others."""
        required, optional = scenario._SECTIONS[kind][1:]
        keys = [key for key in optional if key in usual or rnd.random() < 0.4]
        keys = list(required) + [key for key in keys if usual.get(key, "") is not None]
        if rnd.random() < 0.003:
            keys.append(rnd.choice(["sleeep", "hops", "addr"]))  # unknown or given twice
        return [f"[{' '.join([kind, *ids])}]"] + [f"{key} = {value(key, usual.get(key))}" for key in keys]

    def traffic():
        kinds = list(scenario._TRAFFIC) + ["udp", "udp"] + ["multicast"] * (rnd.random() < 0.02)
        if not gateways and rnd.random() < 0.9:  # apl needs a gateway in the sender's segment
            kinds.remove("apl")
        kind = rnd.choice(kinds)
        required, optional = scenario._TRAFFIC.get(kind, ((), ()))
        senders = hosts if kind == "udp" and rnd.random() < 0.3 or rnd.random() < 0.02 else nodes + gateways
        sender = rnd.choice(senders or nodes) if rnd.random() > 0.003 else "ghost"
        if sender in hosts and rnd.random() > 0.01:  # only a node has a hops budget, but for a rare fault
            optional = tuple(token for token in optional if token != "hops")
        tokens = ["at", *required, *rnd.sample(optional, rnd.randint(0, len(optional)))]
        tokens.append("hex" if rnd.random() < 0.2 else "size")
        if rnd.random() < 0.003:
            tokens.append(rnd.choice(["hop", "at", "size"]))
        fields = [f"{token}={value(token, rnd.choice(nodes + hosts) if token == 'to' else None)}"
                  for token in tokens]
        fields.append(f"kind={kind} from={sender}")
        rnd.shuffle(fields)
        return " ".join(fields)

    lines = section("general", [], pan="0xBEEF") if rnd.random() < 0.7 else []
    for host in hosts:
        lines += section("host", [host], addr=owned("addr"))
    pan_of = {gateway: pans[gateway] for gateway in gateways}
    for gateway in gateways:
        subscribers = ",".join(rnd.sample(hosts, rnd.randint(1, len(hosts)))) if hosts else None
        subscribers = subscribers if rnd.random() < 0.5 else None
        lines += section("gateway", [gateway], short=SHORTS[gateway], pan=pans[gateway], wired=owned("wired"),
                         prefix=owned("prefix") if rnd.random() < 0.4 else None, subscribers=subscribers)
    for node in nodes:
        pan = rnd.choice([pans[gateway] for gateway in gateways] or [None])
        devid = rnd.choice(DEVIDS) if pan and rnd.random() < 0.3 else None
        eui = owned("eui") if rnd.random() < 0.4 else None
        lines += section("node", [node], short=SHORTS[node], pan=pan, devid=devid, eui=eui)
        pan_of[node] = pan or "0xBEEF"
    radios = nodes + gateways
    pan_groups = [group for pan in sorted(set(pan_of.values()))
                  if len(group := [radio for radio in radios if pan_of[radio] == pan]) > 1]
    linked: list[list[str]] = []
    for _ in range(rnd.randint(0, 8) if len(radios) > 1 else 0):
        if linked and rnd.random() < 0.01:  # a pair linked again, either way round, which the loader rejects
            lines += section("link", rnd.sample(rnd.choice(linked), 2))
            continue
        # about 1 link in 100 is drawn from all radios and may join two PANs, which the loader rejects
        pool = rnd.choice(pan_groups) if pan_groups and rnd.random() < 0.99 else radios
        fresh = [pair for pair in combinations(pool, 2) if sorted(pair) not in map(sorted, linked)]
        if fresh:
            linked.append(rnd.sample(rnd.choice(fresh), 2))
            lines += section("link", linked[-1])
    for node in rnd.sample(nodes, rnd.randint(0, min(2, len(nodes)))):
        lines.append(f"[route {node}]")
        for final in rnd.sample(["default", *SHORTS.values()], rnd.randint(0, 2)):
            lines.append(f"{final} = {value('short')}")
    lines += ["[traffic]"] + [traffic() for _ in range(rnd.randint(1, 8))]
    if rnd.random() < 0.02:
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(SECTION_FAULTS))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(rnd=st.randoms(use_true_random=True),
       mode=st.sampled_from([None, "border", "devid", "zigbee", "bridge"]))
def test_loader_rejects_or_runs_generated_scenarios(rnd, mode):
    text = scenario_text(rnd)
    note(text)
    try:
        world, t_end = load_scenario(text, mode_override=mode)
    except ScenarioError:
        return  # rejected at a line; any other exception fails the test
    world.run_until(min(t_end, 5.0))
    check_counter_laws(world)  # drops == the sum of drops_*, and every frame sent has a fate


def _documented(block: str):
    """{section: (id count, required keys, optional keys)} and {traffic kind: (required, optional)}."""
    sections, traffic = {}, {}
    for line in block.splitlines():
        header = re.match(r"\s*\[(\w+)([^\]]*)\]\s+#?\s*(.*)", line)
        if header:
            kind, ids, keys = header.groups()
            required, _, optional = keys.rpartition(";")
            names = [[item.split("=")[0].strip() for item in part.split(",") if item.strip()]
                     for part in (required, optional)]
            sections[kind] = (len(ids.split()), *map(tuple, names))
        event = re.match(r"\s*at=T kind=(\w+) (.*)", line)
        if event:
            tokens = event.group(2).split()
            required = tuple(t.split("=")[0] for t in tokens if not t.startswith(("[", "from=", "size=")))
            optional = tuple(t.strip("[]").split("=")[0] for t in tokens if t.startswith("["))
            traffic[event.group(1)] = (required, optional)
    return sections, traffic


def test_readme_and_docstring_list_the_grammar_the_loader_accepts():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    for text in (block, scenario.__doc__):
        sections, traffic = _documented(text)
        assert traffic == scenario._TRAFFIC
        assert sections.keys() == scenario._SECTIONS.keys()
        for kind, (count, required, optional) in scenario._SECTIONS.items():
            assert sections[kind][0] == count, kind
            if optional is not None:  # route keys are shorts; traffic lines are events
                assert sections[kind][1:] == (required, optional), kind


def _digest(text: str) -> str:
    world, t_end = load_scenario(text)
    world.run_until(t_end)
    out = "".join(line + "\n" for line in [*world.trace_lines(), *world.metrics_lines()])
    return hashlib.sha256(out.encode()).hexdigest()


def _key_lines(text: str, spaced: str) -> str:
    """`text` with each `key = value` line written as key, `spaced`, value."""
    return re.sub(r"(?m)^(\w+) = (.*)$", lambda m: m[1] + spaced + m[2], text)


SPELLINGS = {  # the same scenario, spelled another way
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "tabs-around-equals": lambda text: _key_lines(text, "\t=\t"),
    "no-spaces": lambda text: _key_lines(text, "="),
    "trailing-comments": lambda text: re.sub(r"(?m)^(\S.*)$", r"\1  # a=b [note] # again", text),
    "spaced-link-ids": lambda text: re.sub(r"\[link (\S+) (\S+)\]", r"[link  \1  \2]", text),
    "reversed-link-ends": lambda text: re.sub(r"\[link (\S+) (\S+)\]", r"[link \2 \1]", text),
    # str.splitlines would break these comments at each of the four characters
    "form-feed-in-comments": lambda text: re.sub(r"(?m)^(\S.*)$", lambda m: m[1] + "  # \x0c\x1c\x1d\x1e a", text),
}


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_spellings_of_one_scenario_load_the_same_world(scenario_dir, spelling):
    text = (scenario_dir / "demo.scn").read_text()
    variant = SPELLINGS[spelling](text)
    assert variant != text
    assert _digest(variant) == _digest(text)


@pytest.mark.parametrize("name", sorted(p.name for p in (Path(__file__).parents[1] / "scenarios").glob("*.scn")))
def test_queued_events_are_bound_methods_of_the_world_and_their_arguments(scenario_dir, name):
    world, t_end = load_scenario((scenario_dir / name).read_text())
    assert world._queue
    for entry in world._queue:
        assert [type(field) for field in entry] == [float, int, tuple], entry
        assert entry[2][0].__self__ is world, entry

    queued = []  # every event the run queues takes the same form
    schedule = world.schedule

    def recording_schedule(t, event):
        queued.append(event)
        schedule(t, event)

    world.schedule = recording_schedule
    world.run_until(t_end)
    assert queued and all(type(event) is tuple and event[0].__self__ is world for event in queued)


def test_queued_sends_share_the_worlds_ids_and_one_payload_per_size():
    world, _ = load_scenario(
        "[host wired-host]\naddr = fd00::99\n[node sensor-a]\nshort = 1\n[node sensor-b]\nshort = 2\n"
        "[link sensor-a sensor-b]\n[traffic]\n"
        "at=0 kind=udp from=sensor-a to=sensor-b size=40\n"
        "at=1 kind=broadcast from=sensor-b size=40\n"
        "at=2 kind=udp from=wired-host to=sensor-a size=41\n"
    )
    udp, bc0, wired = (event for _, _, event in sorted(world._queue))
    assert (udp[0], bc0[0], wired[0]) == (world._do_send_udp, world._do_broadcast, world._do_send_udp)
    assert udp[5] is bc0[2] and udp[5] == scenario.pattern_payload(40)
    assert wired[5] is not udp[5] and len(wired[5]) == 41
    assert udp[1] is world.nodes["sensor-a"].id and udp[2] is world.nodes["sensor-b"].id
    assert bc0[1] is world.nodes["sensor-b"].id
    assert wired[1] is world.hosts["wired-host"].id and wired[2] is world.nodes["sensor-a"].id


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_the_load_leaves_the_collector_as_it_found_it(collecting):
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        load_scenario("[node a]\nshort = 1\n")
        assert gc.isenabled() is collecting
        with pytest.raises(ScenarioError):
            load_scenario("[node a]\nshort = 0x10000\n")
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_each_key_lands_in_its_own_field():
    world, t_end = load_scenario(
        "[general]\nseed = 3\nt_end = 7\npan = 0x0042\nhops = 5\n"
        "[host h]\naddr = fd00::99\ndevid = 9\n"
        "[gateway g]\nmode = devid\nshort = 0x00FE\nwired = fd00::a\nprefix = 2001:db8:a::\npan = 0x0007\n"
        "subscribers = h\npeer = fd00::b\n"
        "[node n]\nshort = 2\nrole = rfd\neui = 00:50:c2:00:00:00:00:01\nsleep = 1/2\nsecurity = aes-ccm-64\n"
        "devid = 4\npan = 0x0007\n"
        "[node m]\nshort = 3\nrole = coordinator\npan = 0x0007\n"
        "[link n m]\nband = 868\nloss = 0.25\n"
        "[route m]\n2 = 2\ndefault = 0x00FE\n"
    )
    assert (t_end, world.pan_id, world.default_hops) == (7.0, 0x0042, 5)
    assert world.rng.random() == random.Random(3).random()
    gw, n, m = world.node("g"), world.node("n"), world.node("m")
    assert (gw.gateway.mode, gw.gateway.wired_addr, gw.gateway.mapping.prefix, gw.pan_id, gw.short) == (
        GatewayMode.DEVID, IPv6Address("fd00::a"), IPv6Address("2001:db8:a::"), 0x0007, 0x00FE)
    h = world.hosts["h"].addr
    assert (h, gw.gateway.subscribers, gw.gateway.tunnel_peer) == (IPv6Address("fd00::99"), (h,), IPv6Address("fd00::b"))
    assert (n.short, n.role, n.eui, n.sleep, n.security, n.pan_id) == (
        2, NodeRole.RFD, bytes.fromhex("0050c20000000001"), SleepSchedule(1.0, 2.0), SecurityMode.AES_CCM_64, 0x0007)
    assert gw.gateway.registry == {4: n.wpan_address, 9: h}
    assert (m.role, m.routes, m.default_route) == (NodeRole.COORDINATOR, {2: 2}, 0x00FE)
    assert world.neighbors["n"]["m"] == netsim.SimLink(PhyBand.B868, 0.25)


@pytest.mark.parametrize("text, error", [
    # the whole file is read before anything is built: line 5's unknown key, not line 2's range error
    ("[node a]\nshort = 0x10000\n[node b]\nshort = 2\nbogus = 1\n", "line 5: unknown node key 'bogus'"),
    # a missing required key is found after the whole file is read, and before anything is built
    ("[node a]\nrole = ffd\n[node b]\nshort = 2\nbogus = 1\n", "line 5: unknown node key 'bogus'"),
    ("[node a]\nshort = 0x10000\n[node b]\nrole = ffd\n", "line 3: node needs short ="),
    # kinds are built in kind order whatever the file order: hosts before nodes
    ("[node a]\nshort = 0x10000\n[host h]\naddr = nope\n", "line 4: not an IPv6 address: 'nope'"),
], ids=["unknown-key-before-range", "unknown-key-before-missing-key", "missing-key-before-range",
        "host-before-node"])
def test_the_file_is_read_whole_then_built_kind_by_kind(text, error):
    with pytest.raises(ScenarioError) as raised:
        load_scenario(text)
    assert str(raised.value) == error


@pytest.mark.parametrize("header, message", [
    ("[general x]", "a general section takes 0 id(s)"),
    ("[node]", "a node section takes 1 id(s)"),
    ("[node b c]", "a node section takes 1 id(s)"),
    ("[gateway]", "a gateway section takes 1 id(s)"),
    ("[gateway g h]", "a gateway section takes 1 id(s)"),
    ("[host]", "a host section takes 1 id(s)"),
    ("[host h i]", "a host section takes 1 id(s)"),
    ("[link a]", "a link section takes 2 id(s)"),
    ("[link a b c]", "a link section takes 2 id(s)"),
    ("[route]", "a route section takes 1 id(s)"),
    ("[route a b]", "a route section takes 1 id(s)"),
    ("[traffic x]", "a traffic section takes 0 id(s)"),
    ("[]", "unknown section []"),
    ("[ ]", "unknown section [ ]"),
    ("[nodes a]", "unknown section [nodes a]"),
])
def test_a_header_names_a_known_kind_and_its_number_of_ids(header, message):
    with pytest.raises(ScenarioError) as raised:
        load_scenario(f"[node a]\nshort = 1\n{header}\nshort = 2\n")
    assert str(raised.value) == f"line 3: {message}"


def test_links_routes_traffic_and_subscribers_may_precede_what_they_name():
    world, _ = load_scenario(
        "[traffic]\nat=0 kind=udp from=a to=b size=4\n[link a b]\nloss = 0\n[route a]\n2 = 2\n"
        "[gateway g]\nmode = border\nshort = 9\nwired = fd00::a\npan = 0x0002\nsubscribers = h\n"
        "[node a]\nshort = 1\n[node b]\nshort = 2\n[host h]\naddr = fd00::99\n"
    )
    assert world.neighbors["a"].keys() == {"b"} and world.node("a").routes == {2: 2}
    assert world.gateway("g").subscribers == (world.hosts["h"].addr,)
    world.run_until(1.0)
    assert world.metrics["sent"] == world.metrics["delivered"] == 1


class _Watched(list):
    """A parsed record, or a kind's list of them, that a weak reference can watch."""

    __slots__ = ("__weakref__",)


def test_a_loaded_world_keeps_no_section_one_record_per_link_and_no_unused_node_state(monkeypatch):
    text = _workloads()["mesh-900"](1, small=True)
    watched: dict[str, list[weakref.ref]] = {}  # kind -> its list and records, weakly
    parse = scenario._parse_sections

    def watched_parse(text):
        sections = parse(text)
        for kind, parsed in sections.items():
            sections[kind] = _Watched(_Watched(record) if type(record) is list else record for record in parsed)
            watched[kind] = [weakref.ref(sections[kind])]
            watched[kind] += [weakref.ref(record) for record in sections[kind] if type(record) is _Watched]
        return sections

    def alive():
        return sorted(kind for kind, refs in watched.items() if any(ref() is not None for ref in refs))

    at_first_link = []
    add_link = netsim.World.add_link

    def watched_add_link(world, *args):
        if not at_first_link:  # the sections alive once the nodes are built, and the collector's state
            at_first_link.append((alive(), gc.isenabled()))
        return add_link(world, *args)

    monkeypatch.setattr(scenario, "_parse_sections", watched_parse)
    monkeypatch.setattr(netsim.World, "add_link", watched_add_link)
    gc.collect()  # no garbage left by earlier tests
    world, _ = load_scenario(text)
    # node, host and gateway sections are released as they are built, the routes and traffic
    # wait their turn and the general section is read to the end; the collector pauses for the load
    assert at_first_link == [(["general", "link", "route", "traffic"], False)]
    assert watched.keys() == scenario._SECTIONS.keys() and alive() == []  # no parsed record outlives the load

    links = {id(link): link for ends in world.neighbors.values() for link in ends.values()}
    assert len(links) == text.count("[link ")
    for node_id, ends in world.neighbors.items():  # one record per pair, reachable from both ends
        assert all(world.neighbors[other][node_id] is link for other, link in ends.items())
    for ends in world.neighbors.values():  # keyed by the world's ids
        assert all(other is world.nodes[other].id for other in ends)
    # no node has flooded or fragmented yet
    assert all(node.bc0_seen is None and node.next_tag == 0 for node in world.nodes.values())
    world.prepare()  # puts each neighbour map in id order
    for node_id, ends in world.neighbors.items():
        assert list(ends) == sorted(ends), node_id


def test_a_parsed_section_shares_its_texts_and_costs_under_260_octets():
    text = _workloads()["mesh-900"](1, small=True) + "[route n0_0]\n0x0002 = 0x0002\ndefault = 0x0007\n"
    scenario._parse_sections(text)  # refills the free lists, so the count does not hang on earlier tests
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sections = scenario._parse_sections(text)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = [record for kind, parsed in sections.items() if kind != "traffic" for record in parsed]
    assert all(type(record) is list for record in records)
    assert len(records) == text.count("[") - text.count("[traffic]") and len(sections["route"]) == 1
    assert sections["traffic"] and all(type(event) is tuple for event in sections["traffic"])
    # the record and its line numbers, and its share of the traffic lines
    assert grown / text.count("[") < 260
    texts: dict[str, str] = {}  # each id, key and value text is one object across all sections
    for record in records:
        pieces = [piece for piece in record if type(piece) is str]
        if type(record[-1]) is dict:  # a route section's pins
            pieces += [*record[-1], *(value for _, value in record[-1].values())]
        for piece in pieces:
            assert texts.setdefault(piece, piece) is piece, (record[0], piece)
    assert texts["0x0002"] is sections["route"][0][2]["0x0002"][1]  # a pin's key and value are one text
