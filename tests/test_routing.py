"""On-demand routing against the all-pairs BFS it replaced, and its scale."""

from ipaddress import IPv6Address

from hypothesis import given, settings
from hypothesis import strategies as st

from lowpan.gateway import GatewayMode
from lowpan.netsim import NodeRole, World

PANS = (0xBEEF, 0xCAFE)
MAX_SHORT = 10
ABSENT_SHORT = 0x00FF  # no node ever has it


def all_pairs_routes(world: World) -> dict[str, tuple[dict[int, int], int | None]]:
    """Oracle: per node, its routes and default route as all-pairs BFS fills them in.

    A BFS from every node over same-PAN radio neighbours in id order,
    expanding only the source and forwarders, gives each reached node's
    first hop; scenario pins win over it.  An unpinned default route is
    the route toward the segment gateway.
    """
    table = {}
    for src_id in sorted(world.nodes):
        src = world.nodes[src_id]
        routes = dict(src.routes)
        first_hop: dict[str, str] = {}
        frontier = [src_id]
        seen = {src_id}
        while frontier:
            next_frontier = []
            for u in frontier:
                if u != src_id and not world.nodes[u].role.forwards:
                    continue  # targets, never transit
                for v in sorted(world.neighbors[u]):
                    if v in seen or world.nodes[v].pan_id != src.pan_id:
                        continue
                    seen.add(v)
                    first_hop[v] = v if u == src_id else first_hop[u]
                    next_frontier.append(v)
            frontier = next_frontier
        for dst_id, hop_id in first_hop.items():
            routes.setdefault(world.nodes[dst_id].short, world.nodes[hop_id].short)
        default = src.default_route
        gw_node = world.segment_gateway(src.pan_id)
        if gw_node is not None and default is None and gw_node.id != src_id:
            default = routes.get(gw_node.short)
        table[src_id] = (routes, default)
    return table


@st.composite
def worlds(draw) -> World:
    """Up to 16 nodes of mixed roles in two PANs, random same-PAN links, pins and at most one gateway per PAN."""
    addrs = draw(st.lists(
        st.tuples(st.sampled_from(PANS), st.integers(1, MAX_SHORT)),
        min_size=2, max_size=16, unique=True,
    ))
    n = len(addrs)
    names = draw(st.permutations([f"n{i:02d}" for i in range(n)]))  # id order is not short order
    gateways = set()
    for pan in PANS:
        members = [i for i, (member_pan, _) in enumerate(addrs) if member_pan == pan]
        gateway = draw(st.none() | st.sampled_from(members)) if members else None
        if gateway is not None:
            gateways.add(gateway)
    world = World(seed=0)
    coordinated = set()  # the PANs that have their one coordinator
    for i, (pan, short) in enumerate(addrs):
        if i in gateways:
            world.add_gateway(
                names[i], short, GatewayMode.BORDER, IPv6Address(f"fd00::{i + 1:x}"),
                prefix=IPv6Address(f"2001:db8:{i + 1:x}::"), pan_id=pan,
            )
        else:
            role = draw(st.sampled_from(NodeRole))
            if role is NodeRole.COORDINATOR:
                if pan in coordinated:
                    role = NodeRole.FFD  # a PAN has one coordinator
                coordinated.add(pan)
            world.add_node(names[i], role, short, pan_id=pan)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if addrs[a][0] == addrs[b][0]]
    density = draw(st.sampled_from([2, 4, 7]))  # in tenths: sparse lines to near-cliques
    rolls = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    for (a, b), roll in zip(pairs, rolls):
        if roll < density:
            world.add_link(names[a], names[b])
    index = st.integers(0, n - 1)
    short = st.one_of(st.integers(1, MAX_SHORT), st.just(ABSENT_SHORT))
    for i, final, hop in draw(st.lists(st.tuples(index, short, short), max_size=4)):
        world.node(names[i]).routes[final] = hop
    for i, hop in draw(st.lists(st.tuples(index, short), max_size=2)):
        world.node(names[i]).default_route = hop
    return world


@settings(max_examples=300, deadline=None)
@given(world=worlds(), data=st.data())
def test_next_hop_matches_all_pairs_bfs(world, data):
    oracle = all_pairs_routes(world)
    world.prepare()
    shorts = sorted({node.short for node in world.nodes.values()} | {ABSENT_SHORT})
    # a random order resumes partly grown trees from every side
    pairs = data.draw(st.permutations([(node_id, s) for node_id in sorted(world.nodes) for s in shorts]))
    for node_id, final in pairs:
        routes, default = oracle[node_id]
        assert world.next_hop(world.node(node_id), final) == routes.get(final, default), (node_id, final)


def test_routing_state_grows_only_with_lookups_on_a_100x100_grid():
    side = 100
    world = World(seed=0)
    for r in range(side):
        for c in range(side):
            world.add_node(f"n{r:02d}{c:02d}", NodeRole.FFD, r * side + c + 1)
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                world.add_link(f"n{r:02d}{c:02d}", f"n{r:02d}{c + 1:02d}")
            if r + 1 < side:
                world.add_link(f"n{r:02d}{c:02d}", f"n{r + 1:02d}{c:02d}")
    world.prepare()
    assert not any(node.routes or node.default_route is not None for node in world.nodes.values())
    assert not world.hop_trees
    # (50,50) -> (55,55) is 10 hops; n5051 and n5150 are both one closer, n5051 has the lower id
    assert world.next_hop(world.node("n5050"), world.node("n5555").short) == world.node("n5051").short
    # only the destination's tree exists, grown to the 2*10*11 + 1 = 221 nodes within 10 hops
    assert list(world.hop_trees) == ["n5555"]
    hops, _ = world.hop_trees["n5555"]
    assert len(hops) <= 221
