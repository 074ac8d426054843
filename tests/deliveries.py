"""Deliveries watched at `World._deliver`, the simulator's one delivery path.

The world keeps no delivered payload, so a test that needs one wraps
`_deliver` on its world before running it.  Shared by the tests that check
what a node or a wired host received (`test_netsim.py`, `test_gateway.py`,
`test_acceptance.py`).
"""

# the `kind=` token that opens a `deliver` record's detail, and what is delivered:
# an `Ipv6Packet` (at a node or a wired host), a flood's payload octets, a devid
# app frame's octets, or a `NwkFrame`
KINDS = ("ipv6", "bc0", "app", "nwk")


class Deliveries(dict):
    """(node id, kind) -> [(time, delivered object), ...], in delivery order.

    A pair with no delivery reads [], as long as the world has that node or
    host and the kind is one of `KINDS`; any other pair is a `KeyError`.
    """

    def __init__(self, world):
        super().__init__()
        self.world = world

    def __missing__(self, key):
        node_id, kind = key
        if kind not in KINDS or (node_id not in self.world.nodes and node_id not in self.world.hosts):
            raise KeyError(key)
        return []


def watch(world) -> Deliveries:
    """Wrap `world._deliver` so every delivery is also noted in the returned map."""
    seen = Deliveries(world)
    deliver = world._deliver

    def watched(node_id, detail, nbytes, delivered, counter="delivered"):
        kind = detail.split(" ", 1)[0].removeprefix("kind=")
        assert kind in KINDS, detail
        seen.setdefault((node_id, kind), []).append((world.now, delivered))
        deliver(node_id, detail, nbytes, delivered, counter)

    world._deliver = watched
    return seen
