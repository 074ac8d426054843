"""Mesh-under forwarding and flooding, watched through the trace.

Forwarding happens below IP: a mesh header names the originator, the
final destination and a hops-left budget that every forwarder
decrements.  Broadcasts add an 8-bit sequence number so each node
delivers one copy and drops the echoes.
"""

from lowpan.netsim import NodeRole, World


def show(world, kinds):
    for record in world.trace:
        if record.kind in kinds:
            print(f"  {record.time:9.6f}  {record.node:<4} {record.kind:<8} {record.detail}")


print("a -> b -> c -> d with hops_left=4 (two forwarders, one decrement each)")
world = World(seed=0)
world.add_node("a", NodeRole.COORDINATOR, 0x0001)
world.add_node("b", NodeRole.FFD, 0x0002)
world.add_node("c", NodeRole.FFD, 0x0003)
world.add_node("d", NodeRole.RFD, 0x0004)
world.add_link("a", "b")
world.add_link("b", "c")
world.add_link("c", "d")
world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, b"hello", hops=4)
world.run()
show(world, {"forward", "deliver"})
print()

print("same line with hops_left=2: the budget dies at the second forwarder")
world = World(seed=0)
world.add_node("a", NodeRole.COORDINATOR, 0x0001)
world.add_node("b", NodeRole.FFD, 0x0002)
world.add_node("c", NodeRole.FFD, 0x0003)
world.add_node("d", NodeRole.RFD, 0x0004)
world.add_link("a", "b")
world.add_link("b", "c")
world.add_link("c", "d")
world.send_udp(0.0, "a", "d", 0xF0B3, 0xF0B4, b"hello", hops=2)
world.run()
show(world, {"forward", "drop", "deliver"})
print()

print("flooding a 10-node ring with chords: one copy per node, echoes dropped")
world = World(seed=0)
world.add_node("n0", NodeRole.COORDINATOR, 0)
for i in range(1, 10):
    world.add_node(f"n{i}", NodeRole.FFD, i)
for i in range(10):
    world.add_link(f"n{i}", f"n{(i + 1) % 10}")
world.add_link("n0", "n5")
world.add_link("n2", "n7")
world.broadcast(0.0, "n0", b"flood", hops=15)
world.run()
delivered_at = [r.node for r in world.trace if r.kind == "deliver"]
copies = {f"n{i}": delivered_at.count(f"n{i}") for i in range(10)}
print(f"  copies per node: {copies}")
dupes = sum(1 for r in world.trace if r.kind == "drop" and "duplicate" in r.detail)
print(f"  duplicate arrivals suppressed: {dupes}")
