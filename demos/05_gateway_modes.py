"""Four ways to stitch a WPAN segment to a wired IPv6 domain.

  border  - converts at the IP layer; the wired packet is exactly the
            packet the node expressed, so IP stays end to end.
  devid   - translates at the application layer via registered device
            identifiers; the IP stack terminates at the gateway and
            nothing larger than one frame can cross.
  zigbee  - maps addresses at the network layer: nodes get pseudo
            global addresses, hosts borrow short addresses, payloads
            cross as zero-filled fixed blocks.
  bridge  - tunnels the WPAN network layer verbatim over UDP so two
            segments form one continuous network.
"""

from ipaddress import IPv6Address

from lowpan.gateway import (
    AppHeader,
    Gateway,
    GatewayMode,
    MappingTable,
    NwkFrame,
    pad_transform,
    register_devid,
    strip_transform,
)
from lowpan.netsim import NodeRole, World

HOST = IPv6Address("fd00::99")


def delivery(world, node_id):
    """The one `deliver` trace record of `node_id`."""
    (record,) = [r for r in world.trace if r.kind == "deliver" and r.node == node_id]
    return record


print("border: RFD -> 3-hop mesh -> gateway -> wired host, byte-identical payload")
world = World(seed=0, pan_id=0xAAAA)
world.add_node("rfd", NodeRole.RFD, 0x0010)
world.add_node("f1", NodeRole.FFD, 0x0002)
world.add_node("f2", NodeRole.FFD, 0x0003)
world.add_gateway("gw", 0x00FE, GatewayMode.BORDER, IPv6Address("fd00::a"),
                  prefix=IPv6Address("2001:db8:a::"))
world.add_host("h1", HOST)
world.add_link("rfd", "f1")
world.add_link("f1", "f2")
world.add_link("f2", "gw")
world.send_udp(0.0, "rfd", "h1", 0xF0B3, 0xF0BF, b"sensor-reading")
world.send_udp(1.0, "h1", "rfd", 0xF0B3, 0xF0B4, bytes(1232))  # a full 1280-octet packet back
world.run()
up = delivery(world, "h1")
print(f"  host got a {up.nbytes}-octet UDP datagram: {up.detail}")
down = delivery(world, "rfd")
print(f"  node got the 1280-octet packet back: {down.nbytes + 40} octets, "
      f"{sum(1 for r in world.trace if r.kind == 'tx' and r.node == 'gw')} fragments on air")
print()

print("devid: registered identifiers, gateway-terminated IP, no fragmentation")
world = World(seed=0, pan_id=0xAAAA)
world.add_node("n1", NodeRole.RFD, 0x0010)
world.add_gateway("gw", 0x00FE, GatewayMode.DEVID, IPv6Address("fd00::a"))
world.add_host("h1", HOST)
world.add_link("n1", "gw")
register_devid(world.gateway("gw").registry, 1, world.node("n1").wpan_address)
register_devid(world.gateway("gw").registry, 9, HOST)
world.send_app(0.0, "n1", 1, 9, b"reading")
world.send_udp(1.0, "h1", "gw", 5, 5, AppHeader(9, 1).encode() + bytes(200))
world.run()
up = delivery(world, "h1")
print(f"  wired packet source is the gateway, not the node: {up.detail.removeprefix('kind=ipv6 from=')}")
drops = [r for r in world.trace if r.kind == "drop" and "no-fragmentation" in r.detail]
print(f"  the 204-octet reply was refused: {drops[0].detail}")
print()

print("zigbee: pseudo addresses and the zero-filled block transform")
ext = bytes.fromhex("00124b0001020304")
print(f"  extended address {ext.hex()} + prefix 2001:db8:: ->")
table = MappingTable(prefix=IPv6Address("2001:db8::"))
print(f"  pseudo address {table.assign_pseudo(ext)} (computed when needed, never stored)")
block = pad_transform(b"lamp=on")
print(f"  7-octet APL payload pads to {len(block)} wired octets; "
      f"strip gives back {strip_transform(block)!r}")
print()

print("bridge: a network-layer frame crosses the wired domain untouched")
nwk = NwkFrame(dst_short=0x0020, src_short=0x0010, sequence=3, payload=b"apl")
bridge = Gateway(GatewayMode.BRIDGE, IPv6Address("fd00::a"), tunnel_peer=IPv6Address("fd00::b"))
tunnel = bridge.bridge_uplink(nwk)
print(f"  encapsulated as UDP to {tunnel.dst}, {tunnel.payload_length} octets")
print(f"  decapsulated equals the original: {bridge.bridge_downlink(tunnel) == nwk}")
