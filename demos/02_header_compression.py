"""Shrinking 48 octets of IPv6+UDP headers down to 6.

Everything that the receiver can reconstruct from elsewhere is elided:
the version is fixed, the payload length falls out of the frame length,
link-local prefixes are implicit, interface identifiers derive from the
link addresses, and well-known UDP ports pack into a nibble each.  Only
the hop limit and the UDP checksum always ride in full.
"""

from ipaddress import IPv6Address

from lowpan import addressing
from lowpan.codec import compress_ipv6, decompress_ipv6
from lowpan.frame import Short16
from lowpan.ipv6 import (
    NEXT_HEADER_UDP,
    Ipv6Packet,
    UdpDatagram,
    encode_ipv6,
    encode_udp,
    udp_checksum,
)

l2_src = Short16(0xBEEF, 0x0001)
l2_dst = Short16(0xBEEF, 0x0002)
src = addressing.link_local(addressing.iid_for(l2_src))
dst = addressing.link_local(addressing.iid_for(l2_dst))
print(f"node 0x0001 -> {src}")
print(f"node 0x0002 -> {dst}")
print()

udp = UdpDatagram(0xF0B3, 0xF0BF, 0, b"hi")
udp = UdpDatagram(0xF0B3, 0xF0BF, udp_checksum(src, dst, udp), b"hi")
pkt = Ipv6Packet(src=src, dst=dst, next_header=NEXT_HEADER_UDP, payload=encode_udp(udp))

raw = encode_ipv6(pkt)
print(f"raw packet: {len(raw)} octets")
print(f"  {raw.hex()}")

stream = compress_ipv6(pkt, l2_src, l2_dst)
print(f"compressed: {len(stream)} octets")
print(f"  {stream.hex()}")
print()
print("  42        dispatch: HC1 follows")
print(f"  {stream[1]:02x}        HC1: both addresses fully elided, TC/FL zero, UDP, HC2")
print(f"  {stream[2]:02x}        hop limit, always carried in full")
print(f"  {stream[3]:02x}        HC2: both ports compressed, length elided")
print(f"  {stream[4]:02x}        ports: 0xF0B0+{stream[4] >> 4} / 0xF0B0+{stream[4] & 0xF}")
print(f"  {stream[5:7].hex()}      UDP checksum, always carried in full")
print(f"  {stream[7:].hex()}      payload")
print()

back = decompress_ipv6(stream, l2_src, l2_dst)
print(f"decompressed == original packet: {back == pkt}")
print()

# fields that cannot be elided simply ride inline; compression never fails
global_pkt = Ipv6Packet(
    src=IPv6Address("2001:db8::1234"), dst=dst,
    next_header=NEXT_HEADER_UDP, payload=encode_udp(udp), traffic_class=0x20,
)
stream = compress_ipv6(global_pkt, l2_src, l2_dst)
print(f"global source + nonzero traffic class -> {len(stream)} octets (inline fields)")
assert decompress_ipv6(stream, l2_src, l2_dst) == global_pkt
