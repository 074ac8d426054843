"""Carrying a 1280-octet datagram over 102-octet frames.

IPv6 requires every link to move 1280-octet packets, so the adaptation
layer fragments below IP.  Every fragment repeats a 16-bit tag and the
full datagram size; offsets count 8-octet units, so fragments can
arrive in any order and still land in place.  A receiver holds a
partial buffer for at most 60 simulated seconds.
"""

import random

from lowpan.codec import decode_frag
from lowpan.frame import Short16
from lowpan.reassembly import (
    FragmentationContext,
    accept_fragment,
    fragment,
)

datagram = bytes(i & 0xFF for i in range(1280))
frames = fragment(datagram, 102, FragmentationContext())
print(f"1280-octet datagram at budget 102 -> {len(frames)} fragments")
for frame in frames[:3]:
    header, consumed = decode_frag(frame)
    print(
        f"  tag=0x{header.tag:04X} size={header.datagram_size} "
        f"offset={header.offset * 8:>4} payload={len(frame) - consumed}"
    )
print("  ...")
last = frames[-1]
header, consumed = decode_frag(last)
print(
    f"  tag=0x{header.tag:04X} size={header.datagram_size} "
    f"offset={header.offset * 8:>4} payload={len(last) - consumed}"
)
print()

print("delivery in a shuffled order still reassembles")
shuffled = frames[:]
random.Random(5).shuffle(shuffled)
table = {}
src = Short16(0xBEEF, 0x0001)
for i, frame in enumerate(shuffled):
    result = accept_fragment(table, src, frame, now=0.1 * i)
print(f"  outcome after frame {len(shuffled)}: {result.outcome.value}")
print(f"  reassembled equals the original: {result.datagram == datagram}")
print()

print("a fragment arriving 61 s after the first finds a dead buffer")
table = {}
accept_fragment(table, src, frames[0], now=0.0)
late = accept_fragment(table, src, frames[1], now=61.0)
print(f"  outcome: {late.outcome.value} ({late.reason}); the late fragment seeds a fresh buffer")
