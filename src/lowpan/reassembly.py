"""Link-layer fragmentation and reassembly of adaptation-layer datagrams.

A datagram here is the complete adaptation payload as it would ride in
a single frame, inner dispatch byte included; the fragmenter treats it
as opaque octets.  Every fragment of one datagram shares a tag drawn
sequentially from the source's fragmentation context and repeats the
total datagram size, so fragments can arrive in any order.  Offsets are
in 8-octet units, which forces every fragment payload except the last
to a multiple of 8.

Reassembly buffers are keyed by (source address, tag) and live on
simulated time supplied by the caller: the whole datagram must arrive
within 60 seconds of the first fragment, otherwise the stale buffer is
discarded and the late fragment starts a fresh one.  The caller may
also discard a buffer at its deadline: each fragment that opens one
reports its key in its `FragmentResult`, an unchecked `frame.CheckedTuple`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum

from .codec import (
    FRAG_FIRST_HEADER_OCTETS,
    FRAG_SUBSEQUENT_HEADER_OCTETS,
    MAX_DATAGRAM_SIZE,
    FragHeader,
    decode_frag,
    encode_frag_first,
    encode_frag_subsequent,
)
from .frame import CheckedTuple, NodeAddress

REASSEMBLY_TIMEOUT = 60.0
MIN_PAYLOAD_BUDGET = 16


class ReassemblyError(ValueError):
    reason = "reassembly-error"


class DatagramTooLarge(ReassemblyError):
    reason = "datagram-too-large"


class BudgetTooSmall(ReassemblyError):
    reason = "budget-too-small"


class InconsistentSize(ReassemblyError):
    reason = "inconsistent-size"


class OverlapMismatch(ReassemblyError):
    reason = "overlap-mismatch"


@dataclass
class FragmentationContext:
    """Per-source sequential tag assignment."""

    next_tag: int = 0

    def take_tag(self) -> int:
        tag = self.next_tag
        self.next_tag = (tag + 1) & 0xFFFF
        return tag


def fragment(datagram: bytes, payload_budget: int, ctx: FragmentationContext) -> list[bytes]:
    """Split a datagram into fragment frames fitting the payload budget.

    Returns the datagram unchanged as a single frame when it fits.  A
    fresh tag is consumed only when fragmentation actually happens.
    """
    if len(datagram) > MAX_DATAGRAM_SIZE:
        raise DatagramTooLarge(f"{len(datagram)} octets exceeds {MAX_DATAGRAM_SIZE}")
    if payload_budget < MIN_PAYLOAD_BUDGET:
        raise BudgetTooSmall(f"budget {payload_budget} below minimum {MIN_PAYLOAD_BUDGET}")
    if len(datagram) <= payload_budget:
        return [bytes(datagram)]

    size = len(datagram)
    tag = ctx.take_tag()
    first_cap = (payload_budget - FRAG_FIRST_HEADER_OCTETS) // 8 * 8
    sub_cap = (payload_budget - FRAG_SUBSEQUENT_HEADER_OCTETS) // 8 * 8
    frames = [encode_frag_first(size, tag) + datagram[:first_cap]]
    pos = first_cap
    while pos < size:
        chunk = datagram[pos : pos + sub_cap]
        frames.append(encode_frag_subsequent(size, tag, pos // 8) + chunk)
        pos += len(chunk)
    return frames


@dataclass
class ReassemblyBuffer:
    datagram_size: int
    started_at: float
    received: dict[int, bytes] = field(default_factory=dict)  # offset octets -> payload

    def covered(self) -> bool:
        return sum(len(p) for p in self.received.values()) == self.datagram_size

    def assemble(self) -> bytes:
        return b"".join(self.received[off] for off in sorted(self.received))


ReassemblyTable = dict[tuple[NodeAddress, int], ReassemblyBuffer]


class FragmentOutcome(Enum):
    COMPLETE = "complete"
    PENDING = "pending"
    DROPPED = "dropped"


class FragmentResult(
    CheckedTuple, namedtuple("FragmentResult", "outcome datagram reason opened", defaults=(None, None, None))
):
    """What one fragment did; `opened` is the key of a buffer it started."""

    __slots__ = ()


_PENDING = FragmentResult(FragmentOutcome.PENDING)


def accept_fragment(
    table: ReassemblyTable, src: NodeAddress, frame: bytes, now: float
) -> FragmentResult:
    """Feed one fragment frame into the reassembly table.

    Complete carries the reassembled datagram.  A fragment arriving
    after the timeout window reports the old buffer as dropped while
    still seeding a fresh buffer with itself.  A result that leaves a
    fresh buffer behind names its key in `opened`, so the caller can
    discard it at its deadline.  Duplicates of an already-received
    fragment are ignored.
    """
    header, consumed = decode_frag(frame)
    payload = frame[consumed:]
    key = (src, header.tag)

    timed_out = False
    buffer = table.get(key)
    if buffer is not None and now - buffer.started_at > REASSEMBLY_TIMEOUT:
        del table[key]
        buffer = None
        timed_out = True
    opened = buffer is None
    if opened:  # entered in the table only once the fragment fits it
        buffer = ReassemblyBuffer(datagram_size=header.datagram_size, started_at=now)

    _insert(buffer, header, payload)

    if buffer.covered():
        table.pop(key, None)
        datagram = buffer.assemble()
        buffer.received.clear()  # a deadline event may still hold the buffer; its pieces can go
        return FragmentResult(FragmentOutcome.COMPLETE, datagram=datagram)
    if opened:
        table[key] = buffer
    if timed_out:
        return FragmentResult(FragmentOutcome.DROPPED, reason="timeout", opened=key)
    return FragmentResult(FragmentOutcome.PENDING, opened=key) if opened else _PENDING


def _insert(buffer: ReassemblyBuffer, header: FragHeader, payload: bytes):
    if header.datagram_size != buffer.datagram_size:
        raise InconsistentSize(
            f"fragment says {header.datagram_size} octets, buffer says {buffer.datagram_size}"
        )
    start = header.offset * 8
    end = start + len(payload)
    if end > buffer.datagram_size:
        raise InconsistentSize(
            f"fragment [{start}, {end}) extends past datagram size {buffer.datagram_size}"
        )
    existing = buffer.received.get(start)
    if existing is not None and existing == payload:
        return  # idempotent duplicate
    for off, chunk in buffer.received.items():
        if start < off + len(chunk) and off < end:
            raise OverlapMismatch(
                f"fragment [{start}, {end}) overlaps received [{off}, {off + len(chunk)})"
            )
    buffer.received[start] = payload
