"""IEEE 802.15.4 physical and MAC layer model.

PPDU wire format:

    | offset | size  | field                                  |
    |--------|-------|----------------------------------------|
    | 0      | 4     | preamble, all-zero octets              |
    | 4      | 1     | start-of-frame delimiter (0xE6)        |
    | 5      | 1     | frame length: 7 bits + 1 reserved bit  |
    | 6      | 0-127 | PSDU                                   |

Total on-air size is 6 + len(psdu), at most 133 octets.

The MAC payload budget is computed against the worst-case overhead of a
fully addressed data frame: frame control (2) + sequence number (1) +
destination PAN and EUI-64 (2 + 8) + source PAN and EUI-64 (2 + 8) +
FCS (2) = 25 octets.  With the 127-octet PSDU limit that leaves 102
octets, minus the per-frame overhead of the configured link-layer
security suite (0 / 9 / 13 / 21 octets for the AES-CCM variants), down
to 81 octets for AES-CCM-128.

The MAC frame codec used here packs:

    | fc0 | fc1 | seq | dst PAN + addr | src PAN + addr | payload | security filler | FCS |

    fc0 bits 0-1: frame type; bits 2-3: security suite
    fc1 bits 0-1: dst addressing mode; bits 2-3: src mode
                  (0 = absent, 1 = short16, 2 = EUI-64)

Short addressing encodes PAN (2) + short (2); EUI-64 addressing encodes
the broadcast-PAN placeholder 0xFFFF (2) + EUI (8).  A frame with short
source and destination addresses, as every data frame the simulator sends
is, has its 11-octet header packed and unpacked with one
`struct.Struct(">BBBHHHH")`; the other address modes take the general
per-address path.  Security is modelled
purely as `overhead` zero filler octets (auxiliary header plus MIC
stand-in).  Each enum carries what the codec reads from it as a plain
member attribute set in its `__init__`: `FrameType.code` and
`SecurityMode.code` (the two-bit wire codes), `SecurityMode.overhead`,
`SecurityMode.budget` (what `mac_payload_budget` returns) and
`PhyBand.bit_rate`.  `SecurityMode.label` and `PhyBand.label` are the
names a scenario and `lowpan budget` write (`aes-ccm-32`, `2450`),
derived from the member names.  Decoding maps the codes to their members by
indexing a tuple of the members.  The FCS is CRC-16/XMODEM (polynomial
0x1021, init 0x0000, MSB first, no final XOR) over everything that
precedes it; that is the stdlib's `binascii.crc_hqx(data, 0)`.  The
budget arithmetic always uses the 25-octet worst case even when short
addressing makes the actual header smaller.

Every immutable value of the package is a `CheckedTuple`, a subclass of
a `namedtuple` whose `__new__` runs every check of its fields: `Short16`,
`Eui64`, `Ppdu` and `MacFrame` here, `codec.Hc1Encoding`,
`codec.MeshHeader`, `codec.FragHeader`, `ipv6.Ipv6Packet`,
`ipv6.UdpDatagram`, `reassembly.FragmentResult`, `gateway.AppHeader`,
`gateway.NwkFrame`, `netsim.SleepSchedule`, `netsim.SimLink` and
`netsim.WiredHost`; `netsim.TraceRecord`, a read-only view of a trace row,
is the plain `namedtuple` under that idiom, built by its own `_make` with
no check.  Mutable state is a dataclass.  A decoder
builds directly, with `tuple.__new__`, only the fields its format bounds
(a `struct` octet or 16-bit field, a masked bit field, a fixed-length
slice), and runs every check its input can fail, written once in a helper
that `__new__` calls too: `decode_mac_frame` builds its addresses and its
`MacFrame` directly, since the sequence number and every PAN and short
are wire-sized, and runs `_check_frame_content`, the ACK and
payload-budget rules a received frame can break.
"""

from __future__ import annotations

import binascii
import struct
from collections import namedtuple
from enum import Enum

PREAMBLE = b"\x00\x00\x00\x00"
SFD = 0xE6
PHY_OVERHEAD = 6
PSDU_MAX = 127
PPDU_MAX = PHY_OVERHEAD + PSDU_MAX  # 133
MAC_OVERHEAD = 25
ACK_FRAME_OCTETS = 5
BROADCAST_SHORT = 0xFFFF


class FrameError(ValueError):
    """Base class for PHY/MAC codec failures."""


class OversizePsdu(FrameError):
    pass


class BadPreamble(FrameError):
    pass


class BadSfd(FrameError):
    pass


class MalformedPpdu(FrameError):
    pass


class TruncatedFrame(FrameError):
    pass


class FcsMismatch(FrameError):
    pass


class PayloadOverBudget(FrameError):
    reason = "payload-over-budget"


class PhyBand(Enum):
    """Frequency band with its bit rate and channel numbering."""

    B868 = (20_000, 0, 0)
    B915 = (40_000, 1, 10)
    B2450 = (250_000, 11, 26)

    def __init__(self, bit_rate: int, first_channel: int, last_channel: int):
        self.label: str = self.name[1:]  # "868", "915", "2450"
        self.bit_rate: int = bit_rate
        self.channel_range: tuple[int, int] = (first_channel, last_channel)


class SecurityMode(Enum):
    """Link-layer security suite, modelled as pure byte overhead."""

    NONE = 0
    AES_CCM_32 = 1
    AES_CCM_64 = 2
    AES_CCM_128 = 3

    def __init__(self, code: int):
        self.code: int = code
        self.label: str = self.name.lower().replace("_", "-")  # "none", "aes-ccm-32", ...
        # octets of auxiliary security header plus MIC, by suite code
        self.overhead: int = (0, 9, 13, 21)[code]
        # octets left to the MAC payload under the worst-case header
        self.budget: int = PSDU_MAX - MAC_OVERHEAD - self.overhead


class FrameType(Enum):
    BEACON = 0
    DATA = 1
    ACK = 2
    COMMAND = 3

    def __init__(self, code: int):
        self.code: int = code


# members by their two-bit wire code, for decoding
_FRAME_TYPES = tuple(FrameType)
_SECURITY_MODES = tuple(SecurityMode)
_ACK = FrameType.ACK  # a module global: a member read off its enum class is a slow lookup
_SHORT_ADDRESS = struct.Struct(">HH")  # PAN id, short address
# fc0, fc1, sequence, dst PAN + short, src PAN + short
_SHORT_SHORT_HEADER = struct.Struct(">BBBHHHH")
_SHORT_SHORT_FC1 = 0x05  # dst mode 1 | src mode 1 << 2


class CheckedTuple(tuple):
    """Base of the immutable value types built on a `namedtuple`.

    A subclass lists this class first, then its `namedtuple`; one with
    checks defines a `__new__` that runs them and returns
    `tuple.__new__(cls, fields)`.  Equality holds only between instances of
    the same class, as for a dataclass, values hash as tuples, and `_make`
    (which `_replace` calls) builds through `__new__` rather than around it.
    """

    __slots__ = ()

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Short16(CheckedTuple, namedtuple("Short16", "pan_id short")):
    """16-bit short address scoped to a PAN."""

    __slots__ = ()

    def __new__(cls, pan_id: int, short: int):
        if not 0 <= pan_id <= 0xFFFF:
            raise ValueError(f"pan_id out of range: {pan_id}")
        if not 0 <= short <= 0xFFFF:
            raise ValueError(f"short address out of range: {short}")
        return tuple.__new__(cls, (pan_id, short))


class Eui64(CheckedTuple, namedtuple("Eui64", "eui")):
    """Globally unique 64-bit extended address."""

    __slots__ = ()

    def __new__(cls, eui: bytes):
        if len(eui) != 8:
            raise ValueError(f"EUI-64 must be 8 octets, got {len(eui)}")
        return tuple.__new__(cls, (eui,))


NodeAddress = Short16 | Eui64


def mac_payload_budget(security: SecurityMode) -> int:
    """Octets available to the MAC payload under the worst-case header."""
    return security.budget


def frame_airtime(band: PhyBand, ppdu_octets: int) -> float:
    """On-air time in seconds of a PPDU of the given encoded size."""
    if not 0 <= ppdu_octets <= PPDU_MAX:
        raise ValueError(f"ppdu_octets out of range: {ppdu_octets}")
    return ppdu_octets * 8 / band.bit_rate


class Ppdu(CheckedTuple, namedtuple("Ppdu", "psdu")):
    __slots__ = ()

    def __new__(cls, psdu: bytes):
        if len(psdu) > PSDU_MAX:
            raise OversizePsdu(f"psdu is {len(psdu)} octets, max {PSDU_MAX}")
        return tuple.__new__(cls, (psdu,))

    @property
    def frame_length(self) -> int:
        return len(self.psdu)


def encode_ppdu(psdu: bytes) -> bytes:
    return PREAMBLE + bytes([SFD, Ppdu(psdu).frame_length]) + psdu


def decode_ppdu(data: bytes) -> Ppdu:
    if len(data) < PHY_OVERHEAD:
        raise MalformedPpdu(f"PPDU shorter than {PHY_OVERHEAD} octets")
    if data[:4] != PREAMBLE:
        raise BadPreamble(f"preamble {data[:4].hex()} is not all-zero")
    if data[4] != SFD:
        raise BadSfd(f"SFD 0x{data[4]:02X}, expected 0x{SFD:02X}")
    length = data[5]
    if length & 0x80:
        raise MalformedPpdu("reserved bit of the length octet is set")
    psdu = data[PHY_OVERHEAD:]
    if len(psdu) != length:
        raise MalformedPpdu(f"frame length {length} but {len(psdu)} PSDU octets")
    return tuple.__new__(Ppdu, (psdu,))


def crc16(data: bytes) -> int:
    """CRC-16/XMODEM: polynomial 0x1021, init 0x0000, MSB first."""
    return binascii.crc_hqx(data, 0)


def _check_frame_content(
    frame_type: FrameType,
    src: NodeAddress | None,
    dst: NodeAddress | None,
    security: SecurityMode,
    payload: bytes,
):
    """The checks of a `MacFrame` that a decoded frame can fail too."""
    if frame_type is _ACK:
        if src is not None or dst is not None or payload:
            raise FrameError("ACK frames carry no addressing and no payload")
    budget = security.budget
    if len(payload) > budget:
        raise PayloadOverBudget(
            f"payload {len(payload)} octets exceeds budget {budget} for {security.name}"
        )


class MacFrame(
    CheckedTuple, namedtuple("MacFrame", "frame_type sequence src dst security payload")
):
    """One MAC frame: type, sequence number, addressing, suite and payload."""

    __slots__ = ()

    def __new__(
        cls,
        frame_type: FrameType,
        sequence: int,
        src: NodeAddress | None = None,
        dst: NodeAddress | None = None,
        security: SecurityMode = SecurityMode.NONE,
        payload: bytes = b"",
    ):
        if not 0 <= sequence <= 0xFF:
            raise ValueError(f"sequence out of range: {sequence}")
        _check_frame_content(frame_type, src, dst, security, payload)
        return tuple.__new__(cls, (frame_type, sequence, src, dst, security, payload))


def _encode_address(addr: NodeAddress | None) -> tuple[int, bytes]:
    if addr is None:
        return 0, b""
    if isinstance(addr, Short16):
        return 1, _SHORT_ADDRESS.pack(addr.pan_id, addr.short)
    return 2, b"\xff\xff" + addr.eui


def encode_mac_frame(frame: MacFrame) -> bytes:
    frame_type, sequence, src, dst, security, payload = frame
    fc0 = frame_type.code | (security.code << 2)
    if isinstance(src, Short16) and isinstance(dst, Short16):
        header = _SHORT_SHORT_HEADER.pack(
            fc0, _SHORT_SHORT_FC1, sequence, dst.pan_id, dst.short, src.pan_id, src.short
        )
    else:
        dst_mode, dst_bytes = _encode_address(dst)
        src_mode, src_bytes = _encode_address(src)
        header = bytes((fc0, dst_mode | (src_mode << 2), sequence)) + dst_bytes + src_bytes
    body = header + payload + bytes(security.overhead)
    return body + crc16(body).to_bytes(2, "big")


def _decode_address(mode: int, data: bytes, pos: int) -> tuple[NodeAddress | None, int]:
    if mode == 0:
        return None, pos
    if mode == 1:
        if pos + 4 > len(data):
            raise TruncatedFrame("short address truncated")
        return tuple.__new__(Short16, _SHORT_ADDRESS.unpack_from(data, pos)), pos + 4
    if mode == 2:
        if pos + 10 > len(data):
            raise TruncatedFrame("EUI-64 address truncated")
        return tuple.__new__(Eui64, (data[pos + 2 : pos + 10],)), pos + 10
    raise FrameError(f"unknown addressing mode {mode}")


def decode_mac_frame(data: bytes) -> MacFrame:
    if len(data) < ACK_FRAME_OCTETS:
        raise TruncatedFrame(f"frame shorter than {ACK_FRAME_OCTETS} octets")
    body, fcs = data[:-2], int.from_bytes(data[-2:], "big")
    computed = crc16(body)
    if computed != fcs:
        raise FcsMismatch(f"FCS 0x{fcs:04X} does not match computed 0x{computed:04X}")
    fc0, fc1, sequence = body[0], body[1], body[2]
    frame_type = _FRAME_TYPES[fc0 & 0x03]
    security = _SECURITY_MODES[(fc0 >> 2) & 0x03]
    if fc1 == _SHORT_SHORT_FC1 and len(body) >= _SHORT_SHORT_HEADER.size:
        _, _, _, dst_pan, dst_short, src_pan, src_short = _SHORT_SHORT_HEADER.unpack_from(body)
        dst = tuple.__new__(Short16, (dst_pan, dst_short))
        src = tuple.__new__(Short16, (src_pan, src_short))
        pos = _SHORT_SHORT_HEADER.size
    else:
        dst, pos = _decode_address(fc1 & 0x03, body, 3)
        src, pos = _decode_address((fc1 >> 2) & 0x03, body, pos)
    end = len(body) - security.overhead
    if end < pos:
        raise TruncatedFrame("security filler truncated")
    payload = body[pos:end]
    _check_frame_content(frame_type, src, dst, security, payload)
    return tuple.__new__(MacFrame, (frame_type, sequence, src, dst, security, payload))
