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

Short addressing encodes PAN (2) + short (2), packed and unpacked with
one `struct.Struct(">HH")`; EUI-64 addressing encodes the broadcast-PAN
placeholder 0xFFFF (2) + EUI (8).  Security is modelled purely as
`overhead` zero filler octets (auxiliary header plus MIC stand-in);
`overhead` is a plain member attribute that each `SecurityMode` sets in
its `__init__`.  Decoding maps the two-bit frame-type and suite codes to
their members by indexing a tuple of the members.  The FCS is
CRC-16/XMODEM (polynomial 0x1021, init 0x0000, MSB first, no final XOR)
over everything that precedes it; that is the stdlib's
`binascii.crc_hqx(data, 0)`.  The budget arithmetic always uses the
25-octet worst case even when short addressing makes the actual header
smaller.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass
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
    pass


class PhyBand(Enum):
    """Frequency band with its bit rate and channel numbering."""

    B868 = (20_000, 0, 0)
    B915 = (40_000, 1, 10)
    B2450 = (250_000, 11, 26)

    @property
    def bit_rate(self) -> int:
        return self.value[0]

    @property
    def channel_range(self) -> tuple[int, int]:
        return (self.value[1], self.value[2])


class SecurityMode(Enum):
    """Link-layer security suite, modelled as pure byte overhead."""

    NONE = 0
    AES_CCM_32 = 1
    AES_CCM_64 = 2
    AES_CCM_128 = 3

    def __init__(self, code: int):
        # octets of auxiliary security header plus MIC, by suite code
        self.overhead: int = (0, 9, 13, 21)[code]


class FrameType(Enum):
    BEACON = 0
    DATA = 1
    ACK = 2
    COMMAND = 3


# members by their two-bit wire code, for decoding
_FRAME_TYPES = tuple(FrameType)
_SECURITY_MODES = tuple(SecurityMode)
_SHORT_ADDRESS = struct.Struct(">HH")  # PAN id, short address


@dataclass(frozen=True)
class Short16:
    """16-bit short address scoped to a PAN."""

    pan_id: int
    short: int

    def __post_init__(self):
        if not 0 <= self.pan_id <= 0xFFFF:
            raise ValueError(f"pan_id out of range: {self.pan_id}")
        if not 0 <= self.short <= 0xFFFF:
            raise ValueError(f"short address out of range: {self.short}")


@dataclass(frozen=True)
class Eui64:
    """Globally unique 64-bit extended address."""

    eui: bytes

    def __post_init__(self):
        if len(self.eui) != 8:
            raise ValueError(f"EUI-64 must be 8 octets, got {len(self.eui)}")


NodeAddress = Short16 | Eui64


def mac_payload_budget(security: SecurityMode) -> int:
    """Octets available to the MAC payload under the worst-case header."""
    return PSDU_MAX - MAC_OVERHEAD - security.overhead


def frame_airtime(band: PhyBand, ppdu_octets: int) -> float:
    """On-air time in seconds of a PPDU of the given encoded size."""
    if not 0 <= ppdu_octets <= PPDU_MAX:
        raise ValueError(f"ppdu_octets out of range: {ppdu_octets}")
    return ppdu_octets * 8 / band.bit_rate


@dataclass(frozen=True)
class Ppdu:
    psdu: bytes

    def __post_init__(self):
        if len(self.psdu) > PSDU_MAX:
            raise OversizePsdu(f"psdu is {len(self.psdu)} octets, max {PSDU_MAX}")

    @property
    def frame_length(self) -> int:
        return len(self.psdu)


def encode_ppdu(psdu: bytes) -> bytes:
    if len(psdu) > PSDU_MAX:
        raise OversizePsdu(f"psdu is {len(psdu)} octets, max {PSDU_MAX}")
    return PREAMBLE + bytes([SFD, len(psdu)]) + psdu


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
    return Ppdu(psdu)


def crc16(data: bytes) -> int:
    """CRC-16/XMODEM: polynomial 0x1021, init 0x0000, MSB first."""
    return binascii.crc_hqx(data, 0)


@dataclass(frozen=True)
class MacFrame:
    frame_type: FrameType
    sequence: int
    src: NodeAddress | None = None
    dst: NodeAddress | None = None
    security: SecurityMode = SecurityMode.NONE
    payload: bytes = b""

    def __post_init__(self):
        if not 0 <= self.sequence <= 0xFF:
            raise ValueError(f"sequence out of range: {self.sequence}")
        if self.frame_type is FrameType.ACK:
            if self.src is not None or self.dst is not None or self.payload:
                raise FrameError("ACK frames carry no addressing and no payload")
        if len(self.payload) > mac_payload_budget(self.security):
            raise PayloadOverBudget(
                f"payload {len(self.payload)} octets exceeds budget "
                f"{mac_payload_budget(self.security)} for {self.security.name}"
            )


def _encode_address(addr: NodeAddress | None) -> tuple[int, bytes]:
    if addr is None:
        return 0, b""
    if isinstance(addr, Short16):
        return 1, _SHORT_ADDRESS.pack(addr.pan_id, addr.short)
    return 2, b"\xff\xff" + addr.eui


def encode_mac_frame(frame: MacFrame) -> bytes:
    dst_mode, dst_bytes = _encode_address(frame.dst)
    src_mode, src_bytes = _encode_address(frame.src)
    fc0 = frame.frame_type.value | (frame.security.value << 2)
    fc1 = dst_mode | (src_mode << 2)
    body = (
        bytes([fc0, fc1, frame.sequence])
        + dst_bytes
        + src_bytes
        + frame.payload
        + bytes(frame.security.overhead)
    )
    return body + crc16(body).to_bytes(2, "big")


def _decode_address(mode: int, data: bytes, pos: int) -> tuple[NodeAddress | None, int]:
    if mode == 0:
        return None, pos
    if mode == 1:
        if pos + 4 > len(data):
            raise TruncatedFrame("short address truncated")
        return Short16(*_SHORT_ADDRESS.unpack_from(data, pos)), pos + 4
    if mode == 2:
        if pos + 10 > len(data):
            raise TruncatedFrame("EUI-64 address truncated")
        return Eui64(data[pos + 2 : pos + 10]), pos + 10
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
    dst, pos = _decode_address(fc1 & 0x03, body, 3)
    src, pos = _decode_address((fc1 >> 2) & 0x03, body, pos)
    if len(body) - pos < security.overhead:
        raise TruncatedFrame("security filler truncated")
    payload = body[pos : len(body) - security.overhead]
    return MacFrame(frame_type, sequence, src, dst, security, payload)
