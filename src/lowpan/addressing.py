"""IPv6 interface identifiers and addresses from 802.15.4 link addresses.

Two derivation paths exist, one per link-address form:

  * EUI-64: the interface identifier is the EUI with the universal/local
    bit (0x02 of the first octet) complemented.
  * 16-bit short address: a pseudo 48-bit address is built as
    0x0000 | PAN ID | short, expanded to 64 bits by inserting 0xFFFE
    between its third and fourth octets, then the universal/local bit is
    complemented.

Both yield the low 64 bits of a link-local (fe80::/64) or delegated
global address.  `iid_for` packs the short-address form in one step,
0x0200 | PAN high | 0xFFFE | PAN low | short, the same eight octets as
`iid_from_pseudo48(pseudo48(pan_id, short))`; `Short16` has already
range-checked both fields.  `eui64_from_text` is the one reading of an
EUI-64 written as text, for the scenario loader and the command line alike.
"""

from __future__ import annotations

import struct
from ipaddress import IPv6Address

from .frame import Eui64, NodeAddress, Short16

LINK_LOCAL_PREFIX = bytes.fromhex("fe80000000000000")
UNIVERSAL_LOCAL_BIT = 0x02
# a short address's IID: U/L-flipped zero octets, PAN high, 0xFFFE, PAN low, short
_SHORT_IID = struct.Struct(">HBHBH")


def iid_from_eui64(eui: bytes) -> bytes:
    """Interface identifier from an EUI-64 (universal/local bit flipped)."""
    if len(eui) != 8:
        raise ValueError(f"EUI-64 must be 8 octets, got {len(eui)}")
    return bytes([eui[0] ^ UNIVERSAL_LOCAL_BIT]) + eui[1:]


def eui64_from_text(text: str) -> bytes:
    """An EUI-64 written as 16 hex digits, its octets optionally split by colons or dashes."""
    try:
        eui = bytes.fromhex(text.replace(":", "").replace("-", ""))
    except ValueError:
        eui = b""
    if len(eui) != 8:
        raise ValueError(f"not an EUI-64 of 8 octets: {text!r}")
    return eui


def pseudo48(pan_id: int, short: int) -> bytes:
    """Pseudo 48-bit address: 16 zero bits, then PAN ID, then short."""
    if not 0 <= pan_id <= 0xFFFF or not 0 <= short <= 0xFFFF:
        raise ValueError("pan_id and short must be 16-bit values")
    return b"\x00\x00" + pan_id.to_bytes(2, "big") + short.to_bytes(2, "big")


def iid_from_pseudo48(addr48: bytes) -> bytes:
    """Interface identifier from a 48-bit address (0xFFFE insertion + U/L flip)."""
    if len(addr48) != 6:
        raise ValueError(f"48-bit address must be 6 octets, got {len(addr48)}")
    return iid_from_eui64(addr48[:3] + b"\xff\xfe" + addr48[3:])


def iid_for(addr: NodeAddress) -> bytes:
    """Interface identifier for whichever link-address form is given."""
    if isinstance(addr, Eui64):
        return iid_from_eui64(addr.eui)
    if isinstance(addr, Short16):
        pan_id, short = addr
        return _SHORT_IID.pack(UNIVERSAL_LOCAL_BIT << 8, pan_id >> 8, 0xFFFE, pan_id & 0xFF, short)
    raise TypeError(f"not a link address: {addr!r}")


def link_local(iid: bytes) -> IPv6Address:
    if len(iid) != 8:
        raise ValueError("interface identifier must be 8 octets")
    return IPv6Address(LINK_LOCAL_PREFIX + iid)


def global_unicast(prefix: IPv6Address, iid: bytes) -> IPv6Address:
    """Delegated 64-bit prefix concatenated with the interface identifier."""
    if len(iid) != 8:
        raise ValueError("interface identifier must be 8 octets")
    return IPv6Address(prefix.packed[:8] + iid)


def iid_of(address: IPv6Address) -> bytes:
    """Low 64 bits of an address (inverse of link_local/global_unicast)."""
    return address.packed[8:]


def is_link_local(address: IPv6Address) -> bool:
    return address.packed[:8] == LINK_LOCAL_PREFIX
