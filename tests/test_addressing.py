from ipaddress import IPv6Address

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from value_checks import raises_exactly

from lowpan import addressing
from lowpan.frame import Eui64, Short16


def test_iid_from_eui64_flips_universal_local_bit():
    eui = bytes.fromhex("00124b0001020304")
    assert addressing.iid_from_eui64(eui) == bytes.fromhex("02124b0001020304")
    assert addressing.iid_from_eui64(bytes.fromhex("0200000000000001")) == bytes.fromhex(
        "0000000000000001"
    )


@given(st.binary(min_size=8, max_size=8))
def test_iid_from_eui64_is_involution(eui):
    once = addressing.iid_from_eui64(eui)
    assert addressing.iid_from_eui64(once) == eui
    # exactly one bit differs
    diff = int.from_bytes(eui, "big") ^ int.from_bytes(once, "big")
    assert diff.bit_count() == 1


def test_pseudo48():
    assert addressing.pseudo48(0xABCD, 0x1234) == bytes.fromhex("0000abcd1234")
    assert addressing.pseudo48(0, 0) == bytes(6)
    for pan_id, short in ((0x10000, 0), (0, -1)):
        raises_exactly(
            ValueError, "pan_id and short must be 16-bit values", lambda: addressing.pseudo48(pan_id, short)
        )


@example(0, 0)
@example(0xFFFF, 0xFFFF)
@example(0x00FF, 0xFF00)
@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_short_iid_is_the_pseudo48_derivation(pan_id, short):
    # iid_for packs a short address's IID in one step; it must equal the
    # three-step derivation: pseudo 48-bit address, 0xFFFE insertion, U/L flip
    expected = addressing.iid_from_pseudo48(addressing.pseudo48(pan_id, short))
    assert addressing.iid_for(Short16(pan_id, short)) == expected


def test_pseudo48_injective_on_grid():
    seen = set()
    for pan in range(0, 0x10000, 0x111):
        for short in range(0, 0x10000, 0x333):
            value = addressing.pseudo48(pan, short)
            assert value not in seen
            seen.add(value)


def test_iid_from_pseudo48():
    assert addressing.iid_from_pseudo48(bytes.fromhex("0000abcd1234")) == bytes.fromhex(
        "0200abfffecd1234"
    )
    assert addressing.iid_from_pseudo48(bytes(6)) == bytes.fromhex("020000fffe000000")


@given(st.binary(min_size=6, max_size=6))
def test_iid_from_pseudo48_structure(addr48):
    iid = addressing.iid_from_pseudo48(addr48)
    assert iid[3:5] == b"\xff\xfe"


def test_iid_for_both_forms_differ():
    # the two derivations of one node generally disagree, so elision must
    # track the address form actually present in the MAC frame
    short = Short16(0xBEEF, 0x0001)
    eui = Eui64(bytes.fromhex("00124b0000000001"))
    assert addressing.iid_for(short) != addressing.iid_for(eui)
    raises_exactly(TypeError, "not a link address: b'\\x00\\x01'", lambda: addressing.iid_for(b"\x00\x01"))


def test_link_local():
    iid = bytes.fromhex("02124b0001020304")
    assert addressing.link_local(iid) == IPv6Address("fe80::212:4b00:102:304")


def test_global_unicast_keeps_iid():
    prefix = IPv6Address("2001:db8::")
    iid = bytes.fromhex("02124b0001020304")
    address = addressing.global_unicast(prefix, iid)
    assert addressing.iid_of(address) == iid
    assert address.packed[:8] == prefix.packed[:8]


@given(st.binary(min_size=8, max_size=8))
def test_link_local_roundtrip(iid):
    address = addressing.link_local(iid)
    assert addressing.is_link_local(address)
    assert addressing.iid_of(address) == iid


def test_length_validation():
    with pytest.raises(ValueError):
        addressing.iid_from_eui64(b"short")
    with pytest.raises(ValueError):
        addressing.iid_from_pseudo48(b"toolong" * 2)
    with pytest.raises(ValueError):
        addressing.link_local(b"bad")
    raises_exactly(
        ValueError, "interface identifier must be 8 octets",
        lambda: addressing.global_unicast(IPv6Address("2001:db8::"), b"bad"),
    )


def test_eui64_text_takes_colons_dashes_or_neither():
    plain = bytes.fromhex("00124b0001020304")
    for text in ("00:12:4b:00:01:02:03:04", "00-12-4b-00-01-02-03-04", "00124b0001020304"):
        assert addressing.eui64_from_text(text) == plain
    for text in ("zz", "00:12:4b", "00124b000102030405"):
        with pytest.raises(ValueError, match="not an EUI-64 of 8 octets"):
            addressing.eui64_from_text(text)
