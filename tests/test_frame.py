import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from value_checks import check_rebuild, raises_exactly as _raises_exactly

from lowpan.codec import MeshHeader
from lowpan.frame import (
    ACK_FRAME_OCTETS,
    MAC_OVERHEAD,
    PHY_OVERHEAD,
    PSDU_MAX,
    BadPreamble,
    BadSfd,
    Eui64,
    FcsMismatch,
    FrameError,
    FrameType,
    MacFrame,
    MalformedPpdu,
    OversizePsdu,
    PayloadOverBudget,
    PhyBand,
    Ppdu,
    SecurityMode,
    Short16,
    TruncatedFrame,
    crc16,
    decode_mac_frame,
    decode_ppdu,
    encode_mac_frame,
    encode_ppdu,
    frame_airtime,
    mac_payload_budget,
)

EUI_A = Eui64(bytes.fromhex("00124b0000000001"))
EUI_B = Eui64(bytes.fromhex("00124b0000000002"))


def test_budget_values():
    assert mac_payload_budget(SecurityMode.NONE) == 102
    assert mac_payload_budget(SecurityMode.AES_CCM_128) == 81
    assert mac_payload_budget(SecurityMode.AES_CCM_32) == 93
    assert mac_payload_budget(SecurityMode.AES_CCM_64) == 89


@pytest.mark.parametrize("mode", SecurityMode)
def test_budget_identity(mode):
    assert mac_payload_budget(mode) + MAC_OVERHEAD + mode.overhead == PSDU_MAX
    assert mac_payload_budget(mode) == mode.budget == PSDU_MAX - MAC_OVERHEAD - mode.overhead


def test_security_overheads():
    assert [m.overhead for m in SecurityMode] == [0, 9, 13, 21]


def test_band_table():
    assert PhyBand.B868.bit_rate == 20_000
    assert PhyBand.B915.bit_rate == 40_000
    assert PhyBand.B2450.bit_rate == 250_000
    assert PhyBand.B868.channel_range == (0, 0)
    assert PhyBand.B915.channel_range == (1, 10)
    assert PhyBand.B2450.channel_range == (11, 26)


# --- PPDU ---------------------------------------------------------------

def test_ppdu_roundtrip_all_lengths():
    for n in range(PSDU_MAX + 1):
        psdu = bytes(i & 0xFF for i in range(n))
        encoded = encode_ppdu(psdu)
        assert len(encoded) == PHY_OVERHEAD + n
        assert decode_ppdu(encoded).psdu == psdu
        check_rebuild(decode_ppdu(encoded))


def test_ppdu_ack_size():
    assert len(encode_ppdu(bytes(5))) == 11


def test_ppdu_empty():
    encoded = encode_ppdu(b"")
    assert len(encoded) == 6
    assert decode_ppdu(encoded).frame_length == 0


def test_ppdu_oversize():
    with pytest.raises(OversizePsdu):
        encode_ppdu(bytes(128))
    _raises_exactly(OversizePsdu, "psdu is 128 octets, max 127", lambda: Ppdu(bytes(128)))
    _raises_exactly(OversizePsdu, "psdu is 128 octets, max 127", lambda: encode_ppdu(bytes(128)))
    _raises_exactly(OversizePsdu, "psdu is 128 octets, max 127", lambda: Ppdu(b"")._replace(psdu=bytes(128)))


def test_ppdu_decode_errors():
    good = encode_ppdu(b"ab")
    with pytest.raises(BadPreamble):
        decode_ppdu(b"\x01" + good[1:])
    with pytest.raises(BadSfd):
        decode_ppdu(good[:4] + b"\xa7" + good[5:])
    with pytest.raises(MalformedPpdu):
        decode_ppdu(good[:5] + bytes([0x80 | 2]) + good[6:])
    with pytest.raises(MalformedPpdu):
        decode_ppdu(good[:-1])  # length octet disagrees


# --- MAC frames ----------------------------------------------------------

def test_ack_is_five_octets():
    ack = MacFrame(FrameType.ACK, sequence=7)
    assert len(encode_mac_frame(ack)) == ACK_FRAME_OCTETS
    assert decode_mac_frame(encode_mac_frame(ack)) == ack


def test_ack_rejects_addressing():
    with pytest.raises(ValueError):
        MacFrame(FrameType.ACK, 0, src=Short16(1, 2))
    with pytest.raises(ValueError):
        MacFrame(FrameType.ACK, 0, payload=b"x")


def test_fully_addressed_data_frame_overhead_is_25():
    frame = MacFrame(FrameType.DATA, 1, src=EUI_A, dst=EUI_B, payload=b"")
    assert len(encode_mac_frame(frame)) == MAC_OVERHEAD


def test_other_frames_at_least_ack_size():
    for ftype in (FrameType.BEACON, FrameType.DATA, FrameType.COMMAND):
        frame = MacFrame(ftype, 0, src=Short16(1, 2), dst=Short16(1, 3))
        assert len(encode_mac_frame(frame)) >= ACK_FRAME_OCTETS


# the short/short frame of test_mac_roundtrip on the wire, by security suite:
# fc0 (type | suite << 2), fc1 (dst mode | src mode << 2), sequence, dst PAN +
# short, src PAN + short, payload, suite filler, FCS
SHORT_SHORT_WIRE = {
    SecurityMode.NONE: "01052abeef0002beef00017061796c6f6164" "bbfe",
    SecurityMode.AES_CCM_32: "05052abeef0002beef00017061796c6f6164" + "00" * 9 + "c90f",
    SecurityMode.AES_CCM_64: "09052abeef0002beef00017061796c6f6164" + "00" * 13 + "45c8",
    SecurityMode.AES_CCM_128: "0d052abeef0002beef00017061796c6f6164" + "00" * 21 + "c17e",
}


def _same_mode(addr):
    """Addresses drawn over the whole range of `addr`'s addressing mode."""
    if isinstance(addr, Short16):
        return st.builds(Short16, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    if isinstance(addr, Eui64):
        return st.builds(Eui64, st.binary(min_size=8, max_size=8))
    return st.none()


@pytest.mark.parametrize("src", [None, Short16(0xBEEF, 1), EUI_A])
@pytest.mark.parametrize("dst", [None, Short16(0xBEEF, 2), EUI_B])
@pytest.mark.parametrize("security", SecurityMode)
@settings(max_examples=20)  # per addressing-mode and suite case: 540 drawn frames
@given(data=st.data())
def test_mac_roundtrip(src, dst, security, data):
    frame = MacFrame(FrameType.DATA, 42, src=src, dst=dst, security=security, payload=b"payload")
    wire = encode_mac_frame(frame)
    assert decode_mac_frame(wire) == frame
    if isinstance(src, Short16) and isinstance(dst, Short16):
        assert wire.hex() == SHORT_SHORT_WIRE[security]
    # the same addressing modes and suite, every other field drawn
    frame = MacFrame(
        data.draw(st.sampled_from([t for t in FrameType if t is not FrameType.ACK])),
        data.draw(st.integers(0, 0xFF)),
        src=data.draw(_same_mode(src)),
        dst=data.draw(_same_mode(dst)),
        security=security,
        payload=data.draw(st.binary(max_size=mac_payload_budget(security))),
    )
    assert decode_mac_frame(encode_mac_frame(frame)) == frame


def test_full_budget_payload_fits_psdu():
    frame = MacFrame(
        FrameType.DATA, 0, src=EUI_A, dst=EUI_B,
        payload=bytes(mac_payload_budget(SecurityMode.NONE)),
    )
    assert len(encode_mac_frame(frame)) == PSDU_MAX


def test_payload_over_budget():
    with pytest.raises(PayloadOverBudget):
        MacFrame(FrameType.DATA, 0, payload=bytes(103))
    with pytest.raises(PayloadOverBudget):
        MacFrame(FrameType.DATA, 0, security=SecurityMode.AES_CCM_128, payload=bytes(82))


def test_fcs_detects_corruption():
    data = bytearray(encode_mac_frame(MacFrame(FrameType.DATA, 3, payload=b"abc")))
    data[4] ^= 0x01
    with pytest.raises(FcsMismatch):
        decode_mac_frame(bytes(data))


def test_decode_runs_the_checks_its_input_can_fail():
    ack = bytes.fromhex("020107beef0001")  # an ACK with a short destination address
    _raises_exactly(
        FrameError, "ACK frames carry no addressing and no payload",
        lambda: decode_mac_frame(ack + crc16(ack).to_bytes(2, "big")),
    )
    over = bytes.fromhex("010500beef0002beef0001") + bytes(103)  # fits the PSDU, not the budget
    _raises_exactly(
        PayloadOverBudget, "payload 103 octets exceeds budget 102 for NONE",
        lambda: decode_mac_frame(over + crc16(over).to_bytes(2, "big")),
    )


def test_truncated_frame():
    with pytest.raises(TruncatedFrame):
        decode_mac_frame(b"\x01\x00")
    # short/short addressing modes, but the source address is cut short
    body = bytes.fromhex("01052abeef0002beef")
    with pytest.raises(TruncatedFrame, match="short address truncated"):
        decode_mac_frame(body + crc16(body).to_bytes(2, "big"))


# --- value types ------------------------------------------------------------

def test_value_types_keep_their_checks():
    addr = Short16(0xBEEF, 1)
    frame = MacFrame(FrameType.DATA, 7, src=addr, dst=EUI_B, payload=b"hi")
    mesh = MeshHeader(addr, EUI_B, 5)

    # every range check, with its error class and message
    _raises_exactly(ValueError, "pan_id out of range: -1", lambda: Short16(-1, 0))
    _raises_exactly(ValueError, "pan_id out of range: 65536", lambda: Short16(0x10000, 0))
    _raises_exactly(ValueError, "short address out of range: 65536", lambda: Short16(0, 0x10000))
    _raises_exactly(ValueError, "EUI-64 must be 8 octets, got 7", lambda: Eui64(bytes(7)))
    _raises_exactly(ValueError, "sequence out of range: 256", lambda: MacFrame(FrameType.DATA, 256))
    _raises_exactly(ValueError, "sequence out of range: -1", lambda: MacFrame(FrameType.DATA, -1))
    _raises_exactly(ValueError, "hops_left out of range: 16", lambda: MeshHeader(addr, addr, 16))
    _raises_exactly(ValueError, "hops_left out of range: -1", lambda: MeshHeader(addr, addr, -1))
    ack_error = "ACK frames carry no addressing and no payload"
    _raises_exactly(FrameError, ack_error, lambda: MacFrame(FrameType.ACK, 0, src=addr))
    _raises_exactly(FrameError, ack_error, lambda: MacFrame(FrameType.ACK, 0, dst=addr))
    _raises_exactly(FrameError, ack_error, lambda: MacFrame(FrameType.ACK, 0, payload=b"x"))
    for mode in SecurityMode:
        budget = mac_payload_budget(mode)
        MacFrame(FrameType.DATA, 0, security=mode, payload=bytes(budget))
        _raises_exactly(
            PayloadOverBudget,
            f"payload {budget + 1} octets exceeds budget {budget} for {mode.name}",
            lambda: MacFrame(FrameType.DATA, 0, security=mode, payload=bytes(budget + 1)),
        )
    # no other way to build one skips them
    _raises_exactly(ValueError, "short address out of range: 65536", lambda: Short16._make((1, 0x10000)))
    _raises_exactly(ValueError, "sequence out of range: 256", lambda: frame._replace(sequence=256))
    _raises_exactly(ValueError, "hops_left out of range: 16", lambda: mesh._replace(hops_left=16))
    _raises_exactly(ValueError, "EUI-64 must be 8 octets, got 9", lambda: Eui64._make((bytes(9),)))
    assert frame._replace(sequence=8) == MacFrame(FrameType.DATA, 8, src=addr, dst=EUI_B, payload=b"hi")

    # immutable
    for value, field in ((addr, "short"), (frame, "sequence"), (mesh, "hops_left")):
        with pytest.raises(AttributeError):
            setattr(value, field, 2)
        with pytest.raises(AttributeError):
            value.extra = 2

    # hashed and compared by value, and only within one class
    assert addr == Short16(0xBEEF, 1) and hash(addr) == hash(Short16(0xBEEF, 1))
    assert addr != Short16(0xBEEF, 2) and not addr == Short16(0xBEEF, 2)
    assert frame == MacFrame(FrameType.DATA, 7, src=Short16(0xBEEF, 1), dst=EUI_B, payload=b"hi")
    assert hash(frame) == hash(MacFrame(FrameType.DATA, 7, src=addr, dst=EUI_B, payload=b"hi"))
    assert mesh == MeshHeader(Short16(0xBEEF, 1), EUI_B, 5) and mesh != MeshHeader(addr, EUI_B, 4)
    assert len({addr, Short16(0xBEEF, 1), mesh, MeshHeader(addr, EUI_B, 5)}) == 2
    assert Short16(0, 0) != Eui64(bytes(8)) and Eui64(bytes(8)) != Short16(0, 0)
    assert addr != (0xBEEF, 1) and (0xBEEF, 1) != addr

    assert repr(addr) == "Short16(pan_id=48879, short=1)"
    assert repr(frame) == (
        "MacFrame(frame_type=<FrameType.DATA: 1>, sequence=7, src=Short16(pan_id=48879, short=1), "
        "dst=Eui64(eui=b'\\x00\\x12K\\x00\\x00\\x00\\x00\\x02'), security=<SecurityMode.NONE: 0>, "
        "payload=b'hi')"
    )
    assert repr(mesh) == (
        "MeshHeader(originator=Short16(pan_id=48879, short=1), "
        "final=Eui64(eui=b'\\x00\\x12K\\x00\\x00\\x00\\x00\\x02'), hops_left=5)"
    )


def _crc16_table_oracle(data: bytes) -> int:
    # table-driven restatement of the same polynomial, as a cross-check
    table = []
    for value in range(256):
        crc = value << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
        table.append(crc)
    crc = 0
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ table[((crc >> 8) ^ byte) & 0xFF]
    return crc


@given(st.binary(max_size=PSDU_MAX))
def test_crc16_matches_table_oracle(data):
    assert crc16(data) == _crc16_table_oracle(data)


@settings(max_examples=300)
@example(bytes.fromhex("020107beef0001"))  # an ACK with a short destination address
@given(st.binary(min_size=ACK_FRAME_OCTETS - 2, max_size=PSDU_MAX - 2))
def test_decode_raises_only_frame_errors(body):
    # a valid FCS gets random octets past the checksum and into the field parsers
    data = body + _crc16_table_oracle(body).to_bytes(2, "big")
    try:
        frame = decode_mac_frame(data)
    except FrameError:
        return
    check_rebuild(frame)


# --- airtime ---------------------------------------------------------------

def test_airtime_values():
    assert frame_airtime(PhyBand.B2450, 133) == pytest.approx(4.256e-3, abs=1e-6)
    assert frame_airtime(PhyBand.B915, 133) == pytest.approx(26.6e-3, abs=1e-6)
    assert frame_airtime(PhyBand.B868, 133) == pytest.approx(53.2e-3, abs=1e-6)
    assert frame_airtime(PhyBand.B2450, 0) == 0.0


def test_airtime_monotonic():
    for band in PhyBand:
        times = [frame_airtime(band, n) for n in range(134)]
        assert all(a < b for a, b in zip(times, times[1:]))
    by_rate = sorted(PhyBand, key=lambda b: b.bit_rate)
    for slower, faster in zip(by_rate, by_rate[1:]):
        assert frame_airtime(slower, 100) > frame_airtime(faster, 100)


def test_airtime_range_check():
    with pytest.raises(ValueError):
        frame_airtime(PhyBand.B2450, 134)
