import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def test_ppdu_ack_size():
    assert len(encode_ppdu(bytes(5))) == 11


def test_ppdu_empty():
    encoded = encode_ppdu(b"")
    assert len(encoded) == 6
    assert decode_ppdu(encoded).frame_length == 0


def test_ppdu_oversize():
    with pytest.raises(OversizePsdu):
        encode_ppdu(bytes(128))


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


@pytest.mark.parametrize("src", [None, Short16(0xBEEF, 1), EUI_A])
@pytest.mark.parametrize("dst", [None, Short16(0xBEEF, 2), EUI_B])
@pytest.mark.parametrize("security", SecurityMode)
def test_mac_roundtrip(src, dst, security):
    frame = MacFrame(FrameType.DATA, 42, src=src, dst=dst, security=security, payload=b"payload")
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


def test_truncated_frame():
    with pytest.raises(TruncatedFrame):
        decode_mac_frame(b"\x01\x00")


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
        decode_mac_frame(data)
    except FrameError:
        pass


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
