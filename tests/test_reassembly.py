import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowpan.codec import CodecError, decode_frag, encode_frag_subsequent
from lowpan.frame import Short16
from lowpan.reassembly import (
    REASSEMBLY_TIMEOUT,
    BudgetTooSmall,
    DatagramTooLarge,
    FragmentOutcome,
    FragmentationContext,
    InconsistentSize,
    OverlapMismatch,
    ReassemblyError,
    accept_fragment,
    fragment,
)

SRC = Short16(0xBEEF, 0x0001)


def _pattern(n: int) -> bytes:
    return bytes((i * 31 + 5) & 0xFF for i in range(n))


def _reassemble(frames, src=SRC, start=0.0, step=0.0):
    table = {}
    now = start
    result = None
    for frame in frames:
        result = accept_fragment(table, src, frame, now)
        now += step
    return result


def test_1280_at_budget_102():
    datagram = _pattern(1280)
    frames = fragment(datagram, 102, FragmentationContext())
    assert len(frames) == 14
    first_header, consumed = decode_frag(frames[0])
    assert first_header.datagram_size == 1280 and first_header.first
    assert len(frames[0]) - consumed == 96  # (102 - 4) rounded down to x8
    for frame in frames[1:-1]:
        header, consumed = decode_frag(frame)
        assert len(frame) - consumed == 96  # (102 - 5) -> 97 -> 96
    assert sum(len(f) - decode_frag(f)[1] for f in frames) == 1280
    result = _reassemble(frames)
    assert result.outcome is FragmentOutcome.COMPLETE
    assert result.datagram == datagram


def test_small_datagram_unfragmented():
    frames = fragment(_pattern(80), 102, FragmentationContext())
    assert frames == [_pattern(80)]


def test_datagram_too_large():
    with pytest.raises(DatagramTooLarge):
        fragment(bytes(2048), 102, FragmentationContext())


def test_budget_too_small():
    with pytest.raises(BudgetTooSmall):
        fragment(bytes(100), 15, FragmentationContext())


def test_minimum_budget_works():
    datagram = _pattern(100)
    frames = fragment(datagram, 16, FragmentationContext())
    assert _reassemble(frames).datagram == datagram


def test_all_fragments_share_tag_and_size():
    frames = fragment(_pattern(500), 60, FragmentationContext(next_tag=99))
    headers = [decode_frag(f)[0] for f in frames]
    assert {h.tag for h in headers} == {99}
    assert {h.datagram_size for h in headers} == {500}
    assert headers[0].first and not any(h.first for h in headers[1:])


def test_tag_freshness():
    ctx = FragmentationContext(next_tag=0xFFFF)
    first = decode_frag(fragment(bytes(200), 50, ctx)[0])[0]
    second = decode_frag(fragment(bytes(200), 50, ctx)[0])[0]
    assert first.tag == 0xFFFF
    assert second.tag == 0x0000  # wraps mod 2^16


def test_reverse_order_delivery():
    datagram = _pattern(777)
    frames = fragment(datagram, 80, FragmentationContext())
    result = _reassemble(list(reversed(frames)))
    assert result.outcome is FragmentOutcome.COMPLETE
    assert result.datagram == datagram


def test_shuffled_roundtrip_randomized():
    rng = random.Random(60214)
    for _ in range(200):
        datagram = rng.randbytes(rng.randrange(1, 2048))
        budget = rng.randrange(16, 128)
        frames = fragment(datagram, budget, FragmentationContext(next_tag=rng.randrange(0x10000)))
        rng.shuffle(frames)
        if len(frames) == 1:
            assert frames[0] == datagram
            continue
        result = _reassemble(frames)
        assert result.outcome is FragmentOutcome.COMPLETE
        assert result.datagram == datagram


def test_duplicate_fragment_is_idempotent():
    frames = fragment(_pattern(300), 60, FragmentationContext())
    table = {}
    assert accept_fragment(table, SRC, frames[0], 0.0).outcome is FragmentOutcome.PENDING
    assert accept_fragment(table, SRC, frames[0], 1.0).outcome is FragmentOutcome.PENDING
    state = {k: dict(b.received) for k, b in table.items()}
    accept_fragment(table, SRC, frames[0], 2.0)
    assert {k: dict(b.received) for k, b in table.items()} == state


def test_timeout_drops_old_buffer():
    frames = fragment(_pattern(300), 60, FragmentationContext())
    table = {}
    accept_fragment(table, SRC, frames[0], 0.0)
    result = accept_fragment(table, SRC, frames[1], 61.0)
    assert result.outcome is FragmentOutcome.DROPPED
    assert result.reason == "timeout"
    # the late fragment seeded a fresh buffer
    (buffer,) = table.values()
    assert buffer.started_at == 61.0
    assert len(buffer.received) == 1


def test_a_fragment_that_opens_a_buffer_names_its_key():
    frames = fragment(_pattern(300), 60, FragmentationContext())
    table = {}
    assert accept_fragment(table, SRC, frames[0], 0.0).opened == (SRC, 0)
    assert accept_fragment(table, SRC, frames[1], 1.0).opened is None
    late = accept_fragment(table, SRC, frames[2], 62.0)
    assert late.outcome is FragmentOutcome.DROPPED and late.opened == (SRC, 0)


def test_a_rejected_fragment_leaves_no_buffer():
    table = {}
    with pytest.raises(InconsistentSize):
        accept_fragment(table, SRC, encode_frag_subsequent(16, 0, 1) + bytes(16), 0.0)
    assert table == {}


def test_within_window_still_accepts():
    frames = fragment(_pattern(300), 60, FragmentationContext())
    table = {}
    accept_fragment(table, SRC, frames[0], 0.0)
    assert accept_fragment(table, SRC, frames[1], REASSEMBLY_TIMEOUT).outcome is (
        FragmentOutcome.PENDING if len(frames) > 2 else FragmentOutcome.COMPLETE
    )


def test_keys_are_per_source_and_tag():
    other = Short16(0xBEEF, 0x0002)
    frames = fragment(_pattern(300), 60, FragmentationContext())
    table = {}
    accept_fragment(table, SRC, frames[0], 0.0)
    accept_fragment(table, other, frames[0], 0.0)
    assert len(table) == 2


def test_inconsistent_size():
    ctx = FragmentationContext()
    frames_a = fragment(_pattern(300), 60, ctx)
    frames_b = fragment(_pattern(400), 60, FragmentationContext())  # same tag 0
    table = {}
    accept_fragment(table, SRC, frames_a[0], 0.0)
    with pytest.raises(InconsistentSize):
        accept_fragment(table, SRC, frames_b[1], 0.0)


def test_overlap_mismatch():
    frames = fragment(_pattern(300), 60, FragmentationContext())
    table = {}
    accept_fragment(table, SRC, frames[0], 0.0)
    corrupted = frames[0][:4] + b"\xff" + frames[0][5:]
    with pytest.raises(OverlapMismatch):
        accept_fragment(table, SRC, corrupted, 0.0)


_FRAG_FRAMES = st.tuples(
    st.sampled_from([SRC, Short16(0xBEEF, 0x0002)]),
    st.one_of(st.integers(0xC0, 0xC7), st.integers(0xE0, 0xE7), st.integers(0, 0xFF)),
    st.integers(0, 0xFF),  # low octet of the datagram size
    st.sampled_from([b"\x00\x01", b"\x00\x02"]),  # two tags, so buffers collide
    st.binary(max_size=40),  # offset octet (subsequent fragments) and payload
    st.floats(0, 2 * REASSEMBLY_TIMEOUT),  # time since the previous frame
)


@settings(max_examples=300)
@given(st.lists(_FRAG_FRAMES, max_size=12))
def test_accept_fragment_raises_only_its_error_families(frames):
    table = {}
    now = 0.0
    for src, first, size_low, tag, rest, gap in frames:
        now += gap
        try:
            accept_fragment(table, src, bytes([first, size_low]) + tag + rest, now)
        except (CodecError, ReassemblyError):
            pass  # the simulator's receive path catches exactly these two
