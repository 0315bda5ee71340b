"""The stream-id registry: every consumer draws from its own range."""

import pytest

from dyngibbs import cli
from dyngibbs.rng import (
    BASELINE_STREAM_OFFSET,
    BENCH_STREAM_OFFSET,
    UPDATE_EPOCHS,
    UPDATE_STREAM_OFFSET,
    VERIFY_FRESH_STREAM_OFFSET,
    VERIFY_UPDATE_STREAM_OFFSET,
    make_stream,
    rekey,
    update_stream,
)

MAX_CHAIN = (1 << 32) - 1
MAX_EPOCH = UPDATE_EPOCHS - 1

# [start, end) of each range, in the order rng.py documents them
RANGES = {
    "direct run_chain": (0, BASELINE_STREAM_OFFSET),
    "pool chains": (BASELINE_STREAM_OFFSET, UPDATE_STREAM_OFFSET),
    "replay": (update_stream(0, 0), update_stream(MAX_EPOCH, MAX_CHAIN) + 1),
    "bench baselines": (BENCH_STREAM_OFFSET, VERIFY_UPDATE_STREAM_OFFSET),
    "verify updated": (VERIFY_UPDATE_STREAM_OFFSET, VERIFY_FRESH_STREAM_OFFSET),
    "verify fresh": (VERIFY_FRESH_STREAM_OFFSET, 1 << 64),
}


def test_ranges_are_disjoint_and_fit_64_bits():
    spans = sorted(RANGES.values())
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start
    assert spans[0][0] >= 0 and spans[-1][1] <= 1 << 64


def test_former_collisions_are_gone():
    # the bench baseline used to equal update_stream(2, 0), and verify's ids
    # update_stream(254, i) and update_stream(255, i)
    assert BENCH_STREAM_OFFSET != update_stream(2, 0)
    for i in (0, 1, 14_999):
        assert VERIFY_UPDATE_STREAM_OFFSET + i not in (
            update_stream(254, i), update_stream(255, i))
        assert VERIFY_FRESH_STREAM_OFFSET + i not in (
            update_stream(254, i), update_stream(255, i))
    assert not hasattr(cli, "_BENCH_STREAM")


def test_update_stream_values_unchanged():
    # seeded `run` output depends on these exact ids
    assert update_stream(0, 0) == 1 << 33
    assert update_stream(3, 7) == (1 << 33) + (3 << 32) + 7


def test_update_stream_refuses_to_leave_its_range():
    for epoch, chain in ((0, 1 << 32), (1, -1), (-1, 0), (UPDATE_EPOCHS, 0)):
        with pytest.raises(ValueError):
            update_stream(epoch, chain)
    # the last chain of an epoch and the first of the next stay distinct
    assert update_stream(0, MAX_CHAIN) + 1 == update_stream(1, 0)


def _mixed_draws(rng, count=13):
    # Alternate float64 uniforms with 32-bit integers, which use half a
    # buffered 64-bit word, so leftover buffer state would show.
    return [rng.random() if k % 3 else int(rng.integers(0, 1000, dtype="int32"))
            for k in range(count)]


@pytest.mark.parametrize("seed, stream", [(1, 2), (2**64 - 1, 2**63 + 5), (0, 0)])
def test_rekey_draws_what_a_new_stream_draws(seed, stream):
    rng = make_stream(7, 9)
    rng.random()
    rng.integers(0, 10, dtype="int32")  # leaves half a word buffered
    assert rekey(rng, seed, stream) is rng
    assert _mixed_draws(rng) == _mixed_draws(make_stream(seed, stream))
