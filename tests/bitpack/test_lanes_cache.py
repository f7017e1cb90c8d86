"""The lane-plan caches must stay small whatever counts they see.

Plans are keyed by width (and window grain) only and hold one segment of
``lanes.SEGMENT`` values; longer streams run one segment at a time with
the same plan.  A long-running service sees an unbounded stream of
distinct counts, so these tests pin that counts never mint plans, that
the caches' bytes stay under a fixed bound with every width built, and
that segmented kernels stay byte-identical to the bit-matrix reference.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.bitpack import lanes
from repro.bitpack.packing import pack_words, unpack_words
from tests.bitpack.test_packing import _reference_pack, _reference_unpack

_PLAN_CACHES = (
    lanes._single_gather_pack_plan,
    lanes._pair_pack_plan,
    lanes._boundary_unpack_plan,
    lanes._two_lane_unpack_plan,
)

#: Bytes all plan caches together may hold with every width of both
#: word sizes built (measured: 11.2 MiB at a 4096-value segment).
PLAN_BYTES_BOUND = 12 * 2**20

#: Counts that are not a multiple of the segment, plus exact multiples.
_SEGMENT_COUNTS = (
    lanes.SEGMENT - 1, lanes.SEGMENT, lanes.SEGMENT + 1,
    2 * lanes.SEGMENT, 3 * lanes.SEGMENT + 5,
)


def _words(rng, n: int, width: int, word_bits: int) -> np.ndarray:
    dtype = np.uint32 if word_bits == 32 else np.uint64
    bits = rng.integers(0, 2**63, n, dtype=np.uint64) ^ (
        rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    )
    return (bits & np.uint64((1 << width) - 1)).astype(dtype)


def _clear() -> None:
    for fn in _PLAN_CACHES:
        fn.cache_clear()


def test_every_plan_cache_uses_shared_bound():
    # Every plan holds exactly one segment, whatever count built it:
    # pack plans one window per ``win`` bits of SEGMENT values, unpack
    # plans one entry per value.
    n = 5 * lanes.SEGMENT + 3
    rng = np.random.default_rng(5)
    for width, word_bits in ((13, 32), (21, 32), (13, 64), (45, 64), (53, 64)):
        words = _words(rng, n, width, word_bits)
        unpack_words(pack_words(words, width, word_bits), n, width, word_bits)
    for width, win in ((13, 32), (21, 32), (45, 16)):
        for plan in lanes._single_gather_pack_plan(width, win):
            assert len(plan) == lanes.SEGMENT * width // win
    for plan in lanes._pair_pack_plan(53):
        assert len(plan) == lanes.SEGMENT * 53 // 32
    for key in ((13, 16, "u4"), (21, 32, "u8"), (13, 32, "u8")):
        for plan in lanes._boundary_unpack_plan(*key):
            assert len(plan) == lanes.SEGMENT
    for plan in lanes._two_lane_unpack_plan(45):
        assert len(plan) == lanes.SEGMENT


def test_caches_stay_bounded_under_shape_churn():
    _clear()
    rng = np.random.default_rng(0xCACE)
    # Many distinct (n, width) shapes across widths that exercise every
    # planning regime (single-gather, pair-window, boundary, two-lane):
    # the caches grow with the widths seen, never with the counts.
    widths = (3, 5, 9, 13, 21, 29, 33, 47, 52, 63)
    counts = [*range(1, 103), *_SEGMENT_COUNTS]
    for width in widths:
        word_bits = 64 if width > 32 else 32
        for n in counts:
            w = _words(rng, n, width, word_bits)
            assert np.array_equal(
                unpack_words(pack_words(w, width, word_bits), n, width, word_bits), w
            )
    for fn in _PLAN_CACHES:
        info = fn.cache_info()
        assert info.currsize <= len(widths), fn.__name__
        assert info.hits > 10 * info.misses, fn.__name__


def test_evicted_plans_recompute_identically():
    n, width, word_bits = 3 * lanes.SEGMENT + 1009, 13, 32
    w = (np.arange(n, dtype=np.uint64) * np.uint64(2654435761)
         & np.uint64((1 << width) - 1)).astype(np.uint32)
    before = pack_words(w, width, word_bits)
    _clear()
    assert pack_words(w, width, word_bits) == before
    assert np.array_equal(unpack_words(before, n, width, word_bits), w)


def test_plan_caches_hold_a_small_bound():
    # Every width of both word sizes at counts up to 2**17, and 2**21
    # values at one width of each planning regime: with count-keyed
    # plans the 2**17-value plans alone would take ~200 MiB.
    gc.collect()
    _clear()
    rng = np.random.default_rng(21)
    big = {bits: _words(rng, 2**21, bits, bits) for bits in (32, 64)}
    shapes = [(word_bits, width, n)
              for word_bits in (32, 64)
              for width in range(1, word_bits + 1)
              for n in (1, 1000, lanes.SEGMENT + 1, 2**17)]
    shapes += [(32, 13, 2**21), (32, 27, 2**21), (64, 45, 2**21), (64, 53, 2**21)]
    tracemalloc.start()
    try:
        for word_bits, width, n in shapes:
            words = big[word_bits][:n] & big[word_bits].dtype.type((1 << width) - 1)
            unpack_words(pack_words(words, width, word_bits), n, width, word_bits)
            del words
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        _clear()
        gc.collect()
        plan_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < plan_bytes < PLAN_BYTES_BOUND, plan_bytes


@pytest.mark.parametrize("word_bits", [32, 64])
def test_segmented_plans_match_reference(word_bits):
    rng = np.random.default_rng(word_bits)
    for width in range(1, word_bits + 1):
        for n in _SEGMENT_COUNTS:
            words = _words(rng, n, width, word_bits)
            packed = pack_words(words, width, word_bits)
            assert packed == _reference_pack(words, width, word_bits), (width, n)
            assert np.array_equal(
                unpack_words(packed, n, width, word_bits),
                _reference_unpack(packed, n, width, word_bits),
            ), (width, n)
