"""Range decodes: byte-identity, O(range) chunk touch, salvage locality.

The contract under test (ISSUE 6 acceptance): ``decompress_range`` is
byte-identical to full-decompress-then-slice for every codec across the
boundary sweep, while decoding *only* the chunks overlapping the range —
asserted via trace chunk counts — and damage outside the range is never
even read.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE, chunk_count
from repro.core.codecs import CODECS, get_codec
from repro.core.compressor import (
    compress_bytes,
    decompress_bytes,
    decompress_range_bytes,
)
from repro.core.plan import plan_for_range
from repro.core.trace import TraceCollector
from repro.errors import BoundsError

#: kwargs that make each codec's containers chunk-independent (DPratio
#: needs restart framing; the others are seekable by construction).
SEEKABLE = {"dpratio": {"fcm": "restart"}}


def _sample(rng, codec, n_bytes: int = 160_000) -> bytes:
    n = n_bytes // codec.dtype.itemsize
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(codec.dtype).tobytes()


def _seekable_blob(rng, name: str, **kwargs) -> tuple[bytes, bytes]:
    codec = get_codec(name)
    data = _sample(rng, codec)
    merged = {**SEEKABLE.get(name, {}), **kwargs}
    return data, compress_bytes(data, codec, **merged)


#: The boundary sweep, as (start, stop) factories over ``n`` total bytes.
#: 160_000 B over 16_384 B chunks = 9 full chunks + a ragged tail.
SWEEP = {
    "empty": lambda n: (n // 2, n // 2),
    "single-byte": lambda n: (CHUNK_SIZE + 7, CHUNK_SIZE + 8),
    "within-chunk": lambda n: (100, 5_000),
    "chunk-aligned": lambda n: (CHUNK_SIZE, 2 * CHUNK_SIZE),
    "spanning-two": lambda n: (CHUNK_SIZE - 10, CHUNK_SIZE + 10),
    "spanning-many": lambda n: (CHUNK_SIZE // 2, 5 * CHUNK_SIZE + 3),
    "prefix": lambda n: (0, 3 * CHUNK_SIZE - 1),
    "suffix": lambda n: (n - 2 * CHUNK_SIZE - 5, n),
    "ragged-tail": lambda n: (n - 100, n),
    "full": lambda n: (0, n),
}


@pytest.mark.parametrize("name", sorted(CODECS))
class TestBoundarySweep:
    def test_byte_identity_vs_full_then_slice(self, name, rng):
        data, blob = _seekable_blob(rng, name)
        full, _ = decompress_bytes(blob)
        assert full == data
        for label, bounds in SWEEP.items():
            start, stop = bounds(len(data))
            got, _ = decompress_range_bytes(blob, start, stop)
            assert got == data[start:stop], f"{name}/{label}"

    def test_only_overlapping_chunks_decode(self, name, rng):
        data, blob = _seekable_blob(rng, name)
        info = fmt.inspect_container(blob)
        if info.raw_fallback:
            pytest.skip("raw containers slice the payload without decoding")
        n_chunks = chunk_count(len(data), CHUNK_SIZE)
        for label, bounds in SWEEP.items():
            start, stop = bounds(len(data))
            first = start // CHUNK_SIZE
            last = (stop - 1) // CHUNK_SIZE if stop > start else first - 1
            expected = list(range(first, min(last, n_chunks - 1) + 1))
            collector = TraceCollector()
            decompress_range_bytes(blob, start, stop, trace=collector)
            assert collector.direction == "decompress-range"
            indices = [chunk.index for chunk in collector.chunks]
            assert indices == expected, f"{name}/{label}"


class TestSubsetPlans:
    def test_jobs_carry_global_indices(self, rng):
        data, blob = _seekable_blob(rng, "spratio")
        info = fmt.inspect_container(blob)
        plan = plan_for_range(info, 3 * CHUNK_SIZE + 1, 5 * CHUNK_SIZE + 1)
        assert [job.index for job in plan.plan.jobs] == [3, 4, 5]
        assert plan.aligned_start == 3 * CHUNK_SIZE
        assert plan.trim == (1, 2 * CHUNK_SIZE + 1)
        # Output offsets are plan-relative: a fresh buffer, not the file's.
        assert plan.plan.out_offsets[0] == 0

    def test_out_of_bounds_rejected(self, rng):
        data, blob = _seekable_blob(rng, "spspeed")
        info = fmt.inspect_container(blob)
        with pytest.raises(BoundsError):
            plan_for_range(info, 0, len(data) + 1)
        with pytest.raises(BoundsError):
            plan_for_range(info, -1, 10)
        with pytest.raises(BoundsError):
            plan_for_range(info, 10, 9)
        with pytest.raises(BoundsError):
            decompress_range_bytes(blob, 0, len(data) + 1)


class TestExecutorsOverRanges:
    @pytest.mark.parametrize("policy", ["threaded", "static-blocks", "process"])
    def test_policies_match_serial(self, policy, rng):
        data, blob = _seekable_blob(rng, "dpratio")
        start, stop = CHUNK_SIZE // 2, 7 * CHUNK_SIZE + 11
        serial, _ = decompress_range_bytes(blob, start, stop)
        parallel, _ = decompress_range_bytes(
            blob, start, stop, workers=3, executor=policy
        )
        assert parallel == serial == data[start:stop]


class TestLegacyFallback:
    def test_global_fcm_falls_back_to_full_decode(self, rng):
        codec = get_codec("dpratio")
        data = _sample(rng, codec)
        blob = compress_bytes(data, codec, fcm="global")
        assert fmt.inspect_container(blob).version <= 2
        start, stop = CHUNK_SIZE + 3, 4 * CHUNK_SIZE
        got, _ = decompress_range_bytes(blob, start, stop)
        assert got == data[start:stop]

    def test_raw_fallback_slices_payload(self, rng):
        data = rng.bytes(50_000)  # random bytes defeat every stage
        blob = compress_bytes(data, get_codec("spspeed"))
        assert fmt.inspect_container(blob).raw_fallback
        got, _ = decompress_range_bytes(blob, 1_000, 30_000)
        assert got == data[1_000:30_000]


def _flip_payload_byte(blob: bytes, chunk: int) -> bytes:
    """Flip one bit in the middle of ``chunk``'s payload window."""
    info = fmt.inspect_container(blob)
    offsets = fmt.payload_offsets(info)
    buf = bytearray(blob)
    buf[offsets[chunk] + info.chunk_sizes[chunk] // 2] ^= 0x40
    return bytes(buf)


@pytest.mark.parametrize("name", ["spratio", "dpratio"])
class TestSalvageLocality:
    def test_damage_outside_range_is_never_read(self, name, rng):
        data, blob = _seekable_blob(rng, name, chunk_checksums=True)
        damaged = _flip_payload_byte(blob, chunk=0)
        start, stop = 2 * CHUNK_SIZE, 4 * CHUNK_SIZE
        # Strict mode succeeds: chunk 0 is outside the plan entirely.
        got, _ = decompress_range_bytes(damaged, start, stop)
        assert got == data[start:stop]
        # And the trace proves the damaged chunk was never decoded.
        collector = TraceCollector()
        decompress_range_bytes(damaged, start, stop, trace=collector)
        assert [c.index for c in collector.chunks] == [2, 3]
        # Salvage agrees: nothing in the requested window is damaged.
        got, _, report = decompress_range_bytes(
            damaged, start, stop, errors="salvage"
        )
        assert report.ok and not report.failures
        assert got == data[start:stop]

    def test_damage_inside_range_zero_fills_only_its_chunk(self, name, rng):
        data, blob = _seekable_blob(rng, name, chunk_checksums=True)
        damaged = _flip_payload_byte(blob, chunk=3)
        start, stop = 2 * CHUNK_SIZE + 10, 5 * CHUNK_SIZE - 10
        got, _, report = decompress_range_bytes(
            damaged, start, stop, errors="salvage"
        )
        assert not report.ok
        assert [failure.index for failure in report.failures] == [3]
        # Damaged ranges are relative to the returned slice.
        lo = 3 * CHUNK_SIZE - start
        hi = 4 * CHUNK_SIZE - start
        assert list(report.damaged_ranges) == [(lo, hi)]
        assert got[lo:hi] == bytes(hi - lo)
        # Every byte outside the reported range is exact.
        want = data[start:stop]
        assert got[:lo] == want[:lo] and got[hi:] == want[hi:]

    def test_strict_mode_names_the_global_chunk(self, name, rng):
        data, blob = _seekable_blob(rng, name, chunk_checksums=True)
        damaged = _flip_payload_byte(blob, chunk=3)
        with pytest.raises(repro.ReproError, match="chunk 3"):
            decompress_range_bytes(damaged, 3 * CHUNK_SIZE,
                                   3 * CHUNK_SIZE + 100)


class TestElementAPI:
    def test_slice_semantics(self, smooth_f64):
        blob = repro.compress(smooth_f64, "dpratio", fcm="restart")
        n = smooth_f64.size
        for start, stop in [(None, None), (100, 9_000), (-500, None),
                            (None, -100), (8_000, 2_000), (0, 0)]:
            got = repro.decompress_range(blob, start, stop)
            assert np.array_equal(got, smooth_f64[start:stop])
            assert got.dtype == np.float64
        assert repro.decompress_range(blob, n + 50, n + 90).size == 0

    def test_result_is_flat_even_for_shaped_arrays(self, rng):
        field = rng.normal(size=(100, 80)).astype(np.float32)
        blob = repro.compress(field)
        got = repro.decompress_range(blob, 40, 240)
        assert got.ndim == 1
        assert np.array_equal(got, field.reshape(-1)[40:240])

    def test_bytes_in_bytes_out(self, rng):
        payload = rng.bytes(40_000)
        blob = repro.compress(payload, "spspeed")
        assert repro.decompress_range(blob, 5, 99) == payload[5:99]

    def test_salvage_returns_report(self, smooth_f32):
        blob = repro.compress(smooth_f32, "spratio")
        damaged = _flip_payload_byte(blob, chunk=1)
        # Chunk 1 holds elements 4096..8192 (16 KiB of f32).
        got, report = repro.decompress_range(
            blob=damaged, start=0, stop=5_000, errors="salvage"
        )
        assert not report.ok
        assert got.size == 5_000
