"""Salvage-mode decode: damage containment, recovery, and reporting.

The PR's acceptance property lives here: corrupting exactly one chunk of
an N-chunk container recovers the other N-1 chunks bit-exactly, for
every paper codec under every executor policy.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import container as fmt
from repro.core.codecs import CODECS, get_codec
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.core.executors import SCHEDULING_POLICIES
from repro.core.salvage import ChunkFailure, SalvageReport, merge_ranges, ranges_cover
from repro.errors import CorruptDataError, ReproError

ALL_CODECS = sorted(CODECS)


def _walk_bytes(codec_name: str, n_bytes: int = 5 * 16384 + 1224) -> bytes:
    codec = get_codec(codec_name)
    rng = np.random.default_rng(20250330)
    n = n_bytes // codec.dtype.itemsize
    walk = np.cumsum(rng.normal(scale=0.01, size=n)) + 1.0
    return np.ascontiguousarray(walk.astype(codec.dtype)).tobytes()


def _flip_in_chunk(blob: bytes, chunk_index: int) -> bytes:
    """Flip one bit in the middle of the given chunk's payload."""
    info = fmt.inspect_container(blob)
    start = info.payload_offset + sum(info.chunk_sizes[:chunk_index])
    buf = bytearray(blob)
    buf[start + info.chunk_sizes[chunk_index] // 2] ^= 0x40
    return bytes(buf)


def _outside_damage_is_exact(got: bytes, want: bytes, damaged) -> bool:
    assert len(got) == len(want)
    a = np.frombuffer(got, dtype=np.uint8)
    b = np.frombuffer(want, dtype=np.uint8)
    trusted = np.ones(len(a), dtype=bool)
    for start, end in damaged:
        trusted[start:end] = False
    return bool(np.array_equal(a[trusted], b[trusted]))


class TestAcceptance:
    """One corrupt chunk costs one chunk — per codec, per policy."""

    @pytest.mark.parametrize("codec_name", ALL_CODECS)
    @pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
    def test_single_chunk_corruption_recovers_the_rest(self, codec_name, policy):
        data = _walk_bytes(codec_name)
        blob = compress_bytes(data, get_codec(codec_name),
                              checksum=True, chunk_checksums=True)
        info = fmt.inspect_container(blob)
        assert not info.raw_fallback and info.n_chunks >= 4
        target = info.n_chunks // 2
        mutant = _flip_in_chunk(blob, target)

        # Strict mode pinpoints the damaged chunk ...
        with pytest.raises(ReproError, match=f"chunk {target} "):
            decompress_bytes(mutant, executor=policy, workers=4)

        # ... salvage mode loses exactly that chunk and nothing else.
        got, _, report = decompress_bytes(
            mutant, errors="salvage", executor=policy, workers=4
        )
        assert isinstance(report, SalvageReport)
        assert report.n_chunks == info.n_chunks
        assert [f.index for f in report.failures] == [target]
        assert report.failures[0].error_type == "ChecksumError"
        assert report.chunks_recovered == info.n_chunks - 1
        assert not report.global_stage_failed
        assert report.checksum_ok is False  # damage reached the output
        assert len(got) == len(data)
        assert report.damaged_ranges  # something was lost...
        assert _outside_damage_is_exact(got, data, report.damaged_ranges)

    @pytest.mark.parametrize("codec_name", ["spspeed", "spratio", "dpspeed"])
    def test_damage_is_exactly_the_chunk_window_without_global_stage(
        self, codec_name
    ):
        # No global stage -> intermediate coordinates ARE output
        # coordinates, so the report must blame exactly one chunk window.
        data = _walk_bytes(codec_name)
        blob = compress_bytes(data, get_codec(codec_name),
                              checksum=True, chunk_checksums=True)
        info = fmt.inspect_container(blob)
        target = 1
        got, _, report = decompress_bytes(
            _flip_in_chunk(blob, target), errors="salvage"
        )
        window = (target * info.chunk_size, (target + 1) * info.chunk_size)
        assert report.damaged_ranges == (window,)
        failure = report.failures[0]
        assert (failure.output_offset, failure.output_offset + failure.output_length) == window
        # The zero-fill is visible in the output.
        assert got[window[0] : window[1]] == bytes(info.chunk_size)

    def test_dpratio_damage_propagates_only_forward(self):
        # FCM match chains point backward, so corrupting a chunk inside
        # the value array can never damage words decoded before it: the
        # chunk's window [c*16384, (c+1)*16384) covers value entries of
        # words >= 2048*c only, and chains of earlier words stay among
        # earlier words.
        data = _walk_bytes("dpratio")
        blob = compress_bytes(data, get_codec("dpratio"),
                              checksum=True, chunk_checksums=True)
        info = fmt.inspect_container(blob)
        target = 1
        # The whole window must sit inside the value array (first half of
        # the doubled FCM intermediate) for the word arithmetic to hold.
        assert 2 * info.chunk_size <= info.intermediate_len // 2
        got, _, report = decompress_bytes(
            _flip_in_chunk(blob, target), errors="salvage"
        )
        assert not report.global_stage_failed
        first_damaged = report.damaged_ranges[0][0]
        assert first_damaged >= target * info.chunk_size
        assert got[:first_damaged] == data[:first_damaged]

    def test_dpratio_trailer_damage_zero_fills_honestly(self):
        # The last intermediate chunk holds the FCM tail/trailer; losing
        # it makes the framing untrustworthy, so salvage must fall back
        # to full-range damage rather than guess.
        data = _walk_bytes("dpratio")
        blob = compress_bytes(data, get_codec("dpratio"),
                              checksum=True, chunk_checksums=True)
        info = fmt.inspect_container(blob)
        got, _, report = decompress_bytes(
            _flip_in_chunk(blob, info.n_chunks - 1), errors="salvage"
        )
        assert report.global_stage_failed
        assert report.damaged_ranges == ((0, len(data)),)
        assert got == bytes(len(data))


class TestSalvageEdges:
    def test_pristine_container_salvages_clean(self, smooth_f32):
        blob = repro.compress(smooth_f32)
        array, report = repro.decompress(blob, errors="salvage")
        assert report.ok
        assert report.checksum_ok is True
        assert report.damaged_ranges == ()
        assert np.array_equal(array, smooth_f32)

    def test_api_returns_array_and_report(self, smooth_f64):
        blob = repro.compress(smooth_f64)
        array, report = repro.decompress(blob, errors="salvage")
        assert isinstance(report, SalvageReport)
        assert array.dtype == np.float64 and array.shape == smooth_f64.shape

    def test_invalid_errors_value_rejected(self, smooth_f32):
        blob = repro.compress(smooth_f32)
        with pytest.raises(ValueError, match="salvage"):
            decompress_bytes(blob, errors="ignore")

    def test_corrupt_stored_checksum_is_flagged_not_fatal(self, smooth_f32):
        # Flip the stored whole-input CRC: every chunk verifies, output is
        # actually correct, but the verdict must be honest about the
        # mismatch (the CRC field itself is the damaged byte).
        blob = repro.compress(smooth_f32)
        info = fmt.inspect_container(blob)
        crc_offset = info.payload_offset - 8 * info.n_chunks - 4
        buf = bytearray(blob)
        buf[crc_offset] ^= 0xFF
        got, _, report = decompress_bytes(bytes(buf), errors="salvage")
        assert not report.failures
        assert report.checksum_ok is False
        assert not report.ok
        assert got == smooth_f32.tobytes()

    def test_header_damage_still_raises_in_salvage_mode(self, smooth_f32):
        blob = bytearray(repro.compress(smooth_f32))
        blob[0] ^= 0xFF  # magic
        with pytest.raises(ReproError):
            decompress_bytes(bytes(blob), errors="salvage")

    def test_raw_fallback_salvage(self, rng):
        data = rng.bytes(30_000)  # incompressible -> raw container
        blob = repro.compress(data, "spspeed")
        info = fmt.inspect_container(blob)
        assert info.raw_fallback
        got, _, report = decompress_bytes(blob, errors="salvage")
        assert got == data and report.ok and report.n_chunks == 0
        # Damaged raw payload: full-range damage, honest verdict.
        buf = bytearray(blob)
        buf[-1] ^= 0x01
        got, _, report = decompress_bytes(bytes(buf), errors="salvage")
        assert report.checksum_ok is False
        assert report.damaged_ranges == ((0, len(data)),)

    def test_every_chunk_corrupt_zero_fills_everything(self, smooth_f32):
        blob = repro.compress(smooth_f32, "spratio")
        info = fmt.inspect_container(blob)
        mutant = blob
        for i in range(info.n_chunks):
            mutant = _flip_in_chunk(mutant, i)
        got, _, report = decompress_bytes(mutant, errors="salvage")
        assert len(report.failures) == info.n_chunks
        assert report.chunks_recovered == 0
        assert got == bytes(len(smooth_f32.tobytes()))

    def test_without_chunk_crcs_damage_is_not_localised(self, smooth_f32):
        # v1 container: salvage still works, but a decode failure can only
        # be blamed on the chunk whose *stage* noticed, so recovery is
        # best-effort — the report must still never claim damaged-free
        # bytes that differ.
        data = smooth_f32.tobytes()
        blob = compress_bytes(data, get_codec("spratio"),
                              checksum=True, chunk_checksums=False)
        info = fmt.inspect_container(blob)
        assert info.chunk_crcs is None
        got, _, report = decompress_bytes(
            _flip_in_chunk(blob, 1), errors="salvage"
        )
        assert len(got) == len(data)
        assert report.checksum_ok is False

    def test_failure_reason_is_the_strict_error(self, smooth_f32):
        # An unknown chunk flag fails inside the stage pipeline (no CRC
        # table to catch it first): salvage must report the very message
        # strict mode raises, chunk attribution prefix included.
        data = smooth_f32.tobytes()
        blob = compress_bytes(data, get_codec("spratio"),
                              checksum=True, chunk_checksums=False)
        info = fmt.inspect_container(blob)
        buf = bytearray(blob)
        buf[info.payload_offset + info.chunk_sizes[0]] = 0x7F  # chunk 1 flag
        with pytest.raises(CorruptDataError) as excinfo:
            decompress_bytes(bytes(buf))
        _, _, report = decompress_bytes(bytes(buf), errors="salvage")
        (failure,) = report.failures
        assert failure.index == 1
        assert failure.error_type == "CorruptDataError"
        assert failure.reason == str(excinfo.value)
        assert failure.reason.startswith("chunk 1 (container bytes ")


class TestSalvageHelpers:
    def test_merge_ranges(self):
        assert merge_ranges([(5, 9), (0, 3), (8, 12), (3, 4)]) == ((0, 4), (5, 12))
        assert merge_ranges([]) == ()
        assert merge_ranges([(3, 3), (4, 2)]) == ()  # empty/inverted dropped

    def test_ranges_cover(self):
        ranges = ((0, 4), (10, 20))
        assert ranges_cover(ranges, 3, 2)
        assert ranges_cover(ranges, 19, 100)
        assert not ranges_cover(ranges, 4, 6)
        assert not ranges_cover(ranges, 20, 5)

    def test_report_render_mentions_failures(self):
        failure = ChunkFailure(
            index=3, payload_offset=100, payload_length=50,
            output_offset=49152, output_length=16384,
            reason="payload CRC32 mismatch", error_type="ChecksumError",
        )
        report = SalvageReport(
            n_chunks=8, output_len=131072, failures=(failure,),
            damaged_ranges=((49152, 65536),), checksum_ok=False,
        )
        text = report.render()
        assert "7/8 chunks recovered" in text
        assert "chunk 3" in text and "ChecksumError" in text
        assert "MISMATCH" in text
        assert report.damaged_bytes == 16384
