"""End-to-end tests of the adaptive ``auto`` codec.

The engine contract extends to the selector: output bytes are identical
under every executor policy and batching mode (selection happens once,
up front, on the calling thread), and every v4 container decodes through
the ordinary paths — full, range, and salvage.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.core import container as fmt
from repro.core.codecs import get_codec
from repro.core.compressor import (
    compress_bytes,
    decompress_bytes,
    decompress_range_bytes,
)
from repro.errors import CorruptDataError

CHUNK = 8192


@pytest.fixture
def rng():
    return np.random.default_rng(0x5E7EC7)


def _mixed_f32(rng) -> bytes:
    smooth = np.cumsum(rng.normal(size=4 * CHUNK // 4)).astype("<f4")
    noisy = rng.random(4 * CHUNK // 4).astype("<f4")
    rep = np.repeat(rng.random(CHUNK // 16).astype("<f4"), 4)
    return np.concatenate([smooth, noisy, rep]).tobytes()


def _mixed_f64(rng) -> bytes:
    smooth = np.cumsum(rng.normal(size=2 * CHUNK // 8)).astype("<f8")
    noisy = rng.random(2 * CHUNK // 8).astype("<f8")
    return np.concatenate([smooth, noisy]).tobytes()


class TestAutoRoundTrip:
    @pytest.mark.parametrize("dtype_code", [fmt.DTYPE_F32, fmt.DTYPE_F64])
    def test_roundtrip(self, rng, dtype_code):
        data = _mixed_f32(rng) if dtype_code == fmt.DTYPE_F32 else _mixed_f64(rng)
        blob = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK,
                              dtype_code=dtype_code)
        out, info = decompress_bytes(blob)
        assert out == data
        assert info.version == fmt.VERSION_CHUNK_CODECS
        assert info.chunk_codecs is not None
        assert len(info.chunk_codecs) == info.n_chunks

    def test_bytes_input_uses_all_candidates(self, rng):
        data = _mixed_f32(rng)
        blob = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK)
        out, _ = decompress_bytes(blob)
        assert out == data

    def test_empty_input(self):
        blob = compress_bytes(b"", get_codec("auto"))
        out, info = decompress_bytes(blob)
        assert out == b""
        assert info.n_chunks == 0

    def test_incompressible_raw_fallback(self, rng):
        noise = rng.bytes(3 * CHUNK)
        blob = compress_bytes(noise, get_codec("auto"), chunk_size=CHUNK)
        info = fmt.inspect_container(blob)
        assert info.raw_fallback
        assert info.chunk_codecs is None  # raw fallback carries no table
        out, _ = decompress_bytes(blob)
        assert out == noise

    def test_api_roundtrip_array(self, rng):
        field = np.cumsum(rng.normal(size=(64, 128))).astype(np.float32)
        blob = repro.compress(field, "auto")
        back = repro.decompress(blob)
        assert back.shape == field.shape
        assert np.array_equal(back, field)
        assert "auto" in repro.available_codecs()

    def test_selector_specs_roundtrip(self, rng):
        data = _mixed_f32(rng)
        default = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK)
        trained = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK,
                                 selector="trained")
        # The committed trained fit equals the heuristic defaults, so the
        # containers match; both must decode regardless.
        assert decompress_bytes(trained)[0] == data
        assert decompress_bytes(default)[0] == data


class TestAutoExecutorIdentity:
    @pytest.mark.parametrize("executor", [
        "serial", "threaded", "static-blocks", "process",
    ])
    def test_byte_identical_across_executors(self, rng, executor):
        data = _mixed_f32(rng)
        reference = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK,
                                   dtype_code=fmt.DTYPE_F32)
        blob = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK,
                              dtype_code=fmt.DTYPE_F32, workers=3,
                              executor=executor)
        assert hashlib.sha256(blob).hexdigest() == \
            hashlib.sha256(reference).hexdigest()
        out, _ = decompress_bytes(blob, workers=3, executor=executor)
        assert out == data

    def test_mixed_decode_under_process_executor(self, rng):
        # A v4 container whose codec table actually changes mid-stream,
        # decoded through the shared-memory process pool (block tasks
        # must split at the codec boundary).
        data = _mixed_f64(rng)
        blob = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK,
                              dtype_code=fmt.DTYPE_F64)
        out, _ = decompress_bytes(blob, workers=2, executor="process")
        assert out == data


class TestAutoRangeAndSalvage:
    def test_decompress_range_on_mixed(self, rng):
        data = _mixed_f32(rng)
        blob = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK,
                              dtype_code=fmt.DTYPE_F32)
        for start, stop in ((0, 100), (CHUNK - 3, CHUNK + 17),
                            (3 * CHUNK, len(data)), (0, len(data))):
            window, _ = decompress_range_bytes(blob, start, stop)
            assert window == data[start:stop], (start, stop)

    def test_selector_geometry_rules(self, rng):
        data = _mixed_f32(rng)
        blob = compress_bytes(data, get_codec("auto"), chunk_size=CHUNK,
                              dtype_code=fmt.DTYPE_F32)
        # Strip the codec table flag at the header level and the decoder
        # must reject the geometry, never guess a pipeline.
        buf = bytearray(blob)
        buf[7] &= ~fmt.FLAG_CHUNK_CODECS & 0xFF
        with pytest.raises(Exception):
            decompress_bytes(bytes(buf))

    def test_selector_header_without_table_rejected(self):
        # A hand-built v1 container claiming the selector codec id but
        # carrying chunks must be rejected: nothing says how to decode.
        blob = fmt.build_container(
            codec_id=get_codec("spspeed").codec_id, dtype_code=fmt.DTYPE_F32,
            original_len=8, intermediate_len=8, chunk_size=fmt_chunk(8),
            chunk_payloads=[b"\x00" * 4],
        )
        buf = bytearray(blob)
        buf[5] = get_codec("auto").codec_id
        with pytest.raises(CorruptDataError, match="selector"):
            decompress_bytes(bytes(buf))


def fmt_chunk(n: int) -> int:
    return max(n, 1)
