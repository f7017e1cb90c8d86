"""Unit tests for the enhanced MPLG stage."""

from __future__ import annotations

import struct

import numpy as np
import pytest

import repro
from repro.core import container as fmt
from repro.errors import CorruptDataError
from repro.stages import MPLG
from repro.stages import mplg as mplg_module
from repro.stages.mplg import SUBCHUNK_BYTES


@pytest.mark.parametrize("word_bits,dtype", [(32, np.uint32), (64, np.uint64)])
class TestMPLG:
    def test_roundtrip_random(self, word_bits, dtype, rng):
        words = rng.integers(0, 1 << 32, size=4096, dtype=np.uint64).astype(dtype)
        stage = MPLG(word_bits)
        assert stage.decode(stage.encode(words.tobytes())) == words.tobytes()

    def test_roundtrip_with_tail(self, word_bits, dtype, rng):
        data = rng.integers(0, 256, size=16387, dtype=np.uint8).tobytes()
        stage = MPLG(word_bits)
        assert stage.decode(stage.encode(data)) == data

    def test_compresses_small_values(self, word_bits, dtype, rng):
        # Values below 2^8 need only 8 bits each: ~4x/8x reduction.
        words = rng.integers(0, 256, size=4096, dtype=np.uint64).astype(dtype)
        encoded = MPLG(word_bits).encode(words.tobytes())
        assert len(encoded) < len(words.tobytes()) / (word_bits // 16)

    def test_all_zero_subchunks_collapse(self, word_bits, dtype):
        words = np.zeros(4096, dtype=dtype)
        encoded = MPLG(word_bits).encode(words.tobytes())
        # Payload is only the frame + one header byte per subchunk.
        assert len(encoded) < 200
        assert MPLG(word_bits).decode(encoded) == words.tobytes()

    def test_enhancement_kicks_in_when_max_has_no_leading_zeros(self, word_bits, dtype):
        # All values equal to ~(small) have no leading zeros, but their
        # magnitude-sign conversion does: the flagged path must be smaller
        # than raw storage and still round-trip.
        top = (1 << word_bits) - 3  # == -3 in two's complement
        words = np.full(512, top, dtype=dtype)
        stage = MPLG(word_bits)
        encoded = stage.encode(words.tobytes())
        assert len(encoded) < len(words.tobytes()) / 2
        assert stage.decode(encoded) == words.tobytes()

    def test_incompressible_does_not_explode(self, word_bits, dtype, rng):
        words = rng.integers(0, 1 << 63, size=2048, dtype=np.uint64).astype(dtype)
        words |= dtype(1) << dtype(word_bits - 1)  # force no leading zeros
        encoded = MPLG(word_bits).encode(words.tobytes())
        # Worst case: full-width packing plus one header byte per subchunk.
        overhead = len(encoded) - len(words.tobytes())
        assert overhead < 4096 // 64 + 64

    def test_partial_subchunk(self, word_bits, dtype, rng):
        words = rng.integers(0, 1000, size=3, dtype=np.uint64).astype(dtype)
        stage = MPLG(word_bits)
        assert stage.decode(stage.encode(words.tobytes())) == words.tobytes()

    def test_empty(self, word_bits, dtype):
        stage = MPLG(word_bits)
        assert stage.decode(stage.encode(b"")) == b""

    def test_corrupt_width_rejected(self, word_bits, dtype):
        stage = MPLG(word_bits)
        encoded = bytearray(stage.encode(np.arange(128, dtype=dtype).tobytes()))
        # Offset 4+1 = first subchunk header; force an illegal width.
        encoded[5] = 0x7F if word_bits == 32 else 0x7F
        if word_bits == 32:
            with pytest.raises(CorruptDataError):
                stage.decode(bytes(encoded))


@pytest.mark.parametrize("word_bits,dtype", [(32, np.uint32), (64, np.uint64)])
class TestBatchedMatchesSerial:
    """The width-grouped batch encoder is an optimisation, not a format
    change: its output must be byte-identical to the per-subchunk serial
    path, and either encoder's output must decode on either decoder."""

    def _inputs(self, word_bits, dtype, rng):
        top = dtype((1 << word_bits) - 1) if word_bits < 64 else dtype(~np.uint64(0))
        word_bytes = word_bits // 8
        return {
            "random": rng.integers(0, 1 << 16, size=4096, dtype=np.uint64)
            .astype(dtype).tobytes(),
            "all-zero": np.zeros(4096, dtype=dtype).tobytes(),
            "max-entropy": (
                rng.integers(0, 1 << 63, size=4096, dtype=np.uint64).astype(dtype)
                | (dtype(1) << dtype(word_bits - 1))
            ).tobytes(),
            # 4096-byte subchunks: a short final subchunk plus a partial word.
            "short-final": rng.integers(0, 256, size=4096 * word_bytes + 7,
                                        dtype=np.uint8).tobytes(),
            "single-word": np.array([5], dtype=dtype).tobytes(),
            "mixed-widths": np.concatenate([
                np.zeros(1024, dtype=dtype),
                rng.integers(0, 256, size=1024, dtype=np.uint64).astype(dtype),
                rng.integers(0, 1 << 24, size=1024, dtype=np.uint64).astype(dtype),
            ]).tobytes(),
            "empty": b"",
        }

    def test_encoders_byte_identical(self, word_bits, dtype, rng):
        for label, data in self._inputs(word_bits, dtype, rng).items():
            batched = MPLG(word_bits)
            serial = MPLG(word_bits)
            serial._force_serial = True
            assert batched.encode(data) == serial.encode(data), label

    def test_cross_decoding(self, word_bits, dtype, rng):
        for label, data in self._inputs(word_bits, dtype, rng).items():
            batched = MPLG(word_bits)
            serial = MPLG(word_bits)
            serial._force_serial = True
            encoded = batched.encode(data)
            assert batched.decode(encoded) == data, label
            assert serial.decode(encoded) == data, label

    def test_unaligned_subchunk_stays_serial(self, word_bits, dtype, rng):
        # words_per_subchunk % 8 != 0 breaks the whole-byte concatenation
        # precondition, so the constructor pins those configs to serial.
        stage = MPLG(word_bits, subchunk_bytes=word_bits // 8 * 4)
        assert stage._force_serial
        data = rng.integers(0, 1000, size=100, dtype=np.uint64).astype(dtype).tobytes()
        assert stage.decode(stage.encode(data)) == data


def test_subchunk_must_align_with_words():
    with pytest.raises(ValueError):
        MPLG(64, subchunk_bytes=12)


# -- block kernels -----------------------------------------------------------

_KINDS = ("random", "all-zero", "max-entropy", "mixed-width", "magnitude-sign")
_BLOCK_CHUNK_BYTES = 4096


def _chunk_words(kind: str, rng, n: int, word_bits: int) -> np.ndarray:
    dtype = np.uint32 if word_bits == 32 else np.uint64
    full = rng.integers(0, 2**63, n, dtype=np.uint64) | (
        rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    )
    if kind == "random":
        width = int(rng.integers(1, word_bits + 1))
        return (full & np.uint64((1 << width) - 1)).astype(dtype)
    if kind == "all-zero":
        return np.zeros(n, dtype=dtype)
    if kind == "max-entropy":
        return full.astype(dtype) | dtype(1 << (word_bits - 1))
    if kind == "mixed-width":
        # A different width in every subchunk, zero included.
        step = SUBCHUNK_BYTES // (word_bits // 8)
        widths = (np.arange(n) // step * 7) % (word_bits + 1)
        masks = np.array([(1 << int(w)) - 1 for w in widths], dtype=np.uint64)
        return (full & masks).astype(dtype)
    # Small negative two's-complement values: the maximum has no leading
    # zeros, so every subchunk takes the magnitude-sign path.
    small = rng.integers(1, 1000, n).astype(np.int64)
    return (-small).astype(np.int32 if word_bits == 32 else np.int64).view(dtype)


def _block(n_chunks: int, first_kind: int, word_bits: int, rng) -> list[bytes]:
    """Chunks cycling through every data kind; the final chunk of a
    multi-chunk block is ragged (a short final subchunk and a tail)."""
    word_bytes = word_bits // 8
    chunks = []
    for i in range(n_chunks):
        kind = _KINDS[(first_kind + i) % len(_KINDS)]
        data = _chunk_words(kind, rng, _BLOCK_CHUNK_BYTES // word_bytes, word_bits).tobytes()
        if n_chunks > 1 and i == n_chunks - 1:
            data = data[: -(5 * word_bytes + 3)]
        chunks.append(data)
    return chunks


def _serial(word_bits: int) -> MPLG:
    stage = MPLG(word_bits)
    stage._force_serial = True
    return stage


def _header_bytes(payload: bytes, word_bits: int) -> list[int]:
    """Header byte of every whole subchunk, walked from the wire format."""
    step = SUBCHUNK_BYTES // (word_bits // 8)
    n_words, tail_len = struct.unpack_from("<IB", payload)
    pos = 5 + tail_len
    headers = []
    for _ in range(n_words // step):
        headers.append(payload[pos])
        pos += 1 + (payload[pos] & 0x7F) * step // 8
    return headers


@pytest.mark.parametrize("word_bits", [32, 64])
@pytest.mark.parametrize("first_kind", range(len(_KINDS)), ids=_KINDS)
@pytest.mark.parametrize("n_chunks", [1, 2, 16, 29, 512])
def test_block_kernels_match_serial_reference(n_chunks, first_kind, word_bits):
    rng = np.random.default_rng([n_chunks, first_kind, word_bits])
    chunks = _block(n_chunks, first_kind, word_bits, rng)
    serial = _serial(word_bits)
    reference = [serial.encode(chunk) for chunk in chunks]
    stage = MPLG(word_bits)
    assert stage.encode_batch(chunks) == reference
    assert stage.decode_batch(reference) == chunks
    assert [serial.decode(p) for p in reference] == chunks


_FAULTS = ("illegal-width", "truncated-header", "truncated-payload", "trailing-byte")


def _corrupt(payload: bytes, fault: str, word_bits: int) -> bytes:
    step = SUBCHUNK_BYTES // (word_bits // 8)
    headers = _header_bytes(payload, word_bits)
    last = len(payload) - 1 - (headers[-1] & 0x7F) * step // 8
    assert payload[last] == headers[-1] and headers[-1] & 0x7F
    if fault == "illegal-width":
        return payload[:last] + bytes([word_bits + 1]) + payload[last + 1 :]
    if fault == "truncated-header":
        return payload[:last]
    if fault == "truncated-payload":
        return payload[: last + 2]
    return payload + b"\x00"


def _speed_block(word_bits: int) -> tuple[np.ndarray, str]:
    dtype = np.float32 if word_bits == 32 else np.float64
    rng = np.random.default_rng(word_bits)
    values = np.cumsum(rng.normal(scale=0.01, size=16 * 16384 // (word_bits // 8)))
    return values.astype(dtype), ("spspeed" if word_bits == 32 else "dpspeed")


@pytest.mark.parametrize("word_bits", [32, 64])
@pytest.mark.parametrize("fault", _FAULTS)
def test_block_fault_raises_and_salvage_marks_only_its_chunk(fault, word_bits):
    values, codec = _speed_block(word_bits)
    blob = repro.compress(values, codec, checksum=False, chunk_checksums=False)
    info = fmt.inspect_container(blob)
    assert info.n_chunks == 16 and not info.raw_fallback
    offsets = np.cumsum((info.payload_offset, *info.chunk_sizes))
    payloads = [blob[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    k = 9
    bodies = [p[1:] for p in payloads]  # strip the chunk flag: MPLG payloads
    bodies[k] = _corrupt(bodies[k], fault, word_bits)
    with pytest.raises(CorruptDataError):
        MPLG(word_bits).decode_batch(bodies)
    payloads[k] = payloads[k][:1] + bodies[k]
    mutant = fmt.build_container(
        codec_id=info.codec_id, dtype_code=info.dtype_code,
        original_len=info.original_len, intermediate_len=info.intermediate_len,
        chunk_size=info.chunk_size, chunk_payloads=payloads,
    )
    with pytest.raises(CorruptDataError):
        repro.decompress(mutant)
    got, report = repro.decompress(mutant, errors="salvage")
    assert [f.index for f in report.failures] == [k]
    chunk_words = info.chunk_size // values.itemsize
    keep = np.ones(len(values), dtype=bool)
    keep[k * chunk_words : (k + 1) * chunk_words] = False
    assert np.array_equal(got[keep], values[keep])


@pytest.mark.parametrize("word_bits", [32, 64])
def test_block_decode_unpacks_once_per_header_byte(word_bits, monkeypatch):
    values, codec = _speed_block(word_bits)
    blob = repro.compress(values, codec, checksum=False, chunk_checksums=False)
    info = fmt.inspect_container(blob)
    offsets = np.cumsum((info.payload_offset, *info.chunk_sizes))
    bodies = [blob[a + 1 : b] for a, b in zip(offsets[:-1], offsets[1:])]
    distinct = {h for body in bodies for h in _header_bytes(body, word_bits)}
    assert len(bodies) == 16 and len(distinct) > 1
    calls = []
    real = mplg_module.unpack_words

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(mplg_module, "unpack_words", spy)
    stage = MPLG(word_bits)
    decoded = stage.decode_batch(bodies)
    assert len(calls) == len(distinct)
    monkeypatch.undo()
    assert decoded == [MPLG(word_bits).decode(body) for body in bodies]
