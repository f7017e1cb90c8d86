"""Block (columnar) chunk execution and the GIL-free process executor.

The engine runs every chunk inside a block through the stages' batched
kernels.  The contract is strict byte-identity: its containers must
equal a reference built chunk by chunk from ``Pipeline.encode_chunk``
for every codec and every input geometry, and must decode to what
``Pipeline.decode_chunk`` recovers.  The process executor must honour
the same contract plus serial error semantics (type, message, lowest
failing chunk), on both the encode and the decode side.  These tests
sweep the geometry space — chunk counts 1/2/17/29, a ragged final
chunk, empty input — and pin the batch fallback of stages without a 2D
kernel to the per-chunk loop.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE
from repro.core.codecs import CODECS, get_codec
from repro.core.compressor import (
    compress_bytes,
    decompress_bytes,
    decompress_range_bytes,
)
from repro.core.executors import (
    EXECUTOR_POLICIES,
    SharedMemoryProcessExecutor,
    get_executor,
    normalize_policy,
    resolve_executor,
)
from repro.core.pipeline import Pipeline
from repro.errors import ChecksumError, ReproError
from repro.stages import ByteShuffle, DiffMS, XorDelta


def _sample(rng, dtype, n) -> bytes:
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(dtype).tobytes()


def _geometry_bytes(codec, n_chunks: int, ragged: bool) -> int:
    """Input size spanning ``n_chunks`` chunks, optionally ragged."""
    size = n_chunks * CHUNK_SIZE
    if ragged:
        # Knock a partial word-count off the final chunk (but keep the
        # chunk non-empty), so the last chunk exercises tail handling.
        size -= 5 * codec.dtype.itemsize + 3
    return size


def _reference_container(data: bytes, codec) -> bytes:
    """The container ``compress_bytes(data, codec)`` must produce, built
    chunk by chunk through ``Pipeline.encode_chunk`` (no block encoder,
    no executor)."""
    dtype_code = {4: fmt.DTYPE_F32, 8: fmt.DTYPE_F64}[codec.dtype.itemsize]
    global_stage = codec.make_global_stage()
    inter = data if global_stage is None else global_stage.encode(data)
    pipeline = codec.make_pipeline()
    payloads = [
        pipeline.encode_chunk(inter[offset : offset + CHUNK_SIZE])
        for offset in range(0, len(inter), CHUNK_SIZE)
    ]
    crc = fmt.checksum_of(data) if fmt.DEFAULT_CHECKSUM else None
    blob = fmt.build_container(
        codec_id=codec.codec_id, dtype_code=dtype_code,
        original_len=len(data), intermediate_len=len(inter),
        chunk_size=CHUNK_SIZE, chunk_payloads=payloads, checksum=crc,
        chunk_crcs=fmt.DEFAULT_CHUNK_CHECKSUMS,
    )
    if fmt.raw_container_size(len(data), checksum=crc) < len(blob):
        return fmt.build_raw_container(
            codec_id=codec.codec_id, dtype_code=dtype_code,
            data=data, checksum=crc,
        )
    return blob


def _reference_decode(blob: bytes, codec) -> bytes:
    """Decode ``blob`` chunk by chunk through ``Pipeline.decode_chunk``."""
    info = fmt.inspect_container(blob)
    if info.raw_fallback:
        return blob[info.payload_offset :]
    pipeline = codec.make_pipeline(info.fcm_restart)
    offset = info.payload_offset
    pieces = []
    for size, length in zip(info.chunk_sizes, info.decoded_lengths()):
        pieces.append(pipeline.decode_chunk(blob[offset : offset + size], length))
        offset += size
    inter = b"".join(pieces)
    global_stage = codec.make_global_stage()
    return inter if global_stage is None else global_stage.decode(inter)


@pytest.mark.parametrize("name", sorted(CODECS))
class TestBatchedByteIdentity:
    """The tentpole invariant, swept over the geometry space."""

    # Every block size runs the same MPLG block kernel (a one-chunk
    # block included); 29 chunks spans more than one 16-chunk corpus file.
    @pytest.mark.parametrize("n_chunks", [1, 2, 17, 29])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_batched_matches_serial_loop(self, name, n_chunks, ragged, rng):
        codec = get_codec(name)
        size = _geometry_bytes(codec, n_chunks, ragged)
        data = _sample(rng, codec.dtype, size // codec.dtype.itemsize)
        blob = compress_bytes(data, codec)
        # Golden equality via digest (exact bytes, reported compactly).
        assert (
            hashlib.sha256(blob).hexdigest()
            == hashlib.sha256(_reference_container(data, codec)).hexdigest()
        ), (name, n_chunks, ragged)
        # The chunk count follows the *intermediate* buffer (a global
        # stage may expand it), but it always covers the input.
        assert fmt.inspect_container(blob).n_chunks >= n_chunks
        assert _reference_decode(blob, codec) == data
        back, _ = decompress_bytes(blob)
        assert back == data, (name, n_chunks, ragged)

    def test_empty_input(self, name, rng):
        codec = get_codec(name)
        blob = compress_bytes(b"", codec)
        assert blob == _reference_container(b"", codec)
        assert _reference_decode(blob, codec) == b""
        back, _ = decompress_bytes(blob)
        assert back == b""

    def test_auto_batching_is_default(self, name, rng, monkeypatch):
        """A multi-chunk block runs as one batched pass each way."""
        calls = []
        for method in ("encode_chunk_batch", "decode_chunk_batch"):
            original = getattr(Pipeline, method)

            def spy(self, payloads, *args, _original=original, **kwargs):
                calls.append(len(payloads))
                return _original(self, payloads, *args, **kwargs)

            monkeypatch.setattr(Pipeline, method, spy)
        codec = get_codec(name)
        data = _sample(rng, codec.dtype, 3 * CHUNK_SIZE // codec.dtype.itemsize)
        blob = compress_bytes(data, codec)
        assert blob == _reference_container(data, codec)
        n_chunks = fmt.inspect_container(blob).n_chunks
        assert calls == [n_chunks]
        assert decompress_bytes(blob)[0] == data
        assert calls == [n_chunks, n_chunks]


class TestBatchFallbackRegression:
    """A stage without a 2D kernel must batch via the per-chunk loop."""

    @pytest.mark.parametrize("stage_cls", [XorDelta, ByteShuffle])
    def test_default_encode_batch_is_the_loop(self, stage_cls, rng):
        stage = stage_cls(word_bits=32)
        chunks = [
            _sample(rng, np.float32, n) for n in (0, 17, 1024, 1024, 4096)
        ]
        encoded = stage.encode_batch(chunks)
        assert encoded == [stage.encode(c) for c in chunks]
        assert stage.decode_batch(encoded) == [
            stage.decode(p) for p in encoded
        ]


class TestProcessPolicyNames:
    def test_process_in_executor_vocabulary(self):
        assert "process" in EXECUTOR_POLICIES
        assert normalize_policy("process", EXECUTOR_POLICIES) == "process"
        assert normalize_policy("processes", EXECUTOR_POLICIES) == "process"
        assert normalize_policy("multiprocess", EXECUTOR_POLICIES) == "process"

    def test_process_not_a_scheduling_policy(self):
        # The device simulator's vocabulary stays thread-only.
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            normalize_policy("process")

    def test_get_executor_builds_process_pool(self):
        engine = get_executor("process", 2)
        assert isinstance(engine, SharedMemoryProcessExecutor)
        assert engine.policy == "process"
        engine.close()

    def test_resolve_passes_prebuilt_through(self):
        with SharedMemoryProcessExecutor(1) as engine:
            assert resolve_executor(engine, 4) is engine


class TestProcessExecutorIdentity:
    """Mirrors TestPolicyEquivalence for the process policy."""

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_byte_identical_to_serial(self, name, rng):
        codec = get_codec(name)
        data = _sample(rng, codec.dtype, 60_000)
        reference = compress_bytes(data, codec, executor="serial")
        with SharedMemoryProcessExecutor(2) as engine:
            blob = compress_bytes(data, codec, executor=engine)
            assert blob == reference
            back, _ = decompress_bytes(blob, executor=engine)
            assert back == data

    def test_empty_input(self):
        codec = get_codec("spspeed")
        with SharedMemoryProcessExecutor(2) as engine:
            blob = compress_bytes(b"", codec, executor=engine)
            assert blob == compress_bytes(b"", codec, executor="serial")
            back, _ = decompress_bytes(blob, executor=engine)
            assert back == b""

    def test_policy_string_builds_and_closes_own_pool(self, rng):
        codec = get_codec("spratio")
        data = _sample(rng, codec.dtype, 40_000)
        blob = compress_bytes(data, codec, executor="process", workers=2)
        assert blob == compress_bytes(data, codec, executor="serial")
        back, _ = decompress_bytes(blob, executor="process", workers=2)
        assert back == data

    def test_raw_fallback_roundtrip(self, rng):
        data = rng.bytes(50_000)  # random bytes defeat every stage
        codec = get_codec("spspeed")
        with SharedMemoryProcessExecutor(2) as engine:
            blob = compress_bytes(data, codec, executor=engine)
            assert fmt.inspect_container(blob).raw_fallback
            back, _ = decompress_bytes(blob, executor=engine)
            assert back == data

    def test_mixed_container_with_fcm_member(self, rng):
        """A v4 member with an FCM stage keeps its restart framing in the
        workers, whatever the container-level restart flag says."""
        a = _sample(rng, np.float64, 6_000)
        b = _sample(rng, np.float64, 6_000)
        blob = fmt.concat_containers([
            compress_bytes(a, get_codec("dpratio"), fcm="restart"),
            compress_bytes(b, get_codec("dpspeed")),
        ])
        assert len(set(fmt.inspect_container(blob).chunk_codecs)) == 2
        with SharedMemoryProcessExecutor(2) as engine:
            back, _ = decompress_bytes(blob, executor=engine)
            assert back == a + b

    def test_closed_executor_rejects_work(self, rng):
        engine = SharedMemoryProcessExecutor(1)
        engine.close()
        engine.close()  # idempotent
        codec = get_codec("spspeed")
        data = _sample(rng, codec.dtype, 40_000)
        with pytest.raises(RuntimeError, match="closed"):
            compress_bytes(data, codec, executor=engine)


def _corrupt_chunk(blob: bytes, chunk_index: int) -> bytes:
    """Flip a payload byte inside one chunk of a v2 container."""
    info = fmt.inspect_container(blob)
    offset = info.payload_offset + sum(info.chunk_sizes[:chunk_index])
    mutated = bytearray(blob)
    mutated[offset + 2] ^= 0xFF
    return bytes(mutated)


class TestProcessErrorSemantics:
    """Errors must cross the process boundary with serial fidelity."""

    @pytest.fixture
    def container(self, rng):
        codec = get_codec("spratio")
        data = _sample(rng, codec.dtype, 60_000)
        blob = compress_bytes(data, codec, checksum=False,
                              chunk_checksums=True)
        assert fmt.inspect_container(blob).n_chunks >= 4
        return blob

    def _error_of(self, blob, **kwargs):
        with pytest.raises(ReproError) as excinfo:
            decompress_bytes(blob, **kwargs)
        return type(excinfo.value), str(excinfo.value)

    def test_same_error_as_serial(self, container):
        bad = _corrupt_chunk(container, 2)
        serial = self._error_of(bad, executor="serial")
        with SharedMemoryProcessExecutor(2) as engine:
            assert self._error_of(bad, executor=engine) == serial
        assert serial[0] is ChecksumError
        assert "chunk 2" in serial[1]

    def test_lowest_failing_chunk_wins(self, container):
        bad = _corrupt_chunk(_corrupt_chunk(container, 3), 1)
        serial = self._error_of(bad, executor="serial")
        assert "chunk 1" in serial[1]
        with SharedMemoryProcessExecutor(2) as engine:
            assert self._error_of(bad, executor=engine) == serial

    def test_batched_blocks_report_serial_errors(self, container):
        bad = _corrupt_chunk(container, 2)
        serial = self._error_of(bad, executor="serial")
        assert serial[0] is ChecksumError
        assert serial[1].startswith("chunk 2 (container bytes ")
        assert self._error_of(bad, executor="threaded", workers=3) == serial
        assert self._error_of(bad, executor="static-blocks",
                              workers=2) == serial

    def _salvage_everywhere(self, decode) -> dict:
        """``decode(**kwargs)`` under every executor policy."""
        with SharedMemoryProcessExecutor(2) as engine:
            return {
                label: decode(**kwargs)
                for label, kwargs in (("serial", {"executor": "serial"}),
                                      ("threaded", {"executor": "threaded",
                                                    "workers": 3}),
                                      ("process", {"executor": engine}))
            }

    def test_salvage_works_under_process_executor(self, container, rng):
        bad = _corrupt_chunk(container, 2)
        results = self._salvage_everywhere(
            lambda **kw: decompress_bytes(bad, errors="salvage", **kw)
        )
        data, info, report = results["serial"]
        for key, result in results.items():
            assert result == (data, info, report), key
        assert report.damaged_ranges  # chunk 2 was zero-filled
        assert len(data) == info.original_len
        assert [f.index for f in report.failures] == [2]
        # Salvage reasons carry the strict path's attribution prefix.
        with pytest.raises(ChecksumError) as excinfo:
            decompress_bytes(bad)
        assert report.failures[0].reason == str(excinfo.value)
        assert report.failures[0].reason.startswith(
            "chunk 2 (container bytes "
        )

    def test_range_salvage_identical_under_every_policy(self, container):
        bad = _corrupt_chunk(container, 2)
        start, stop = CHUNK_SIZE + 100, 5 * CHUNK_SIZE - 7
        results = self._salvage_everywhere(
            lambda **kw: decompress_range_bytes(
                bad, start, stop, errors="salvage", **kw
            )
        )
        data, _, report = results["serial"]
        for key, result in results.items():
            assert result == results["serial"], key
        assert [f.index for f in report.failures] == [2]
        assert len(data) == stop - start

    def test_salvage_honours_batch(self, container, monkeypatch):
        """Salvage decodes through the same blocks as a strict decode."""
        calls = []
        original = Pipeline.decode_chunk_batch

        def spy(self, payloads, *args, **kwargs):
            calls.append(len(payloads))
            return original(self, payloads, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "decode_chunk_batch", spy)
        n_chunks = fmt.inspect_container(container).n_chunks
        decompress_bytes(container, errors="salvage")
        assert calls == [n_chunks]
        calls.clear()
        decompress_bytes(container, errors="salvage", executor="static-blocks",
                         workers=2)
        assert sorted(calls) == [n_chunks // 2, n_chunks - n_chunks // 2]


class TestEncodeErrorSemantics:
    """An encode failure raises the same exception under every policy."""

    def test_same_exception_under_every_policy(self, rng, monkeypatch):
        original = DiffMS.encode

        def encode(self, data):
            head = bytes(data[:8])
            if head in (b"\x11" * 8, b"\x22" * 8):
                raise ValueError(f"poisoned chunk starting {head[:1].hex()}")
            return original(self, data)

        def encode_batch(self, chunks):
            raise ValueError("batch kernel failed")

        # Patched before any pool exists: the "process" policy string
        # builds its pool per call, so the workers fork with the patch.
        monkeypatch.setattr(DiffMS, "encode", encode)
        monkeypatch.setattr(DiffMS, "encode_batch", encode_batch)
        codec = get_codec("spspeed")
        data = bytearray(_sample(rng, codec.dtype, 8 * CHUNK_SIZE // 4))
        data[3 * CHUNK_SIZE : 4 * CHUNK_SIZE] = b"\x11" * CHUNK_SIZE
        data[6 * CHUNK_SIZE : 7 * CHUNK_SIZE] = b"\x22" * CHUNK_SIZE
        seen = set()
        for policy, workers in (("serial", 1), ("threaded", 3),
                                ("static-blocks", 3), ("process", 2)):
            with pytest.raises(Exception) as excinfo:
                compress_bytes(bytes(data), codec, executor=policy,
                               workers=workers)
            seen.add((type(excinfo.value), str(excinfo.value)))
        # The lowest failing chunk's own exception, unchanged.
        assert seen == {(ValueError, "poisoned chunk starting 11")}
