"""Batched (columnar) stage execution and the GIL-free process executor.

The batching contract is strict byte-identity: ``batch=True`` must
produce the same container bytes as the per-chunk loop for every codec
and every input geometry, and the process executor must honour the same
contract plus serial error semantics (type, message, lowest failing
chunk).  These tests sweep the geometry space — chunk counts 1/2/17, a
ragged final chunk, empty input — and pin the batch fallback of stages
without a 2D kernel to the per-chunk loop.
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
from repro.stages import ByteShuffle, XorDelta


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


@pytest.mark.parametrize("name", sorted(CODECS))
class TestBatchedByteIdentity:
    """The tentpole invariant, swept over the geometry space."""

    # 29 sits above MPLG's _MIN_DECODE_GROUP so the sweep also covers
    # the grouped decode kernels, not just their small-batch fallback.
    @pytest.mark.parametrize("n_chunks", [1, 2, 17, 29])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_batched_matches_serial_loop(self, name, n_chunks, ragged, rng):
        codec = get_codec(name)
        size = _geometry_bytes(codec, n_chunks, ragged)
        data = _sample(rng, codec.dtype, size // codec.dtype.itemsize)
        serial = compress_bytes(data, codec, batch=False)
        batched = compress_bytes(data, codec, batch=True)
        # Golden equality via digest (exact bytes, reported compactly).
        assert (
            hashlib.sha256(batched).hexdigest()
            == hashlib.sha256(serial).hexdigest()
        ), (name, n_chunks, ragged)
        # The chunk count follows the *intermediate* buffer (a global
        # stage may expand it), but it always covers the input.
        assert fmt.inspect_container(batched).n_chunks >= n_chunks
        for batch in (True, False):
            back, _ = decompress_bytes(batched, batch=batch)
            assert back == data, (name, n_chunks, ragged, batch)

    def test_empty_input(self, name, rng):
        codec = get_codec(name)
        serial = compress_bytes(b"", codec, batch=False)
        batched = compress_bytes(b"", codec, batch=True)
        assert batched == serial
        back, _ = decompress_bytes(batched, batch=True)
        assert back == b""

    def test_auto_batching_is_default(self, name, rng):
        """``batch=None`` (the default) batches multi-chunk inputs."""
        codec = get_codec(name)
        data = _sample(rng, codec.dtype, 3 * CHUNK_SIZE // codec.dtype.itemsize)
        assert compress_bytes(data, codec) == compress_bytes(
            data, codec, batch=True
        )


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
            for batch in (True, False):
                back, _ = decompress_bytes(blob, executor=engine, batch=batch)
                assert back == a + b, batch

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
        serial = self._error_of(bad, executor="serial", batch=False)
        assert self._error_of(bad, executor="serial", batch=True) == serial
        assert self._error_of(bad, executor="threaded", workers=3) == serial

    def _salvage_everywhere(self, decode) -> dict:
        """``decode(**kwargs)`` under every policy and batch setting."""
        results = {}
        with SharedMemoryProcessExecutor(2) as engine:
            for label, kwargs in (("serial", {"executor": "serial"}),
                                  ("threaded", {"executor": "threaded",
                                                "workers": 3}),
                                  ("process", {"executor": engine})):
                for batch in (True, False):
                    results[label, batch] = decode(batch=batch, **kwargs)
        return results

    def test_salvage_works_under_process_executor(self, container, rng):
        bad = _corrupt_chunk(container, 2)
        results = self._salvage_everywhere(
            lambda **kw: decompress_bytes(bad, errors="salvage", **kw)
        )
        data, info, report = results["serial", False]
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
        data, _, report = results["serial", False]
        for key, result in results.items():
            assert result == results["serial", False], key
        assert [f.index for f in report.failures] == [2]
        assert len(data) == stop - start

    def test_salvage_honours_batch(self, container, monkeypatch):
        calls = []
        original = Pipeline.decode_chunk_batch

        def spy(self, payloads, *args, **kwargs):
            calls.append(len(payloads))
            return original(self, payloads, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "decode_chunk_batch", spy)
        decompress_bytes(container, errors="salvage", batch=False)
        assert calls == []
        decompress_bytes(container, errors="salvage", batch=True)
        assert calls == [fmt.inspect_container(container).n_chunks]
