"""Timing gate for chunk-batched columnar stage execution.

Batching exists purely for speed: whole blocks of chunks run through
each stage's 2D kernels in one pass instead of re-entering the Python
dispatch machinery per chunk (the wire format is unchanged — the
byte-identity sweep in ``tests/core/test_batched.py`` pins that).  This
module keeps the speed claim honest at the pipeline level, where the
engine's block encoder and decoder spend their time: on the speed
codecs, ``Pipeline.encode_chunk_batch`` over a block of chunks must
beat the per-chunk ``Pipeline.encode_chunk`` loop over the same chunks
by >= 2x in geometric mean, and ``decode_chunk_batch`` must never lose
to the ``decode_chunk`` loop.  At the corpus geometry (one 256 KiB file:
16 chunks of 16 KiB, decoded as one block) batched decode must beat the
loop by >= 1.5x: MPLG decodes a whole block with one unpack call per
distinct subchunk header byte, where the loop pays those calls per chunk.

The speed codecs carry the gate because their pipelines are pure kernel
work (DiffMS -> MPLG), where per-chunk Python overhead dominates; the
ratio codecs spend their time inside larger per-call kernels and gain
less from batching.

The gate compresses at ``chunk_size=4096`` rather than the 16 KiB
default.  What batching eliminates is *per-chunk dispatch* — one
``Stage.encode`` entry, frame writer, and allocation round per chunk —
and that cost scales with the chunk count, not the byte count.  At 4
KiB the input splits into 4x as many dispatch units, so a regression in
the batch path (a stage silently falling back to its per-chunk loop,
say) moves the ratio far above run-to-run noise; at 16 KiB on a 1-CPU
box the same regression can hide inside kernel-time jitter.  End-to-end
throughput at the default chunk size is tracked by ``BENCH_pr5.json``
against the previous PR's numbers instead.

Timing follows the paired-interleaved pattern of
``test_kernel_microbench._paired_speedup``: best-of-runs with trials
interleaved, so a frequency ramp or noisy neighbour cannot land
entirely on one side of the ratio.

Not part of tier-1 (``testpaths = ["tests"]``): timing gates belong in
the benchmark suite, where a noisy CI box can rerun them in isolation.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.codecs import get_codec

MIN_GEOMEAN_SPEEDUP = 2.0
SPEED_CODECS = ("spspeed", "dpspeed")
INPUT_BYTES = 1_000_000
CHUNK_BYTES = 4096  # 4x the dispatch units of the 16 KiB default
RUNS = 9

#: The corpus geometry: one 256 KiB file in 16 KiB chunks, one block.
CORPUS_INPUT_BYTES = 16 * 16384
CORPUS_CHUNK_BYTES = 16384
MIN_CORPUS_DECODE_SPEEDUP = 1.5


def _paired_speedup(fast_fn, slow_fn, runs: int = RUNS) -> float:
    """best(slow) / best(fast), with trials interleaved."""
    fast_fn(), slow_fn()  # warm caches and lru_cache'd plans
    best_fast = best_slow = math.inf
    for _ in range(runs):
        t0 = time.perf_counter()
        fast_fn()
        best_fast = min(best_fast, time.perf_counter() - t0)
        t0 = time.perf_counter()
        slow_fn()
        best_slow = min(best_slow, time.perf_counter() - t0)
    return best_slow / best_fast


def _chunks(codec, input_bytes: int = INPUT_BYTES,
            chunk_bytes: int = CHUNK_BYTES) -> list[bytes]:
    rng = np.random.default_rng(0xBA7C4)
    n = input_bytes // codec.dtype.itemsize
    data = np.cumsum(rng.normal(scale=0.01, size=n)).astype(
        codec.dtype
    ).tobytes()
    return [data[i : i + chunk_bytes] for i in range(0, len(data), chunk_bytes)]


def _decode_speedups(input_bytes: int, chunk_bytes: int) -> list[float]:
    speedups = []
    for name in SPEED_CODECS:
        pipeline = get_codec(name).make_pipeline()
        chunks = _chunks(get_codec(name), input_bytes, chunk_bytes)
        payloads = pipeline.encode_chunk_batch(chunks)
        lengths = [len(chunk) for chunk in chunks]
        assert pipeline.decode_chunk_batch(payloads, lengths) == chunks
        speedups.append(_paired_speedup(
            lambda: pipeline.decode_chunk_batch(payloads, lengths),
            lambda: [pipeline.decode_chunk(p, n)
                     for p, n in zip(payloads, lengths)],
        ))
    return speedups


class TestBatchedSpeedup:
    def test_compress_geomean_speedup_on_speed_codecs(self):
        speedups = []
        for name in SPEED_CODECS:
            pipeline = get_codec(name).make_pipeline()
            chunks = _chunks(get_codec(name))
            assert pipeline.encode_chunk_batch(chunks) == [
                pipeline.encode_chunk(chunk) for chunk in chunks
            ]
            speedups.append(_paired_speedup(
                lambda: pipeline.encode_chunk_batch(chunks),
                lambda: [pipeline.encode_chunk(chunk) for chunk in chunks],
            ))
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= MIN_GEOMEAN_SPEEDUP, (
            f"batched compress geomean {geomean:.2f}x "
            f"(per codec: {[f'{s:.2f}x' for s in speedups]})"
        )

    def test_batched_decode_never_slower(self):
        """Decode batching is a smaller win at 4 KiB; gate it at parity."""
        speedups = _decode_speedups(INPUT_BYTES, CHUNK_BYTES)
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= 1.0, (
            f"batched decompress geomean {geomean:.2f}x "
            f"(per codec: {[f'{s:.2f}x' for s in speedups]})"
        )

    def test_batched_decode_speedup_at_corpus_geometry(self):
        speedups = _decode_speedups(CORPUS_INPUT_BYTES, CORPUS_CHUNK_BYTES)
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= MIN_CORPUS_DECODE_SPEEDUP, (
            f"corpus-geometry batched decompress geomean {geomean:.2f}x "
            f"(per codec: {[f'{s:.2f}x' for s in speedups]})"
        )
