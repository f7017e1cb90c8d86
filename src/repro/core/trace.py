"""Block and chunk execution traces: the engine's instrumentation layer.

FCBench-style cross-codec comparisons live or die on consistent
measurement plumbing, and adaptive codec selection needs to *observe*
what each chunk actually cost.  The engine therefore threads an optional
:class:`TraceCollector` through every executor.  The engine's unit of
work is a contiguous block of chunks, so when a collector is present
each block job records one :class:`BatchTrace` — which worker ran it,
how long it took, and how long each stage took and how many bytes it
left behind — plus one :class:`ChunkTrace` per chunk with the chunk's
sizes and whether it fell back to raw storage.

Traces are collected lock-free: ``list.append`` is atomic under the GIL
and each block and chunk produces exactly one record, so workers on any
executor policy can share one collector.  Records arrive in completion
order; :attr:`TraceCollector.chunks` and :attr:`TraceCollector.batches`
return them sorted by chunk index.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StageEvent:
    """One stage's contribution to one block (or the global stage)."""

    stage: str
    seconds: float
    out_bytes: int


@dataclass(frozen=True)
class ChunkTrace:
    """One chunk's sizes; its timings live on its block's :class:`BatchTrace`."""

    index: int
    worker: int
    original_len: int
    payload_len: int
    raw_fallback: bool


@dataclass(frozen=True)
class BatchTrace:
    """One block of contiguous chunks processed as one executor job."""

    worker: int
    #: index of the block's first chunk.
    start: int
    n_chunks: int
    seconds: float
    #: per-stage (name, seconds, total output bytes across the block),
    #: in execution order — pipeline order when encoding, reverse order
    #: when decoding.
    stages: tuple[StageEvent, ...]


class TraceCollector:
    """Accumulates block and chunk traces from one compress or decompress call.

    Use one collector per engine call; the engine annotates it with the
    executor policy, worker count, and direction it ran under.
    """

    def __init__(self) -> None:
        self._chunks: list[ChunkTrace] = []
        self._batches: list[BatchTrace] = []
        self.policy: str | None = None
        self.workers: int | None = None
        self.direction: str | None = None
        #: the whole-input stage (FCM), when the codec has one.
        self.global_stage: StageEvent | None = None

    def add(self, trace: ChunkTrace) -> None:
        self._chunks.append(trace)

    def add_batch(self, trace: BatchTrace) -> None:
        self._batches.append(trace)

    def annotate(self, *, policy: str, workers: int, direction: str) -> None:
        self.policy = policy
        self.workers = workers
        self.direction = direction

    @property
    def chunks(self) -> tuple[ChunkTrace, ...]:
        """Chunk traces in chunk-index order (collection order is racy)."""
        return tuple(sorted(self._chunks, key=lambda t: t.index))

    @property
    def batches(self) -> tuple[BatchTrace, ...]:
        """Block traces in first-chunk order."""
        return tuple(sorted(self._batches, key=lambda t: t.start))

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    @property
    def raw_chunks(self) -> int:
        """How many chunks fell back to raw storage."""
        return sum(1 for t in self._chunks if t.raw_fallback)

    def __len__(self) -> int:
        return len(self._chunks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceCollector(chunks={len(self._chunks)}, policy={self.policy!r}, "
            f"workers={self.workers}, direction={self.direction!r})"
        )
