"""Stage pipelines: forward transformation chains with reverse decoding.

A :class:`Pipeline` applies its stages in order during compression; for
decompression "the inverses of the stages are invoked in reverse order"
(paper §3, Figure 1).  The per-chunk raw fallback lives here: a chunk
whose transformed body is not smaller than the original is emitted raw.

Pipelines honour the zero-copy contract of :mod:`repro.stages`: chunk
inputs may be ``memoryview``\\ s into a larger buffer, and the optional
``events`` argument of every method records one
:class:`~repro.core.trace.StageEvent` per stage (time spent, bytes left
behind) for the engine's block instrumentation.

Each operation exists per chunk and batched.  The batched methods run
the stages' columnar kernels over a whole block of chunks at once; the
per-chunk methods run :meth:`Stage.encode`/:meth:`Stage.decode`, the
reference the batch kernels are tested against.  Both share the
chunk-flag framing (:func:`_frame`, :func:`_unframe`, :func:`_checked`).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.core.chunking import CHUNK_COMPRESSED, CHUNK_RAW
from repro.core.trace import StageEvent
from repro.errors import CorruptDataError
from repro.stages import ByteLike, Stage


def _run_stages(stages, method: str, data, events, out_bytes):
    """Apply ``method`` of each stage in turn, recording one event per
    stage when ``events`` is given (``out_bytes`` sizes its output)."""
    for stage in stages:
        fn = getattr(stage, method)
        if events is None:
            data = fn(data)
        else:
            start = time.perf_counter()
            data = fn(data)
            events.append(
                StageEvent(stage.name, time.perf_counter() - start, out_bytes(data))
            )
    return data


def _batch_bytes(data: list) -> int:
    return sum(len(d) for d in data)


def _frame(chunk: ByteLike, body: bytes) -> bytes:
    """One chunk's payload: the flagged body, or the raw chunk when the
    transformed body did not shrink it."""
    if len(body) >= len(chunk):
        return bytes([CHUNK_RAW]) + chunk
    return bytes([CHUNK_COMPRESSED]) + body


def _unframe(payload: ByteLike) -> tuple[bool, ByteLike]:
    """Split a chunk payload into ``(is_raw, body)``; rejects empty
    payloads and unknown flags."""
    if not len(payload):
        raise CorruptDataError("empty chunk payload")
    flag = payload[0]
    if flag not in (CHUNK_RAW, CHUNK_COMPRESSED):
        raise CorruptDataError(f"unknown chunk flag {flag}")
    return flag == CHUNK_RAW, payload[1:]


def _checked(chunk: bytes, original_len: int) -> bytes:
    """Reject a decoded chunk whose length is not the declared one."""
    if len(chunk) != original_len:
        raise CorruptDataError(
            f"chunk decoded to {len(chunk)} bytes, expected {original_len}"
        )
    return chunk


class Pipeline:
    """An ordered chain of reversible stages."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)

    def encode(self, data: ByteLike, events: list[StageEvent] | None = None) -> bytes:
        return _run_stages(self.stages, "encode", data, events, len)

    def decode(self, data: ByteLike, events: list[StageEvent] | None = None) -> bytes:
        return _run_stages(reversed(self.stages), "decode", data, events, len)

    def encode_chunk(
        self, chunk: ByteLike, events: list[StageEvent] | None = None
    ) -> bytes:
        """Transform one chunk, falling back to raw storage on expansion."""
        return _frame(chunk, self.encode(chunk, events))

    def decode_chunk(
        self,
        payload: ByteLike,
        original_len: int,
        events: list[StageEvent] | None = None,
    ) -> bytes:
        """Invert :meth:`encode_chunk`; validates the recovered length."""
        raw, body = _unframe(payload)
        chunk = bytes(body) if raw else self.decode(body, events)
        return _checked(chunk, original_len)

    # -- batched execution ------------------------------------------------

    def encode_batch(
        self, chunks: list, events: list[StageEvent] | None = None
    ) -> list[bytes]:
        """Columnar :meth:`encode`: each stage sees the whole batch at once.

        With ``events``, one :class:`StageEvent` per stage is recorded with
        the batch's total output bytes.
        """
        return _run_stages(self.stages, "encode_batch", list(chunks), events,
                           _batch_bytes)

    def decode_batch(
        self, payloads: list, events: list[StageEvent] | None = None
    ) -> list[bytes]:
        return _run_stages(reversed(self.stages), "decode_batch", list(payloads),
                           events, _batch_bytes)

    def encode_chunk_batch(
        self, chunks: list, events: list[StageEvent] | None = None
    ) -> list[bytes]:
        """Batched :meth:`encode_chunk`: per-chunk raw fallback still applies."""
        bodies = self.encode_batch(chunks, events)
        return [_frame(chunk, body) for chunk, body in zip(chunks, bodies)]

    def decode_chunk_batch(
        self,
        payloads: list,
        original_lens: Sequence[int],
        events: list[StageEvent] | None = None,
    ) -> list[bytes]:
        """Batched :meth:`decode_chunk`.

        May raise on *any* chunk of the batch without per-chunk
        attribution — callers needing serial-identical errors re-run the
        failing batch through :meth:`decode_chunk`.
        """
        chunks: list[bytes | None] = [None] * len(payloads)
        compressed_idx: list[int] = []
        bodies: list[ByteLike] = []
        for i, payload in enumerate(payloads):
            raw, body = _unframe(payload)
            if raw:
                chunks[i] = bytes(body)
            else:
                compressed_idx.append(i)
                bodies.append(body)
        for i, chunk in zip(compressed_idx, self.decode_batch(bodies, events)):
            chunks[i] = chunk
        return [_checked(c, n) for c, n in zip(chunks, original_lens)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = " -> ".join(stage.name for stage in self.stages)
        return f"Pipeline({names})"
