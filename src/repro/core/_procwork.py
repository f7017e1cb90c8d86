"""Worker-process entry points for the shared-memory process executor.

Everything here must be picklable by reference (module-level functions,
tasks built from plain values and plan jobs), because
:class:`~repro.core.executors.SharedMemoryProcessExecutor` ships work to
its pool via ``multiprocessing``.  Bulk bytes travel through named
shared memory; only the small task descriptions and the (compressed)
results cross the pipe.

:func:`encode_block` and :func:`decode_block` are the engine's one block
encoder and one block decoder: in-process executor jobs and the worker
entry points (:func:`proc_encode_block`, :func:`proc_decode_block`) all
run them, so failures are attributed identically under every executor
policy.  A corrupt chunk is reported as an ``(index, type_name,
message)`` triple; an encode failure as the ``(type_name, message)``
pair of the exception the lowest failing chunk raised.  The parent
rebuilds the exception class by name (:func:`rebuild_error`).
"""

from __future__ import annotations

import builtins
import struct
from multiprocessing import shared_memory

from repro import errors as _errors
from repro.core import container
from repro.errors import ChecksumError, CorruptDataError, ReproError


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifetime.

    On Python < 3.13 ``SharedMemory(name=...)`` registers the segment
    with the resource tracker even for attach-only use.  Under the fork
    start method that tracker is *shared* with the parent and its cache
    is a set, so an unregister issued from this worker would erase the
    parent's own entry and make the parent's later ``unlink`` print a
    ``KeyError`` traceback from the tracker.  The attach must therefore
    never reach the tracker at all: 3.13+ has ``track=False`` for this,
    and older versions get the equivalent by suppressing ``register``
    for the duration of the constructor (workers run tasks serially,
    so the swap is not racy).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register

#: Foreign exception types a stage may leak on garbage input; translated
#: to :class:`CorruptDataError` at the chunk/global-stage boundary.
#: MemoryError is deliberately absent — allocations are prevented by the
#: bounds checks, never papered over after the fact.
FOREIGN_ERRORS = (ValueError, TypeError, IndexError, KeyError, OverflowError,
                  ZeroDivisionError, struct.error)


def rebuild_error(type_name: str, message: str) -> Exception:
    """Reconstruct a worker-process error in the parent.

    The class is looked up by name in :mod:`repro.errors`, then among the
    built-in exceptions (an encode-side stage failure keeps the type a
    serial run raises).  Unknown names collapse to
    :class:`CorruptDataError`.
    """
    cls = getattr(_errors, type_name, None) or getattr(builtins, type_name, None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = CorruptDataError
    return cls(message)


def verify_chunk_crc(i: int, payload, crc, offset: int, end: int) -> None:
    """Raise :class:`ChecksumError` when chunk ``i`` fails its stored CRC
    (``crc`` is ``None`` for containers without chunk CRCs)."""
    if crc is not None and container.checksum_of(payload) != crc:
        raise ChecksumError(
            f"chunk {i} (container bytes {offset}..{end}): "
            f"payload CRC32 mismatch"
        )


def decode_chunk_guarded(
    pipeline, i: int, payload, length: int, offset: int, end: int, crc,
    events=None,
) -> bytes:
    """Decode one chunk with the engine's strict error semantics.

    Verifies the optional payload CRC, translates foreign exceptions to
    :class:`CorruptDataError`, and prefixes every failure with the chunk
    index and container byte range — ``chunk i (container bytes a..b):``
    — so every decode path reports the same string.
    """
    verify_chunk_crc(i, payload, crc, offset, end)
    try:
        return pipeline.decode_chunk(payload, length, events)
    except ReproError as exc:
        raise type(exc)(
            f"chunk {i} (container bytes {offset}..{end}): {exc}"
        ) from exc
    except FOREIGN_ERRORS as exc:
        raise CorruptDataError(
            f"chunk {i} (container bytes {offset}..{end}): "
            f"undecodable payload ({type(exc).__name__}: {exc})"
        ) from exc


def block_crcs(chunk_crcs, jobs) -> list:
    """Stored payload CRC of each job's chunk (``None`` entries when the
    container carries no chunk CRCs)."""
    if chunk_crcs is None:
        return [None] * len(jobs)
    return [chunk_crcs[job.index] for job in jobs]


def encode_block(pipeline, chunks, events=None) -> list:
    """Encode one contiguous block of chunks: the engine's block encoder.

    A block of two or more chunks runs as one ``encode_chunk_batch`` pass
    (one columnar kernel invocation per stage).  A one-chunk block, and
    any block whose batched pass raised, runs chunk by chunk through
    ``encode_chunk``, so the exception that escapes is the one the
    lowest failing chunk raises on its own — what a serial encode hits
    first.  Returns the payloads in chunk order.
    """
    if len(chunks) >= 2:
        try:
            return pipeline.encode_chunk_batch(chunks, events)
        except Exception:
            pass  # the per-chunk sweep below raises the serial error
    return [pipeline.encode_chunk(chunk, events) for chunk in chunks]


def decode_block(
    pipeline, jobs, payloads, lengths, crcs, events=None
) -> tuple[list, list]:
    """Decode one contiguous block of chunks: the engine's block decoder.

    ``jobs`` are the block's :class:`~repro.core.plan.ChunkJob` entries
    (global chunk index plus container byte window), ``payloads`` their
    payload bytes, ``lengths`` their decoded lengths and ``crcs`` their
    stored CRCs.  A block of two or more chunks first runs as one
    CRC-verified ``decode_chunk_batch`` pass.  A one-chunk block, and any
    block whose batched pass raised, runs chunk by chunk through
    :func:`decode_chunk_guarded`, which attributes each failure exactly
    as a serial decode would.

    Returns ``(chunks, errors)``: the decoded chunks (``None`` where one
    failed) and an ``(index, type_name, message)`` triple per failed
    chunk, in ascending index order.
    """
    if len(jobs) >= 2:
        try:
            for job, payload, crc in zip(jobs, payloads, crcs):
                verify_chunk_crc(job.index, payload, crc, job.offset, job.end)
            return pipeline.decode_chunk_batch(payloads, lengths, events), []
        except Exception:
            pass  # the per-chunk sweep below attributes every failure
    chunks: list = []
    errors: list[tuple[int, str, str]] = []
    for job, payload, length, crc in zip(jobs, payloads, lengths, crcs):
        try:
            chunks.append(decode_chunk_guarded(
                pipeline, job.index, payload, length, job.offset, job.end,
                crc, events,
            ))
        except ReproError as exc:
            chunks.append(None)
            errors.append((job.index, type(exc).__name__, str(exc)))
    return chunks, errors


def proc_encode_block(task) -> tuple[list | None, tuple[str, str] | None]:
    """Run :func:`encode_block` on one block inside a worker process.

    ``task`` is ``(shm_name, codec_name, fcm_restart, windows)`` with
    ``windows`` the block's ``(offset, end)`` byte windows into the
    shared buffer.  Returns ``(payloads, None)``, or ``(None, (type_name,
    message))`` when the block raised.
    """
    shm_name, codec_name, fcm_restart, windows = task
    from repro.core.codecs import get_codec

    shm = _attach(shm_name)
    try:
        # Copy the windows out so the buffer releases cleanly on close.
        chunks = [bytes(shm.buf[offset:end]) for offset, end in windows]
    finally:
        shm.close()
    pipeline = get_codec(codec_name).make_pipeline(fcm_restart)
    try:
        return encode_block(pipeline, chunks), None
    except Exception as exc:
        return None, (type(exc).__name__, str(exc))


def proc_decode_block(task) -> list:
    """Run :func:`decode_block` on one block inside a worker process.

    ``task`` is ``(in_name, out_name, codec_name, fcm_restart, jobs,
    out_offsets, lengths, crcs)``.  Jobs keep the container's
    global chunk index (subset/range plans pass it through for
    attribution); decoded chunks land in the output shared memory at
    their plan-relative prefix-sum offsets.  Returns the error triples
    (empty on success).
    """
    (in_name, out_name, codec_name, fcm_restart, jobs, out_offsets,
     lengths, crcs) = task
    from repro.core.codecs import get_codec

    in_shm = _attach(in_name)
    try:
        payloads = [bytes(in_shm.buf[job.offset : job.end]) for job in jobs]
    finally:
        in_shm.close()
    pipeline = get_codec(codec_name).make_pipeline(fcm_restart)
    chunks, errors = decode_block(pipeline, jobs, payloads, lengths, crcs)
    out_shm = _attach(out_name)
    try:
        for out_offset, length, chunk in zip(out_offsets, lengths, chunks):
            if chunk is not None:
                out_shm.buf[out_offset : out_offset + length] = chunk
    finally:
        out_shm.close()
    return errors
