"""The compression engine: a plan/execute core over zero-copy chunk views.

``compress_bytes`` mirrors the structure of the paper's encoders, split
into the two layers §3.1 implies:

* the **plan** (:mod:`repro.core.plan`) precomputes every chunk's read
  window from prefix sums over the chunk lengths — pure arithmetic, no
  data movement;
* the **executor** (:mod:`repro.core.executors`) decides *who* runs each
  job and *when* — serially, through a dynamic worklist of threads (the
  paper's OpenMP loop), over a static blocked partition (the CPU
  analogue of a block-per-chunk GPU launch), or in a process pool.  A
  job is one contiguous block of chunks, run through the stages'
  columnar kernels in one pass.  Chunks are independent by
  construction, so the output bytes are identical under every policy
  and worker count.

The hot path is zero-copy: block jobs read ``memoryview`` windows into
the intermediate buffer (no per-chunk slice copies), and the container /
output buffers are preallocated and filled at the plan's prefix-sum
offsets instead of ``b"".join``-ing pieces.

``decompress_bytes`` inverts the process: the size table's prefix sums
yield each chunk's read position, the a-priori chunk lengths yield each
chunk's *write* position ("No write positions need to be communicated as
the decompressed chunk sizes are known a priori", paper §3.1), chunks
decode independently under any executor, and the global stage's inverse
runs last.

Corruption hardening
--------------------
Decoding is built so that a damaged container can only fail in
library-controlled ways:

* every declared length is bounds-checked before an allocation is sized
  from it (:func:`repro.core.container.inspect_container` plus the
  geometry checks here), so a flipped header bit cannot trigger an
  over-allocation;
* chunk payload CRCs (container v2) are verified before decode, so
  corruption is caught at the damaged chunk with its byte range;
* foreign exceptions escaping a stage on garbage input are translated to
  :class:`CorruptDataError` at the chunk boundary — callers only ever see
  :class:`~repro.errors.ReproError` subclasses (the invariant
  :mod:`repro.fuzzing` enforces);
* ``errors="salvage"`` decodes every chunk that still verifies,
  zero-fills the ones that do not, and returns a
  :class:`~repro.core.salvage.SalvageReport` mapping the untrusted byte
  ranges — one flipped bit costs one chunk, not the file.

Passing a :class:`~repro.core.trace.TraceCollector` as ``trace=``
records per-block stage timings and output sizes plus per-chunk sizes,
raw-fallback flags and worker assignment, without touching the
untraced fast path.

A whole-input raw fallback caps worst-case expansion at the container
header even for adversarial inputs; it is built lazily, only when the
compressed container failed to beat it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.core import container as fmt
from repro.core._procwork import (
    FOREIGN_ERRORS,
    block_crcs,
    decode_block,
    encode_block,
    rebuild_error,
)
from repro.core.chunking import CHUNK_RAW, CHUNK_SIZE
from repro.core.codecs import Codec, codec_by_id
from repro.core.executors import (
    Executor,
    block_ranges,
    resolve_executor,
    split_ranges,
)
from repro.core.plan import EncodePlan, plan_decode, plan_encode, plan_for_range
from repro.core.salvage import ChunkFailure, SalvageReport, merge_ranges
from repro.core.trace import BatchTrace, ChunkTrace, StageEvent, TraceCollector
from repro.errors import BoundsError, ChecksumError, CorruptDataError, ReproError


def _run_global_stage(
    stage, method: str, data, trace: TraceCollector | None
):
    """Run the whole-input stage (FCM), recording its trace event."""
    fn = getattr(stage, method)
    if trace is None:
        return fn(data)
    start = time.perf_counter()
    out = fn(data)
    trace.global_stage = StageEvent(stage.name, time.perf_counter() - start, len(out))
    return out


@contextmanager
def _resolved_engine(executor: str | Executor | None, workers: int):
    """Resolve the ``executor=`` argument for one engine call.

    A process pool built here from a policy string belongs to this call
    and is closed on exit, so its worker processes never leak; a
    caller-supplied executor is left running.
    """
    engine = resolve_executor(executor, workers)
    try:
        yield engine
    finally:
        if engine is not executor and getattr(engine, "kind", None) == "process":
            engine.close()


def _member_pipeline(member: Codec):
    """A v4 member codec's chunk pipeline: codecs with a global FCM stage
    always run it restart-framed inside the chunk (the v4 contract)."""
    return member.make_pipeline(member.global_stage_factory is not None)


def _pipeline_resolver(codec: Codec, info: fmt.ContainerInfo):
    """Per-worker ``global chunk index -> pipeline`` for decoding.

    Single-codec containers resolve to one pipeline; mixed (v4)
    containers resolve through the per-chunk codec table, caching one
    pipeline per member codec.  Call once per worker — pipelines are
    thread-local by the executor contract.
    """
    if info.chunk_codecs is None:
        # Built lazily: a selector-coded container with zero chunks has no
        # table and no stages, and never asks for a pipeline.
        single: list = []

        def resolve_single(i: int):
            if not single:
                single.append(codec.make_pipeline(info.fcm_restart))
            return single[0]

        return resolve_single
    cache: dict[int, object] = {}

    def resolve(i: int):
        cid = info.chunk_codecs[i]
        pipeline = cache.get(cid)
        if pipeline is None:
            pipeline = cache[cid] = _member_pipeline(codec_by_id(cid))
        return pipeline

    return resolve


def _chunk_codec_name(info: fmt.ContainerInfo, i: int, codec: Codec) -> str:
    """The codec that encoded chunk ``i`` (salvage attribution)."""
    if info.chunk_codecs is None:
        return codec.name
    return codec_by_id(info.chunk_codecs[i]).name


def _plan_chunk_codecs(info: fmt.ContainerInfo, plan, codec: Codec):
    """Per-plan-position ``(codec_name, fcm_restart)`` pairs for the
    process executor, or ``None`` for single-codec containers."""
    if info.chunk_codecs is None:
        return None
    pairs = []
    for job in plan.jobs:
        member = codec_by_id(info.chunk_codecs[job.index])
        pairs.append((member.name, member.global_stage_factory is not None))
    return pairs


def _trace_block(
    trace: TraceCollector, worker_id: int, jobs, original_lens, payloads,
    seconds: float, events: list[StageEvent],
) -> None:
    """Record one block, in either direction: a :class:`BatchTrace` with
    its per-stage timings, plus each chunk's sizes and raw-fallback flag."""
    trace.add_batch(BatchTrace(
        worker=worker_id,
        start=jobs[0].index,
        n_chunks=len(jobs),
        seconds=seconds,
        stages=tuple(events),
    ))
    for job, original_len, payload in zip(jobs, original_lens, payloads):
        trace.add(ChunkTrace(
            index=job.index,
            worker=worker_id,
            original_len=original_len,
            payload_len=len(payload),
            raw_fallback=len(payload) > 0 and payload[0] == CHUNK_RAW,
        ))


def _encode_plan(
    codec: Codec, plan, data, engine: Executor, trace: TraceCollector | None,
    fcm_restart: bool,
) -> list:
    """Encode every chunk of ``plan`` over ``data`` — the only encode path.

    Each executor job encodes one contiguous block of chunks (one
    worker-sized block each) through
    :func:`~repro.core._procwork.encode_block`, in-process or inside a
    process-pool worker, so the payload bytes and the error raised are
    the same under every policy.  Returns the payloads in plan order.
    """
    if getattr(engine, "kind", None) == "process":
        # GIL-free path: ship the buffer through shared memory; block
        # traces are not collected across the process boundary (the
        # annotate() metadata still is).
        return engine.encode_chunks(data, plan, codec.name,
                                    fcm_restart=fcm_restart)
    blocks = block_ranges(plan.n_chunks, engine.workers)
    view = memoryview(data)

    def make_worker(worker_id: int):
        pipeline = codec.make_pipeline(fcm_restart)

        def encode_job(b: int) -> list:
            lo, hi = blocks[b]
            jobs = plan.jobs[lo:hi]
            chunks = [view[job.offset : job.end] for job in jobs]
            events: list[StageEvent] | None = None if trace is None else []
            start = time.perf_counter()
            payloads = encode_block(pipeline, chunks, events)
            if trace is not None:
                _trace_block(trace, worker_id, jobs,
                             [job.length for job in jobs], payloads,
                             time.perf_counter() - start, events)
            return payloads

        return encode_job

    return [p for block in engine.run(len(blocks), make_worker) for p in block]


def _encode_selected(
    data: bytes, chunk_size: int, dtype_code: int, engine: Executor,
    trace: TraceCollector | None, selector,
) -> tuple[list, list[int]]:
    """Encode under the adaptive selector: probe, choose, group, route.

    Selection runs once, up front, on the calling thread — the chosen
    codec table is therefore identical under every executor policy, and
    the payload bytes inherit the fixed codecs' own executor
    independence.  Same-decision chunks are grouped into subset plans so
    the columnar ``encode_chunk_batch`` kernels still engage, then the
    payloads scatter back to container order.  Returns the payloads and
    the per-chunk codec ids.
    """
    from repro.core.codecs import selection_candidates
    from repro.selection import get_policy, probe_chunks

    policy = get_policy(selector)
    candidates = selection_candidates(dtype_code)
    plan = plan_encode(len(data), chunk_size)
    view = memoryview(data)
    probes = probe_chunks([view[job.offset : job.end] for job in plan.jobs],
                          candidates, with_stats=False)
    choices = [policy.choose(p, candidates).codec_id for p in probes]
    groups: dict[int, list[int]] = {}
    for i, cid in enumerate(choices):
        groups.setdefault(cid, []).append(i)
    payloads: list = [None] * plan.n_chunks
    for cid in sorted(groups):
        member = codec_by_id(cid)
        indices = groups[cid]
        subplan = EncodePlan(
            total_len=plan.total_len,
            chunk_size=chunk_size,
            jobs=tuple(plan.jobs[i] for i in indices),
        )
        # v4 contract: a member's global FCM stage runs restart-framed
        # inside the chunk pipeline, so every chunk stays independent.
        restart = member.global_stage_factory is not None
        group = _encode_plan(member, subplan, data, engine, trace, restart)
        for i, payload in zip(indices, group):
            payloads[i] = payload
    return payloads, choices


def compress_bytes(
    data: bytes,
    codec: Codec,
    *,
    chunk_size: int = CHUNK_SIZE,
    dtype_code: int | None = None,
    shape: tuple[int, ...] | None = None,
    workers: int = 1,
    checksum: bool = fmt.DEFAULT_CHECKSUM,
    chunk_checksums: bool = fmt.DEFAULT_CHUNK_CHECKSUMS,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    fcm: str = "global",
    selector=None,
) -> bytes:
    """Compress raw bytes with ``codec`` into a contiguous container.

    ``fcm`` selects how a codec's FCM stage runs (ignored for codecs
    without one): ``"global"`` (default) is the legacy serial whole-input
    pass with the v1/v2 cross-chunk layout — best ratio, because matches
    may reach arbitrarily far back; ``"restart"`` re-seeds the predictor
    at every chunk boundary and runs FCM *inside* the chunk pipeline —
    container v3, every chunk independently decodable, every executor
    policy usable, :func:`decompress_range_bytes` O(range).  Restart
    caps the match distance at one chunk, so its ratio cost is
    data-dependent: ~1-2% on smooth fields, large on data whose repeats
    sit further back than ``chunk_size`` (measured numbers in
    ALGORITHMS.md).

    ``executor`` selects the scheduling policy (``"serial"``,
    ``"threaded"``, ``"static-blocks"``, ``"process"``, or a prebuilt
    :class:`~repro.core.executors.Executor`); when omitted, ``workers``
    picks serial (1) or the threaded worklist (>1).  Every policy runs
    the same unit of work: one contiguous block of chunks per worker,
    encoded through the stages' columnar kernels in one pass (a
    one-chunk block runs the per-chunk path).  Output bytes never depend
    on the policy or the worker count.  ``checksum``
    embeds a CRC32 of the original data (verified end to end on
    decompression) and ``chunk_checksums`` a CRC32 per chunk payload
    (container v2; localises corruption to one chunk and enables
    salvage-mode recovery); both default to the documented
    :data:`repro.core.container.DEFAULT_CHECKSUM` /
    :data:`~repro.core.container.DEFAULT_CHUNK_CHECKSUMS`.  ``trace``
    collects per-block stage timings and per-chunk sizes.

    When ``codec`` is the adaptive selector (``auto``), every chunk is
    probed and routed to the best fixed codec for its statistics and the
    output is a v4 container with a per-chunk codec table; ``selector``
    then picks the decision policy (``"heuristic"`` default,
    ``"trained"``, a thresholds-file path, or a
    :class:`~repro.selection.SelectionPolicy`).  ``fcm`` is ignored —
    member codecs with an FCM stage always run it restart-framed.
    """
    if fcm not in ("restart", "global"):
        raise ValueError(f"fcm must be 'restart' or 'global', not {fcm!r}")
    if dtype_code is None:
        dtype_code = {4: fmt.DTYPE_F32, 8: fmt.DTYPE_F64}.get(
            codec.dtype.itemsize, fmt.DTYPE_BYTES
        )
    crc = fmt.checksum_of(data) if checksum else None
    intermediate = data
    restart = False
    chunk_codecs = None
    with _resolved_engine(executor, workers) as engine:
        if trace is not None:
            trace.annotate(policy=engine.policy, workers=engine.workers,
                           direction="compress")
        if codec.selector:
            payloads, chunk_codecs = _encode_selected(
                data, chunk_size, dtype_code, engine, trace, selector
            )
        else:
            restart = fcm == "restart" and codec.global_stage_factory is not None
            global_stage = None if restart else codec.make_global_stage()
            if global_stage is not None:
                intermediate = _run_global_stage(global_stage, "encode", data,
                                                 trace)
            plan = plan_encode(len(intermediate), chunk_size)
            payloads = _encode_plan(codec, plan, intermediate, engine, trace,
                                    restart)
    blob = fmt.build_container(
        codec_id=codec.codec_id,
        dtype_code=dtype_code,
        original_len=len(data),
        intermediate_len=len(intermediate),
        chunk_size=chunk_size,
        chunk_payloads=payloads,
        shape=shape,
        checksum=crc,
        chunk_crcs=chunk_checksums,
        fcm_restart=restart,
        chunk_codecs=chunk_codecs,
    )
    # Whole-input fallback: never hand back a container larger than raw.
    # Built lazily — compression usually wins, and the fallback copies
    # the entire input.
    raw_size = fmt.raw_container_size(len(data), shape=shape, checksum=crc)
    if raw_size < len(blob):
        return fmt.build_raw_container(
            codec_id=codec.codec_id, dtype_code=dtype_code, data=data,
            shape=shape, checksum=crc,
        )
    return blob


def _check_geometry(info: fmt.ContainerInfo, codec: Codec) -> None:
    """Reject header geometry no output of ``codec`` could produce.

    Runs after :func:`~repro.core.container.inspect_container`'s generic
    bounds checks, adding the codec-specific constraint on the
    intermediate length — the last declared quantity an allocation is
    sized from.
    """
    if info.fcm_restart and codec.global_stage_factory is None:
        raise CorruptDataError(
            f"codec {codec.name!r} has no FCM stage, but the container "
            f"declares FCM restart markers"
        )
    if codec.selector and info.n_chunks and info.chunk_codecs is None:
        raise CorruptDataError(
            f"codec {codec.name!r} is a selector, but the container "
            f"carries no per-chunk codec table"
        )
    if info.chunk_codecs is not None and not codec.selector:
        raise CorruptDataError(
            f"container carries a per-chunk codec table, but its header "
            f"codec {codec.name!r} is not a selector"
        )
    global_stage = None if info.fcm_restart else codec.make_global_stage()
    if global_stage is None:
        if info.intermediate_len != info.original_len:
            raise CorruptDataError(
                f"codec {codec.name!r} has no global stage, but the header "
                f"declares intermediate length {info.intermediate_len} != "
                f"original length {info.original_len}"
            )
    else:
        limit = global_stage.max_encoded_len(info.original_len)
        if info.intermediate_len > limit:
            raise BoundsError(
                f"declared intermediate length {info.intermediate_len} "
                f"exceeds the {global_stage.name} stage's maximum "
                f"{limit} for {info.original_len} original bytes"
            )


def _decode_plan(
    codec: Codec,
    info: fmt.ContainerInfo,
    plan,
    blob,
    engine: Executor,
    trace: TraceCollector | None,
    salvage: bool,
) -> tuple[bytes | bytearray, list[tuple[int, str, str]]]:
    """Decode every chunk of ``plan`` into one buffer — the only decode path.

    Write positions are known a priori (§3.1), so each executor job
    decodes one contiguous block of chunks (one worker-sized block each)
    straight into a preallocated buffer at the plan's prefix-sum
    offsets.  Every block runs
    :func:`~repro.core._procwork.decode_block`, in-process or inside a
    process-pool worker, so failures are attributed identically under
    every policy.

    Returns ``(buffer, errors)`` with failed chunks zero-filled and one
    ascending ``(index, type_name, message)`` triple each.  Unless
    ``salvage``, the lowest-index failure is raised instead — the error
    a serial decode hits first.
    """
    if getattr(engine, "kind", None) == "process":
        out, errors = engine.decode_chunks(
            blob, plan, codec.name, info.chunk_crcs,
            fcm_restart=info.fcm_restart,
            chunk_codecs=_plan_chunk_codecs(info, plan, codec),
        )
    else:
        blocks = block_ranges(plan.n_chunks, engine.workers)
        if info.chunk_codecs is not None:
            # A block runs one pipeline, so it must not straddle a codec
            # change in the v4 per-chunk table.
            blocks = split_ranges(
                blocks, [info.chunk_codecs[job.index] for job in plan.jobs]
            )
        view = memoryview(blob)
        out = bytearray(plan.out_len)

        def make_worker(worker_id: int):
            resolve = _pipeline_resolver(codec, info)

            def decode_job(b: int) -> list:
                lo, hi = blocks[b]
                jobs = plan.jobs[lo:hi]
                payloads = [view[job.offset : job.end] for job in jobs]
                events: list[StageEvent] | None = None if trace is None else []
                start = time.perf_counter()
                chunks, errors = decode_block(
                    resolve(jobs[0].index), jobs, payloads,
                    plan.out_lengths[lo:hi], block_crcs(info.chunk_crcs, jobs),
                    events,
                )
                if trace is not None and not errors:
                    _trace_block(trace, worker_id, jobs, plan.out_lengths[lo:hi],
                                 payloads, time.perf_counter() - start, events)
                for i, chunk in zip(range(lo, hi), chunks):
                    if chunk is not None:
                        offset = plan.out_offsets[i]
                        out[offset : offset + plan.out_lengths[i]] = chunk
                return errors

            return decode_job

        errors = [
            error
            for block_errors in engine.run(len(blocks), make_worker)
            for error in block_errors
        ]
    errors.sort()
    if errors and not salvage:
        _, type_name, message = errors[0]
        raise rebuild_error(type_name, message)
    return out, errors


def _chunk_failures(
    errors, plan, info: fmt.ContainerInfo, codec: Codec, out_base: int = 0
) -> tuple[ChunkFailure, ...]:
    """Salvage's view of :func:`_decode_plan`'s error triples.

    ``out_base`` shifts the plan-relative output windows (a range plan's
    buffer starts at its first chunk, not at byte 0).
    """
    position = {job.index: k for k, job in enumerate(plan.jobs)}
    failures = []
    for index, type_name, message in errors:
        k = position[index]
        job = plan.jobs[k]
        failures.append(ChunkFailure(
            index=index,
            payload_offset=job.offset,
            payload_length=job.length,
            output_offset=out_base + plan.out_offsets[k],
            output_length=plan.out_lengths[k],
            reason=message,
            error_type=type_name,
            codec=_chunk_codec_name(info, index, codec),
        ))
    return tuple(failures)


def _check_errors_mode(errors: str) -> bool:
    """Validate the ``errors=`` policy; True for salvage."""
    if errors not in ("raise", "salvage"):
        raise ValueError(f"errors must be 'raise' or 'salvage', not {errors!r}")
    return errors == "salvage"


def decompress_bytes(
    blob: bytes,
    *,
    workers: int = 1,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    errors: str = "raise",
):
    """Decompress a container; returns the original bytes plus its metadata.

    ``errors`` selects the failure policy:

    * ``"raise"`` (default) — any verification or decode failure raises a
      :class:`~repro.errors.ReproError` subclass carrying the chunk index
      and container byte range; returns ``(data, info)``.
    * ``"salvage"`` — decode every chunk that verifies, zero-fill the
      ones that do not, and return ``(data, info, report)`` where
      ``report`` is a :class:`~repro.core.salvage.SalvageReport` listing
      each failure and the untrusted output byte ranges.  Only damage the
      header itself (magic, version, geometry) still raises — without a
      parseable chunk table there is nothing to salvage.
    """
    salvage = _check_errors_mode(errors)
    info = fmt.inspect_container(blob)
    codec = codec_by_id(info.codec_id)
    _check_geometry(info, codec)
    if salvage:
        return _decompress_salvage(blob, info, codec, workers=workers,
                                   executor=executor, trace=trace)
    if info.raw_fallback:
        data = bytes(memoryview(blob)[info.payload_offset :])
        if info.checksum is not None and fmt.checksum_of(data) != info.checksum:
            raise ChecksumError(
                "whole-input CRC32 mismatch: raw-fallback payload is corrupt"
            )
        return data, info
    with _resolved_engine(executor, workers) as engine:
        if trace is not None:
            trace.annotate(policy=engine.policy, workers=engine.workers,
                           direction="decompress")
        plan = plan_decode(info)
        out, _ = _decode_plan(codec, info, plan, blob, engine, trace,
                              salvage=False)
    intermediate = bytes(out)
    global_stage = None if info.fcm_restart else codec.make_global_stage()
    if global_stage is not None:
        try:
            data = _run_global_stage(global_stage, "decode", intermediate, trace)
        except ReproError as exc:
            raise type(exc)(f"global stage {global_stage.name!r}: {exc}") from exc
        except FOREIGN_ERRORS as exc:
            raise CorruptDataError(
                f"global stage {global_stage.name!r}: undecodable intermediate "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    else:
        data = intermediate
    if len(data) != info.original_len:
        raise CorruptDataError(
            f"decompressed to {len(data)} bytes, expected {info.original_len}"
        )
    if info.checksum is not None and fmt.checksum_of(data) != info.checksum:
        raise ChecksumError(
            "whole-input CRC32 mismatch: container payload is corrupt"
        )
    return data, info


def _clip_ranges(ranges, start: int, stop: int) -> tuple[tuple[int, int], ...]:
    """Intersect byte ranges with ``[start, stop)`` and shift to 0-based."""
    out = []
    for a, b in ranges:
        a2, b2 = max(a, start), min(b, stop)
        if a2 < b2:
            out.append((a2 - start, b2 - start))
    return tuple(out)


def decompress_range_bytes(
    blob: bytes,
    start: int,
    stop: int,
    *,
    workers: int = 1,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    errors: str = "raise",
):
    """Decode only the bytes ``[start, stop)`` of a container's original data.

    Plans the subset of chunks overlapping the range
    (:func:`~repro.core.plan.plan_for_range`) and runs them through the
    same block decoder as a full decode — chunks outside the range are
    never read, CRC-verified, or decoded.  Returns ``(data, info)`` where
    ``data`` is byte-identical to ``decompress_bytes(blob)[0][start:stop]``.

    Two container layouts cannot decode partially and fall back:

    * raw-fallback containers slice the stored payload directly (no
      decode at all);
    * v1/v2 containers with cross-chunk FCM state (legacy DPratio) run a
      full decode and slice — correct, but O(file) not O(range).

    The whole-input CRC32 covers data outside the range and is never
    verified here.  ``errors="salvage"`` returns ``(data, info, report)``
    with per-chunk failures zero-filled; the report's ``damaged_ranges``
    are relative to the returned slice and ``checksum_ok`` is ``None``
    (a slice cannot be checksum-verified).
    """
    salvage = _check_errors_mode(errors)
    info = fmt.inspect_container(blob)
    codec = codec_by_id(info.codec_id)
    _check_geometry(info, codec)
    if not 0 <= start <= stop <= info.original_len:
        raise BoundsError(
            f"range [{start}, {stop}) out of bounds for "
            f"{info.original_len} original bytes"
        )
    if info.raw_fallback:
        base = info.payload_offset
        data = bytes(memoryview(blob)[base + start : base + stop])
        if salvage:
            report = SalvageReport(
                n_chunks=0, output_len=len(data), checksum_ok=None,
            )
            return data, info, report
        return data, info
    if not info.fcm_restart and codec.global_stage_factory is not None:
        # Cross-chunk FCM (legacy v1/v2 DPratio): every output byte may
        # depend on any chunk, so there is nothing partial to plan.
        if salvage:
            data, _, full = _decompress_salvage(
                blob, info, codec, workers=workers, executor=executor,
                trace=trace,
            )
            report = SalvageReport(
                n_chunks=full.n_chunks,
                output_len=stop - start,
                failures=full.failures,
                damaged_ranges=_clip_ranges(full.damaged_ranges, start, stop),
                checksum_ok=full.checksum_ok,
                global_stage_failed=full.global_stage_failed,
                notes=full.notes + (
                    "range read fell back to a full decode: the container "
                    "carries cross-chunk FCM state (no restart markers)",
                ),
            )
            return data[start:stop], info, report
        data, _ = decompress_bytes(blob, workers=workers, executor=executor,
                                   trace=trace)
        return data[start:stop], info
    rplan = plan_for_range(info, start, stop)
    plan = rplan.plan
    with _resolved_engine(executor, workers) as engine:
        if trace is not None:
            trace.annotate(policy=engine.policy, workers=engine.workers,
                           direction="decompress-range")
        out, failed = _decode_plan(codec, info, plan, blob, engine, trace,
                                   salvage)
    lo, hi = rplan.trim
    data = bytes(out[lo:hi])
    if not salvage:
        return data, info
    failures = _chunk_failures(failed, plan, info, codec, rplan.aligned_start)
    damaged = _clip_ranges(
        merge_ranges(
            (f.output_offset, f.output_offset + f.output_length)
            for f in failures
        ),
        start, stop,
    )
    notes = ()
    if failures:
        notes = ("range read: damaged ranges are relative to the "
                 "returned slice; failure offsets are absolute",)
    report = SalvageReport(
        n_chunks=plan.n_chunks,
        output_len=len(data),
        failures=failures,
        damaged_ranges=damaged,
        checksum_ok=None,
        notes=notes,
    )
    return data, info, report


def _decompress_salvage(
    blob: bytes,
    info: fmt.ContainerInfo,
    codec: Codec,
    *,
    workers: int = 1,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
) -> tuple[bytes, fmt.ContainerInfo, SalvageReport]:
    """Best-effort decode: recover every verifiable chunk, map the rest."""
    notes: list[str] = []
    if info.raw_fallback:
        data = bytes(memoryview(blob)[info.payload_offset :])
        checksum_ok = None
        damaged: tuple[tuple[int, int], ...] = ()
        if info.checksum is not None:
            checksum_ok = fmt.checksum_of(data) == info.checksum
            if not checksum_ok:
                damaged = ((0, len(data)),) if data else ()
                notes.append(
                    "raw-fallback payload failed the whole-input checksum; "
                    "damage cannot be localised without chunks"
                )
        report = SalvageReport(
            n_chunks=0, output_len=len(data), damaged_ranges=damaged,
            checksum_ok=checksum_ok, notes=tuple(notes),
        )
        return data, info, report
    with _resolved_engine(executor, workers) as engine:
        if trace is not None:
            trace.annotate(policy=engine.policy, workers=engine.workers,
                           direction="salvage")
        plan = plan_decode(info)
        out, failed = _decode_plan(codec, info, plan, blob, engine, trace,
                                   salvage=True)
    # Contained: failed windows stay zero-filled, and each failure is
    # reported with both its payload and output coordinates.
    failures = _chunk_failures(failed, plan, info, codec)
    intermediate = bytes(out)
    damaged_inter = merge_ranges(
        (f.output_offset, f.output_offset + f.output_length) for f in failures
    )
    global_stage = None if info.fcm_restart else codec.make_global_stage()
    global_failed = False
    if global_stage is None:
        data = intermediate
        damaged_out = damaged_inter
    else:
        try:
            data, damaged_out = global_stage.decode_salvage(
                intermediate, damaged_inter
            )
        except Exception as exc:
            global_failed = True
            notes.append(
                f"global stage {global_stage.name!r} inverse failed "
                f"({type(exc).__name__}: {exc}); output zero-filled"
            )
            data = bytes(info.original_len)
            damaged_out = ((0, info.original_len),) if info.original_len else ()
    if len(data) != info.original_len:
        notes.append(
            f"decoded length {len(data)} != declared {info.original_len}; "
            f"output adjusted and fully marked damaged"
        )
        data = data[: info.original_len] + bytes(
            max(0, info.original_len - len(data))
        )
        damaged_out = ((0, info.original_len),) if info.original_len else ()
    checksum_ok = None
    if info.checksum is not None:
        checksum_ok = fmt.checksum_of(data) == info.checksum
        if not checksum_ok and not failures and not global_failed and not damaged_out:
            notes.append(
                "whole-input checksum mismatch with every chunk verifying; "
                "damage sits outside the chunk CRCs' reach"
            )
            damaged_out = ((0, len(data)),) if data else ()
    report = SalvageReport(
        n_chunks=info.n_chunks,
        output_len=len(data),
        failures=failures,
        damaged_ranges=merge_ranges(damaged_out),
        checksum_ok=checksum_ok,
        global_stage_failed=global_failed,
        notes=tuple(notes),
    )
    return data, info, report
