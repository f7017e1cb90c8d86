"""The asyncio compression daemon behind ``fprz serve``.

Architecture — the same skeleton any inference-serving stack needs:

* **Framing**: each connection is a stream of FPRW frames
  (:mod:`repro.service.protocol`).  Headers are validated before the
  body is read, so a hostile declared length fails with a typed
  :class:`~repro.errors.ProtocolError` and never sizes an allocation.
* **Admission control**: one bounded job queue for the whole server.
  Past the high-water mark a request is rejected immediately with a
  BUSY frame — explicit backpressure instead of unbounded buffering.
  Each connection additionally has a bytes-in-flight cap, so one
  client cannot monopolise admission with huge queued payloads.
* **Worker-pool offload**: codec work runs in a thread pool off the
  event loop; inside each job, chunk-level parallelism uses the
  engine's own executors (:mod:`repro.core.executors` — a shared
  :class:`~repro.core.executors.PooledThreadedExecutor` when
  ``codec_workers > 1``), so the serving layer and the library run the
  exact same compression code.
* **Deadlines**: every job is wrapped in ``asyncio.wait_for``.  Past
  the deadline the response is a typed DEADLINE error and the awaiting
  task is cancelled; the connection itself stays usable.  (The worker
  thread finishes its current chunk work in the background and its
  result is discarded — cancellation is at the response boundary,
  bounded by the pool size.)
* **Graceful drain**: ``stop(drain=True)`` (installed on SIGTERM /
  SIGINT by :meth:`CompressionServer.run`) stops accepting, answers new
  requests with a SHUTTING-DOWN error, waits up to ``drain_timeout``
  for in-flight jobs, then closes the remaining connections.
* **Metrics**: every decision increments the
  :class:`~repro.service.metrics.MetricsRegistry` served by the STATS
  opcode and ``fprz stats``.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.api import compress as api_compress
from repro.bitpack import backend as kernel_backend
from repro.core import codec_by_id
from repro.core import container as fmt
from repro.core.codecs import codec_for, get_codec
from repro.core.compressor import decompress_bytes
from repro.core.executors import (
    Executor,
    PooledThreadedExecutor,
    SharedMemoryProcessExecutor,
    normalize_policy,
)
from repro.core.incremental import StreamingCompressor, StreamingDecompressor
from repro.errors import (
    FormatError,
    ProtocolError,
    ReproError,
    ServiceError,
    traceback_summary,
)
from repro.service import protocol as proto
from repro.service.endpoint import EndpointThread, FrameConnection, FrameEndpoint
from repro.service.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    RATIO_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
)

_DTYPE_BY_CODE = {fmt.DTYPE_F32: np.dtype(np.float32),
                  fmt.DTYPE_F64: np.dtype(np.float64)}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`CompressionServer`."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = proto.DEFAULT_PORT
    #: Per-frame body limit, enforced on declared lengths in both
    #: directions before anything is allocated.
    max_frame: int = proto.DEFAULT_MAX_FRAME
    #: Admission high-water mark: jobs admitted but not yet finished.
    #: At the mark, new work is rejected with BUSY.
    queue_high_water: int = 32
    #: Per-connection cap on admitted-but-unfinished request bytes.
    conn_bytes_in_flight: int = 256 * 1024 * 1024
    #: Per-stream byte window for STREAM-DATA flow control.  The server
    #: never buffers more than this many unprocessed payload bytes per
    #: stream — credit is granted back to the sender only as buffered
    #: bytes are consumed — so memory for a streamed transfer is bounded
    #: by the window no matter how large the declared payload.
    stream_window: int = 4 * 1024 * 1024
    #: Per-tenant admission quota in payload bytes per second (token
    #: bucket, refilled continuously).  0 disables quota enforcement.
    quota_rate: float = 0.0
    #: Token-bucket burst capacity in bytes; 0 defaults to one second of
    #: ``quota_rate``.
    quota_burst: int = 0
    #: Per-request deadline in seconds.
    request_timeout: float = 30.0
    #: Seconds ``stop(drain=True)`` waits for in-flight jobs.
    drain_timeout: float = 10.0
    #: Concurrent codec jobs (thread-pool size).
    job_threads: int = 4
    #: Chunk-level workers *inside* each codec job; >1 routes chunk work
    #: through a shared :class:`~repro.core.executors.PooledThreadedExecutor`.
    codec_workers: int = 1
    #: Executor policy for the chunk-level workers: ``"threaded"`` (the
    #: pooled worklist) or ``"process"`` (one shared GIL-free
    #: :class:`~repro.core.executors.SharedMemoryProcessExecutor`).
    codec_policy: str = "threaded"
    #: Backoff hint carried in BUSY responses (milliseconds).  Clients
    #: with a :class:`~repro.service.resilience.RetryPolicy` treat it as
    #: a lower bound on their next delay; 0 sends the hint-less
    #: protocol-v1 empty body.
    busy_retry_ms: int = 50
    #: Artificial per-job delay in seconds.  A test/experiment knob for
    #: exercising deadlines, backpressure, and drain deterministically;
    #: leave at 0 in production.
    job_delay: float = 0.0
    #: Kernel backend pinned at startup (``fprz serve --backend``).
    #: ``None`` keeps the process default (explicit pin > env var >
    #: auto).  The *resolved* name is reported in STATS and as the
    #: ``kernel_backend_info`` gauge either way.
    kernel_backend: str | None = None


class _TokenBucket:
    """Per-tenant byte-rate admission quota (continuously refilled)."""

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = time.monotonic()

    def admit(self, n_bytes: int) -> tuple[bool, int]:
        """Try to spend ``n_bytes``; returns ``(admitted, retry_ms)``.

        ``retry_ms`` is the earliest time (in milliseconds) at which the
        deficit will have refilled — the hint carried in the QUOTA error.
        """
        now = time.monotonic()
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now
        if n_bytes <= self.tokens:
            self.tokens -= n_bytes
            return True, 0
        deficit = min(n_bytes, self.burst) - self.tokens
        retry_ms = int(deficit * 1000.0 / self.rate) + 1
        return False, retry_ms


class _StreamJob:
    """Server-side state of one in-flight stream (the ledger attachment)."""

    __slots__ = (
        "engine", "opname", "codec_label", "queue", "start", "bytes_in",
    )

    def __init__(self, engine, opname: str, codec_label: str) -> None:
        self.engine = engine
        self.opname = opname
        self.codec_label = codec_label
        #: Frames handed from the read loop to the stream task:
        #: ``("data", payload)`` / ``("end", b"")`` / ``("abort", b"")``.
        self.queue: asyncio.Queue = asyncio.Queue()
        self.start = time.perf_counter()
        self.bytes_in = 0


@dataclass(eq=False)
class _Connection(FrameConnection):
    """Server-side connection state: stream ledger and admission."""

    ledger: proto.StreamLedger | None = None
    bytes_in_flight: int = 0
    tasks: set = field(default_factory=set)
    #: Quota accounting identity; un-negotiated clients share one.
    tenant: str | None = "default"


class CompressionServer(FrameEndpoint):
    """A framed compress/decompress/inspect service over TCP."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(config or ServiceConfig(), registry)
        self._pool: ThreadPoolExecutor | None = None
        self._chunk_executor: Executor | None = None
        self._queue_depth = 0
        #: Per-tenant admission buckets (created lazily; quota_rate > 0).
        self._buckets: dict[str, _TokenBucket] = {}
        #: Unprocessed STREAM-DATA bytes held across all streams; its
        #: high-water mark is the ``stream_buffered_watermark`` gauge the
        #: bounded-memory tests assert against.
        self._stream_buffered = 0
        self._kernel_backend: str | None = None
        #: Pin active before we pinned (sentinel False = we never pinned).
        self._prev_backend_pin: str | None | bool = False

    # -- lifecycle hooks ----------------------------------------------

    @property
    def _drain_timeout(self) -> float:
        return self.config.drain_timeout

    @property
    def _stream_window(self) -> int:
        return self.config.stream_window

    async def _open(self) -> None:
        cfg = self.config
        try:
            policy = normalize_policy(cfg.codec_policy, ("threaded", "process"))
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        if cfg.kernel_backend is not None:
            try:
                self._prev_backend_pin = kernel_backend.set_backend(
                    cfg.kernel_backend
                )
            except ReproError as exc:
                raise ServiceError(str(exc)) from exc
        active = kernel_backend.active_backend()
        self._kernel_backend = active.name
        self.registry.gauge("kernel_backend_info", backend=active.name).set(1)
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.job_threads, thread_name_prefix="repro-svc"
        )
        if policy == "process":
            # One shared GIL-free pool for every codec job; its worker
            # processes persist across requests like the pooled threads.
            self._chunk_executor = SharedMemoryProcessExecutor(
                max(cfg.codec_workers, 1)
            )
        elif cfg.codec_workers > 1:
            self._chunk_executor = PooledThreadedExecutor(cfg.codec_workers)

    async def _close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if isinstance(
            self._chunk_executor,
            (PooledThreadedExecutor, SharedMemoryProcessExecutor),
        ):
            self._chunk_executor.close()
        if self._prev_backend_pin is not False:
            # Undo the startup backend pin (it is process-wide state and
            # embedded ServerThread uses share the process with tests).
            kernel_backend.set_backend(self._prev_backend_pin)
            self._prev_backend_pin = False

    def _new_connection(self, writer: asyncio.StreamWriter) -> _Connection:
        return _Connection(
            writer=writer,
            ledger=proto.StreamLedger(window=self.config.stream_window),
        )

    def _disconnected(self, conn: _Connection) -> None:
        for job in tuple(conn.streams.values()):
            job.queue.put_nowait(("abort", b""))

    # -- request dispatch ---------------------------------------------

    async def _handle_frame(
        self, conn: _Connection, opcode: int, request_id: int, body: bytes
    ) -> bool | None:
        """Route one request frame.  Returns ``False`` when the
        connection must be closed (stream-level protocol violation)."""
        cfg = self.config
        opname = proto.REQUEST_OPCODES[opcode]
        self.registry.counter("bytes_in_total", opcode=opname).inc(len(body))
        if opcode == proto.OP_PING:
            reply = self._negotiate(conn, body)
            await self._send(conn, proto.OP_RESULT, request_id, reply)
            self._count(opname, "-", "ok")
            return None
        if opcode == proto.OP_STATS:
            payload = json.dumps(self._stats()).encode("utf-8")
            await self._send(conn, proto.OP_RESULT, request_id, payload)
            self.registry.counter("bytes_out_total", opcode=opname).inc(len(payload))
            self._count(opname, "-", "ok")
            return None
        if opcode in (proto.OP_STREAM_DATA, proto.OP_STREAM_END):
            return await self._dispatch_stream_frame(
                conn, opcode, request_id, body
            )
        # Admission-controlled work (unary codec jobs and STREAM-BEGIN).
        if self._draining:
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(
                    proto.ERR_SHUTTING_DOWN, "server is draining"
                ),
            )
            self._count(opname, "-", "shutdown")
            return None
        if opcode == proto.OP_STREAM_BEGIN:
            return await self._dispatch_stream_begin(conn, request_id, body)
        busy_hint = proto.encode_busy_body(cfg.busy_retry_ms or None)
        if self._queue_depth >= cfg.queue_high_water:
            self.registry.counter("busy_rejections_total", reason="queue").inc()
            await self._send(conn, proto.OP_BUSY, request_id, busy_hint)
            self._count(opname, "-", "busy")
            return None
        if conn.bytes_in_flight + len(body) > cfg.conn_bytes_in_flight:
            self.registry.counter("busy_rejections_total", reason="conn-bytes").inc()
            await self._send(conn, proto.OP_BUSY, request_id, busy_hint)
            self._count(opname, "-", "busy")
            return None
        if not await self._admit_quota(conn, opname, request_id, len(body)):
            return None
        self.registry.histogram(
            "pipeline_depth", buckets=DEPTH_BUCKETS
        ).observe(len(conn.tasks) + 1)
        self._queue_depth += 1
        conn.bytes_in_flight += len(body)
        self.registry.gauge("queue_depth").set(self._queue_depth)
        self.registry.gauge("bytes_in_flight").inc(len(body))
        task = asyncio.ensure_future(
            self._run_job(conn, opcode, request_id, body)
        )
        self._jobs.add(task)
        conn.tasks.add(task)
        task.add_done_callback(self._jobs.discard)
        task.add_done_callback(conn.tasks.discard)
        return None

    # -- quotas -------------------------------------------------------

    async def _admit_quota(
        self, conn: _Connection, opname: str, request_id: int, n_bytes: int
    ) -> bool:
        """Charge ``n_bytes`` against the connection's tenant bucket.

        On rejection the typed QUOTA error (with its refill hint) has
        already been sent when this returns ``False``.
        """
        cfg = self.config
        if cfg.quota_rate <= 0:
            return True
        bucket = self._buckets.get(conn.tenant)
        if bucket is None:
            burst = cfg.quota_burst or max(int(cfg.quota_rate), 1)
            bucket = self._buckets[conn.tenant] = _TokenBucket(
                cfg.quota_rate, burst
            )
        admitted, retry_ms = bucket.admit(n_bytes)
        if admitted:
            self.registry.counter(
                "quota_admitted_total", tenant=conn.tenant
            ).inc()
            self.registry.counter(
                "quota_admitted_bytes_total", tenant=conn.tenant
            ).inc(n_bytes)
            return True
        self.registry.counter(
            "quota_rejected_total", tenant=conn.tenant
        ).inc()
        await self._send(
            conn, proto.OP_ERROR, request_id,
            proto.encode_error_body(
                proto.ERR_QUOTA,
                f"tenant {conn.tenant!r} exceeded its "
                f"{cfg.quota_rate:g} byte/s quota; retry_after_ms={retry_ms}",
            ),
        )
        self._count(opname, "-", "quota")
        return False

    # -- streamed transfers --------------------------------------------

    def _stream_engine(self, begin: proto.StreamBegin):
        """Build the incremental engine for a STREAM-BEGIN (pool-thread
        safe, raises typed errors)."""
        if begin.mode == proto.STREAM_DECOMPRESS:
            return StreamingDecompressor(total_len=begin.total_len), "-"
        if begin.codec:
            codec = get_codec(begin.codec)
        elif begin.dtype_code in _DTYPE_BY_CODE:
            codec = codec_for(_DTYPE_BY_CODE[begin.dtype_code], "ratio")
        else:
            raise FormatError(
                "streamed compression of raw bytes needs an explicit codec "
                "(no dtype to infer one from)"
            )
        engine = StreamingCompressor(
            codec,
            total_len=begin.total_len,
            dtype_code=begin.dtype_code,
            shape=begin.shape,
        )
        return engine, engine.codec.name

    async def _dispatch_stream_begin(
        self, conn: _Connection, request_id: int, body: bytes
    ) -> bool | None:
        cfg = self.config
        # A fresh BEGIN supersedes any tombstone left by an earlier
        # aborted stream that reused this correlation id.
        conn.dead_streams.discard(request_id)
        try:
            state = conn.ledger.on_begin(request_id, body)
        except ProtocolError as exc:
            self.registry.counter("protocol_errors_total").inc()
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(proto.ERR_PROTOCOL, str(exc)),
            )
            self._count("stream-begin", "-", "protocol")
            return False
        begin = state.begin
        opname = (
            "stream-compress" if begin.mode == proto.STREAM_COMPRESS
            else "stream-decompress"
        )
        busy_hint = proto.encode_busy_body(cfg.busy_retry_ms or None)
        if self._queue_depth >= cfg.queue_high_water:
            conn.ledger.close(request_id)
            conn.dead_streams.add(request_id)
            self.registry.counter("busy_rejections_total", reason="queue").inc()
            await self._send(conn, proto.OP_BUSY, request_id, busy_hint)
            self._count(opname, "-", "busy")
            return None
        if not await self._admit_quota(
            conn, opname, request_id, begin.total_len
        ):
            conn.ledger.close(request_id)
            conn.dead_streams.add(request_id)
            return None
        try:
            engine, codec_label = self._stream_engine(begin)
        except ReproError as exc:
            conn.ledger.close(request_id)
            conn.dead_streams.add(request_id)
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(proto.error_code_for(exc), str(exc)),
            )
            self._count(opname, "-", "error")
            return None
        job = _StreamJob(engine, opname, codec_label)
        state.attachment = job
        conn.streams[request_id] = job
        self.registry.histogram(
            "pipeline_depth", buckets=DEPTH_BUCKETS
        ).observe(len(conn.tasks) + 1)
        self._queue_depth += 1
        self.registry.gauge("queue_depth").set(self._queue_depth)
        self.registry.gauge("streams_in_flight").inc()
        self.registry.counter("streams_total", opcode=opname).inc()
        task = asyncio.ensure_future(self._run_stream(conn, request_id, job))
        self._jobs.add(task)
        conn.tasks.add(task)
        task.add_done_callback(self._jobs.discard)
        task.add_done_callback(conn.tasks.discard)
        # The opening credit grant: the ledger has already reserved it,
        # so the client may send this many DATA bytes immediately.
        await self._send(
            conn, proto.OP_STREAM_ACK, request_id,
            proto.encode_stream_ack(state.credit),
        )
        return None

    async def _dispatch_stream_frame(
        self, conn: _Connection, opcode: int, request_id: int, body: bytes
    ) -> bool | None:
        """Route a STREAM-DATA / STREAM-END frame through the ledger."""
        if request_id in conn.dead_streams:
            # The stream was aborted server-side (or rejected at BEGIN)
            # after the client may already have frames in flight within
            # its granted credit: tolerate and drop them.  END retires
            # the tombstone.
            if opcode == proto.OP_STREAM_END:
                conn.dead_streams.discard(request_id)
            return None
        try:
            if opcode == proto.OP_STREAM_DATA:
                state = conn.ledger.on_data(request_id, len(body))
            else:
                state = conn.ledger.on_end(request_id)
        except ProtocolError as exc:
            self.registry.counter("protocol_errors_total").inc()
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(proto.ERR_PROTOCOL, str(exc)),
            )
            self._count(proto.REQUEST_OPCODES[opcode], "-", "protocol")
            return False
        job: _StreamJob = state.attachment
        if opcode == proto.OP_STREAM_DATA:
            job.bytes_in += len(body)
            self._track_stream_buffered(len(body))
            if state.credit == 0:
                self.registry.counter("window_stalls_total").inc()
            job.queue.put_nowait(("data", body))
        else:
            job.queue.put_nowait(("end", b""))
        return None

    def _track_stream_buffered(self, delta: int) -> None:
        self._stream_buffered += delta
        gauge = self.registry.gauge("stream_buffered_bytes")
        gauge.set(self._stream_buffered)
        watermark = self.registry.gauge("stream_buffered_watermark")
        if self._stream_buffered > watermark.value:
            watermark.set(self._stream_buffered)

    async def _run_stream(
        self, conn: _Connection, request_id: int, job: _StreamJob
    ) -> None:
        """The per-stream task: consume queued frames, run the
        incremental engine in the worker pool, emit RESULT/ACK/DONE."""
        cfg = self.config
        loop = asyncio.get_running_loop()
        outcome = "ok"
        try:
            while True:
                kind, payload = await job.queue.get()
                if kind == "abort":
                    outcome = "cancelled"
                    return
                if kind == "data":
                    results = await asyncio.wait_for(
                        loop.run_in_executor(
                            self._pool, job.engine.feed, payload
                        ),
                        cfg.request_timeout,
                    )
                    self._track_stream_buffered(-len(payload))
                    grant = conn.ledger.consume(request_id, len(payload))
                    await self._send_stream_results(conn, request_id, job, results)
                    if grant:
                        await self._send(
                            conn, proto.OP_STREAM_ACK, request_id,
                            proto.encode_stream_ack(grant),
                        )
                    continue
                # STREAM-END: flush / finish, then the trailer.
                engine = job.engine
                if isinstance(engine, StreamingCompressor):
                    results = await asyncio.wait_for(
                        loop.run_in_executor(self._pool, engine.flush),
                        cfg.request_timeout,
                    )
                    await self._send_stream_results(conn, request_id, job, results)
                    trailer = proto.encode_stream_trailer(
                        engine.dtype_code, engine.shape, engine.prefix()
                    )
                else:
                    dtype_code, shape = engine.finish()
                    trailer = proto.encode_stream_trailer(dtype_code, shape)
                await self._send(
                    conn, proto.OP_STREAM_DONE, request_id, trailer
                )
                self.registry.counter(
                    "bytes_out_total", opcode=job.opname
                ).inc(len(trailer))
                return
        except asyncio.TimeoutError:
            outcome = "deadline"
            await self._abort_stream(
                conn, request_id, proto.ERR_DEADLINE,
                f"stream chunk exceeded the {cfg.request_timeout:g}s deadline",
            )
        except ReproError as exc:
            outcome = "error"
            await self._abort_stream(
                conn, request_id, proto.error_code_for(exc), str(exc)
            )
        except asyncio.CancelledError:
            outcome = "cancelled"
            raise
        except Exception as exc:  # unexpected: typed INTERNAL, never a hang
            outcome = "internal"
            await self._abort_stream(
                conn, request_id, proto.ERR_INTERNAL, traceback_summary(exc)
            )
        finally:
            if request_id in conn.ledger:
                # Return any still-buffered bytes to the global gauge
                # before forgetting the stream.
                state = conn.ledger.get(request_id)
                self._track_stream_buffered(-state.buffered)
                conn.ledger.close(request_id)
            conn.streams.pop(request_id, None)
            self._queue_depth -= 1
            self.registry.gauge("queue_depth").set(self._queue_depth)
            self.registry.gauge("streams_in_flight").dec()
            self._count(job.opname, job.codec_label, outcome)
            self.registry.histogram(
                "request_seconds", buckets=LATENCY_BUCKETS, opcode=job.opname
            ).observe(time.perf_counter() - job.start)
            self.registry.histogram(
                "request_bytes", buckets=SIZE_BUCKETS, opcode=job.opname
            ).observe(job.bytes_in)

    async def _send_stream_results(
        self, conn: _Connection, request_id: int, job: _StreamJob, results
    ) -> None:
        for index, chunk in results:
            body = proto.encode_stream_result(index, chunk)
            await self._send(conn, proto.OP_STREAM_RESULT, request_id, body)
            self.registry.counter(
                "bytes_out_total", opcode=job.opname
            ).inc(len(body))

    async def _abort_stream(
        self, conn: _Connection, request_id: int, code: int, message: str
    ) -> None:
        """Fail a stream mid-flight: typed error out, tombstone so the
        client's already-in-flight frames are tolerated."""
        conn.dead_streams.add(request_id)
        await self._send(
            conn, proto.OP_ERROR, request_id,
            proto.encode_error_body(code, message),
        )

    # -- job execution ------------------------------------------------

    async def _run_job(
        self, conn: _Connection, opcode: int, request_id: int, body: bytes
    ) -> None:
        cfg = self.config
        opname = proto.REQUEST_OPCODES[opcode]
        work = {
            proto.OP_COMPRESS: self._work_compress,
            proto.OP_DECOMPRESS: self._work_decompress,
            proto.OP_INSPECT: self._work_inspect,
        }[opcode]
        start = time.perf_counter()
        outcome, codec_label = "ok", "-"
        loop = asyncio.get_running_loop()
        try:
            try:
                result_body, codec_label = await asyncio.wait_for(
                    loop.run_in_executor(self._pool, work, body),
                    cfg.request_timeout,
                )
            except asyncio.TimeoutError:
                outcome = "deadline"
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(
                        proto.ERR_DEADLINE,
                        f"request exceeded the {cfg.request_timeout:g}s deadline",
                    ),
                )
                return
            except ReproError as exc:
                outcome = "error"
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(proto.error_code_for(exc), str(exc)),
                )
                return
            except asyncio.CancelledError:
                outcome = "cancelled"
                raise
            except Exception as exc:  # unexpected: typed INTERNAL, never a hang
                outcome = "internal"
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(
                        proto.ERR_INTERNAL, traceback_summary(exc)
                    ),
                )
                return
            if len(result_body) > cfg.max_frame:
                outcome = "error"
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(
                        proto.ERR_BOUNDS,
                        f"result of {len(result_body)} bytes exceeds the "
                        f"{cfg.max_frame}-byte frame limit",
                    ),
                )
                return
            await self._send(conn, proto.OP_RESULT, request_id, result_body)
            self.registry.counter("bytes_out_total", opcode=opname).inc(
                len(result_body)
            )
        finally:
            self._queue_depth -= 1
            conn.bytes_in_flight -= len(body)
            self.registry.gauge("queue_depth").set(self._queue_depth)
            self.registry.gauge("bytes_in_flight").dec(len(body))
            self._count(opname, codec_label, outcome)
            self.registry.histogram(
                "request_seconds", buckets=LATENCY_BUCKETS, opcode=opname
            ).observe(time.perf_counter() - start)
            self.registry.histogram(
                "request_bytes", buckets=SIZE_BUCKETS, opcode=opname
            ).observe(len(body))

    def _count(self, opname: str, codec: str, outcome: str) -> None:
        self.registry.counter(
            "requests_total", opcode=opname, codec=codec, outcome=outcome
        ).inc()

    # Work functions run inside pool threads; anything they raise is
    # translated to a typed error frame by ``_run_job``.

    def _work_compress(self, body: bytes) -> tuple[bytes, str]:
        if self.config.job_delay:
            time.sleep(self.config.job_delay)
        codec, dtype_code, shape, payload = proto.decode_compress_body(body)
        if dtype_code == fmt.DTYPE_BYTES:
            data: np.ndarray | bytes = payload
        else:
            array = np.frombuffer(payload, dtype=_DTYPE_BY_CODE[dtype_code])
            data = array.reshape(shape) if shape is not None else array
        blob = api_compress(
            data, codec,
            workers=self.config.codec_workers, executor=self._chunk_executor,
        )
        codec_name = codec_by_id(fmt.inspect_container(blob).codec_id).name
        if payload:
            self.registry.histogram(
                "compression_ratio", buckets=RATIO_BUCKETS
            ).observe(len(payload) / max(len(blob), 1))
        return blob, codec_name

    def _work_decompress(self, body: bytes) -> tuple[bytes, str]:
        if self.config.job_delay:
            time.sleep(self.config.job_delay)
        data, info = decompress_bytes(
            bytes(body),
            workers=self.config.codec_workers, executor=self._chunk_executor,
        )
        shape = tuple(info.shape) if info.shape is not None else None
        return (
            proto.encode_array_body(
                data, dtype_code=info.dtype_code, shape=shape
            ),
            codec_by_id(info.codec_id).name,
        )

    def _work_inspect(self, body: bytes) -> tuple[bytes, str]:
        info = fmt.inspect_container(bytes(body))
        codec_name = codec_by_id(info.codec_id).name
        payload = json.dumps({
            "version": info.version,
            "codec": codec_name,
            "dtype_code": info.dtype_code,
            "original_len": info.original_len,
            "compressed_len": info.total_len,
            "ratio": info.ratio,
            "chunk_size": info.chunk_size,
            "n_chunks": info.n_chunks,
            "raw_fallback": info.raw_fallback,
            "shape": list(info.shape) if info.shape is not None else None,
            "checksum": info.checksum is not None,
            "chunk_crcs": info.chunk_crcs is not None,
        }).encode("utf-8")
        return payload, codec_name

    def _stats(self) -> dict:
        cfg = self.config
        return {
            "server": {
                "uptime_seconds": self._clock() - self._started_at,
                "draining": self._draining,
                "queue_depth": self._queue_depth,
                "queue_high_water": cfg.queue_high_water,
                "max_frame": cfg.max_frame,
                "stream_window": cfg.stream_window,
                "open_streams": sum(len(c.streams) for c in self._conns),
                "quota_rate": cfg.quota_rate,
                "quota_burst": cfg.quota_burst,
                "features": list(proto.FEATURES),
                "request_timeout": cfg.request_timeout,
                "job_threads": cfg.job_threads,
                "codec_workers": cfg.codec_workers,
                "codec_policy": cfg.codec_policy,
                "kernel_backend": self._kernel_backend,
            },
            "metrics": self.registry.snapshot(),
        }


class ServerThread(EndpointThread):
    """Run a :class:`CompressionServer` on a background thread::

        with ServerThread(ServiceConfig(port=0)) as srv:
            with ServiceClient(port=srv.port) as client:
                blob = client.compress(array)
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        super().__init__(config or ServiceConfig(port=0))

    def _make_endpoint(self) -> CompressionServer:
        return CompressionServer(self.config)

    @property
    def server(self) -> CompressionServer | None:
        return self.endpoint
