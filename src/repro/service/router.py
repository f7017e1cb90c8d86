"""The shard router: one front process over N compression backends.

``fprz route`` speaks the same FPRW wire protocol as ``fprz serve`` —
clients cannot tell a router from a server — and forwards codec work
across a fleet of backends:

* **Consistent hashing**: each request is placed on a hash ring
  (``vnodes`` points per backend, blake2b) keyed by its body bytes, so
  identical payloads land on the same backend (warm caches, stable
  attribution) and adding or removing a backend only remaps ``1/N`` of
  the keyspace.
* **Health checks**: a background loop PINGs every backend each
  ``health_interval`` seconds.  Failures eject a backend from routing;
  recovery readmits it — both through the circuit breaker, so traffic
  and health probes share one state machine.
* **Circuit breakers**: per backend, CLOSED → OPEN after
  ``failure_threshold`` consecutive failures, OPEN → HALF_OPEN after
  ``open_seconds``, HALF_OPEN → CLOSED on one successful probe (or back
  to OPEN on failure).  An open breaker short-circuits dispatch — no
  connection attempt, no timeout wait.
* **Failover**: requests are idempotent (pure functions of their body),
  so a transport failure re-dispatches to the next backend on the ring,
  up to ``dispatch_attempts`` distinct backends.  A BUSY backend is
  skipped the same way; only when every candidate is busy does the
  client see BUSY.
* **Load shedding**: past ``inflight_high_water`` globally in-flight
  requests the router answers BUSY immediately with a
  ``retry_after_ms`` hint — explicit backpressure at the front door,
  before any backend work is queued.

Every decision lands in the shared
:class:`~repro.service.metrics.MetricsRegistry` (served by STATS and
``fprz stats``): per-backend request outcomes, failovers, sheds,
breaker transitions, and live health gauges.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import itertools
import json
import signal
import threading
import time
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service import protocol as proto
from repro.service.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.service.resilience import format_address, parse_address

#: Default TCP port of ``fprz route`` (one below the server's).
DEFAULT_ROUTER_PORT = 9752

# Circuit-breaker states (also the value of the ``breaker_state`` gauge).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"
_BREAKER_GAUGE = {BREAKER_CLOSED: 0, BREAKER_OPEN: 1, BREAKER_HALF_OPEN: 2}


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one :class:`ShardRouter`."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back from ``router.port``).
    port: int = DEFAULT_ROUTER_PORT
    #: Backend addresses as ``(host, port)`` tuples or ``"host:port"`` strings.
    backends: tuple = ()
    #: Per-frame body limit (same meaning as the server's).
    max_frame: int = proto.DEFAULT_MAX_FRAME
    #: Seconds between background PING health checks.
    health_interval: float = 0.5
    #: Deadline for one forwarded backend exchange (connect + reply).
    backend_timeout: float = 30.0
    #: Deadline for the health-check PING exchange.
    health_timeout: float = 2.0
    #: Consecutive failures that open a backend's circuit breaker.
    failure_threshold: int = 3
    #: Seconds an open breaker waits before allowing a half-open probe.
    open_seconds: float = 1.0
    #: Distinct backends tried per request before giving up.
    dispatch_attempts: int = 3
    #: Global in-flight high-water mark; past it, requests are shed.
    inflight_high_water: int = 128
    #: Backoff hint (ms) carried in shed/all-busy BUSY responses.
    busy_retry_ms: int = 100
    #: Hash-ring points per backend.
    vnodes: int = 32
    #: Idle pooled connections kept per backend.
    pool_size: int = 4
    #: Bytes of stream frames the router keeps buffered for replay.  A
    #: stream whose backend fails *before any response frame reached the
    #: client* is replayed — BEGIN plus any buffered DATA — onto the
    #: next ring candidate; once the buffer overflows (or a response has
    #: been relayed) failover is off and a failure surfaces instead.
    stream_replay_buffer: int = 1024 * 1024


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN per-backend failure gate.

    The ``clock`` is injectable so tests can step time instead of
    sleeping through ``open_seconds``.
    """

    def __init__(
        self,
        threshold: int,
        open_seconds: float,
        *,
        clock=time.monotonic,
        on_transition=None,
    ) -> None:
        self.threshold = max(int(threshold), 1)
        self.open_seconds = open_seconds
        self._clock = clock
        self._on_transition = on_transition
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def failures(self) -> int:
        return self._failures

    @property
    def state(self) -> str:
        """Current state; an elapsed OPEN window reads as HALF_OPEN."""
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.open_seconds
        ):
            self._transition(BREAKER_HALF_OPEN)
        return self._state

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        if state == BREAKER_OPEN:
            self._opened_at = self._clock()
        if self._on_transition is not None:
            self._on_transition(state)

    def allows(self) -> bool:
        """May a request be dispatched right now?

        CLOSED always; OPEN never; HALF_OPEN admits probes (the caller
        is expected to dispatch sparingly — every outcome feeds back).
        """
        return self.state != BREAKER_OPEN

    def record_success(self) -> None:
        self._failures = 0
        self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        self._failures += 1
        if self.state == BREAKER_HALF_OPEN:
            # The probe failed: re-arm the full open window.
            self._transition(BREAKER_OPEN)
        elif self._state == BREAKER_CLOSED and self._failures >= self.threshold:
            self._transition(BREAKER_OPEN)


class _BackendFailure(Exception):
    """One failed backend exchange (transport, timeout, or draining)."""


class _Backend:
    """Routing state for one backend address."""

    def __init__(self, addr: tuple[str, int], breaker: CircuitBreaker) -> None:
        self.addr = addr
        self.label = format_address(addr)
        self.breaker = breaker
        self.pool: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.inflight = 0


@dataclass(eq=False)
class _ClientConn:
    """Per-client-connection state (mirrors the server's)."""

    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Quota identity from PING negotiation, forwarded per stream.
    tenant: str | None = None
    #: Live stream relays by client correlation id.
    streams: dict = field(default_factory=dict)
    #: Ids of failed streams whose in-flight frames are tolerated.
    dead_streams: set = field(default_factory=set)


class _StreamRelay:
    """Forwarding state for one client stream (one correlation id).

    Client frames land in an append-only frame log (BEGIN first); the
    relay task forwards them to the backend in order, tracking its
    position in ``forwarded``.  Until a response frame has been relayed
    to the client the whole log is retained (bounded by
    ``stream_replay_buffer``), so a failed backend attempt can be
    replayed from index 0 on another backend — indistinguishable from a
    first attempt as long as the client has observed nothing.  Once
    replay is off (a response was relayed, or the log outgrew the cap)
    the forwarded prefix is trimmed, keeping router memory bounded by
    the uplink backlog — itself bounded by the backend's credit window,
    since the client only sends within granted credit.
    """

    __slots__ = (
        "begin_body", "_frames", "_base", "log_bytes", "buffer_ok",
        "forwarded", "responded", "saw_end", "task", "wakeup",
    )

    def __init__(self, begin_body: bytes) -> None:
        self.begin_body = begin_body
        self._frames: list[tuple[int, bytes]] = [
            (proto.OP_STREAM_BEGIN, begin_body)
        ]
        self._base = 0  # logical index of _frames[0]
        self.log_bytes = len(begin_body)
        self.buffer_ok = True
        self.forwarded = 0  # logical index the active attempt sends next
        self.responded = False
        self.saw_end = False
        self.task: asyncio.Task | None = None
        self.wakeup = asyncio.Event()

    def __len__(self) -> int:
        return self._base + len(self._frames)

    def frame(self, index: int) -> tuple[int, bytes]:
        return self._frames[index - self._base]

    def push(self, opcode: int, body: bytes, *, replay_cap: int) -> None:
        """Append one client frame to the log and wake the relay task."""
        if opcode == proto.OP_STREAM_END:
            self.saw_end = True
        self._frames.append((opcode, body))
        self.log_bytes += len(body)
        if self.buffer_ok and self.log_bytes > replay_cap:
            self.buffer_ok = False
        self.trim()
        self.wakeup.set()

    def mark_responded(self) -> None:
        self.responded = True
        self.trim()

    def trim(self) -> None:
        """Drop forwarded frames once replay is no longer possible."""
        if self.replayable:
            return
        drop = self.forwarded - self._base
        if drop > 0:
            for _, body in self._frames[:drop]:
                self.log_bytes -= len(body)
            del self._frames[:drop]
            self._base += drop

    @property
    def replayable(self) -> bool:
        return self.buffer_ok and not self.responded


class ShardRouter:
    """A consistent-hashing, health-checked FPRW front tier."""

    def __init__(
        self,
        config: RouterConfig,
        *,
        registry: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        if not config.backends:
            raise ServiceError("ShardRouter needs at least one backend")
        self.config = config
        self.registry = registry or MetricsRegistry()
        self.port: int | None = None
        self._clock = clock
        self._backends = [
            _Backend(parse_address(spec), self._make_breaker(spec))
            for spec in config.backends
        ]
        self._ring = self._build_ring()
        self._server: asyncio.base_events.Server | None = None
        self._conns: set[_ClientConn] = set()
        self._jobs: set[asyncio.Task] = set()
        self._health_task: asyncio.Task | None = None
        self._inflight = 0
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._backend_rids = itertools.count(1)
        self._started_at = 0.0

    def _make_breaker(self, spec) -> CircuitBreaker:
        label = format_address(parse_address(spec))

        def on_transition(state: str) -> None:
            self.registry.counter(
                "breaker_transitions_total", backend=label, to=state
            ).inc()
            self.registry.gauge("breaker_state", backend=label).set(
                _BREAKER_GAUGE[state]
            )
            self.registry.gauge("backend_healthy", backend=label).set(
                1 if state == BREAKER_CLOSED else 0
            )

        return CircuitBreaker(
            self.config.failure_threshold,
            self.config.open_seconds,
            clock=self._clock,
            on_transition=on_transition,
        )

    # -- hash ring ----------------------------------------------------

    def _build_ring(self) -> list[tuple[int, int]]:
        ring: list[tuple[int, int]] = []
        for index, backend in enumerate(self._backends):
            for v in range(self.config.vnodes):
                digest = hashlib.blake2b(
                    f"{backend.label}/{v}".encode(), digest_size=8
                ).digest()
                ring.append((int.from_bytes(digest, "big"), index))
        ring.sort()
        return ring

    def _candidates(self, body: bytes) -> list[_Backend]:
        """Backends in ring order for this request body, deduplicated."""
        key = zlib.crc32(body) * 0x9E3779B97F4A7C15 & (1 << 64) - 1
        start = bisect_right(self._ring, (key, len(self._backends)))
        seen: set[int] = set()
        ordered: list[_Backend] = []
        for k in range(len(self._ring)):
            _, index = self._ring[(start + k) % len(self._ring)]
            if index not in seen:
                seen.add(index)
                ordered.append(self._backends[index])
                if len(ordered) == len(self._backends):
                    break
        return ordered

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        cfg = self.config
        self._stopped = asyncio.Event()
        for backend in self._backends:
            # Until the first health check says otherwise, a backend is
            # assumed healthy (breaker starts CLOSED).
            self.registry.gauge("backend_healthy", backend=backend.label).set(1)
            self.registry.gauge("breaker_state", backend=backend.label).set(0)
        self._server = await asyncio.start_server(
            self._handle_conn, cfg.host, cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._health_task = asyncio.ensure_future(self._health_loop())
        self._started_at = self._clock()

    async def stop(self, drain: bool = True) -> None:
        if self._stopped is None or self._stopped.is_set():
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        if drain and self._jobs:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*tuple(self._jobs), return_exceptions=True),
                    self.config.backend_timeout,
                )
        for task in tuple(self._jobs):
            task.cancel()
        for conn in tuple(self._conns):
            conn.writer.close()
        for backend in self._backends:
            while backend.pool:
                _, writer = backend.pool.pop()
                writer.close()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "router not started"
        await self._stopped.wait()

    async def run(self, *, install_signals: bool = True, on_started=None) -> None:
        await self.start()
        if on_started is not None:
            on_started()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(self.stop())
                    )
        await self.wait_stopped()

    # -- health checks ------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.gather(
                *(self._check_backend(b) for b in self._backends),
                return_exceptions=True,
            )
            await asyncio.sleep(self.config.health_interval)

    async def _check_backend(self, backend: _Backend) -> None:
        if backend.breaker.state == BREAKER_OPEN:
            return  # wait out the open window; probing early is pointless
        try:
            opcode, body = await self._exchange(
                backend, proto.OP_PING, b"", timeout=self.config.health_timeout
            )
            if opcode != proto.OP_RESULT:
                raise _BackendFailure(f"PING answered 0x{opcode:02x}")
        except _BackendFailure:
            backend.breaker.record_failure()
            self.registry.counter(
                "health_checks_total", backend=backend.label, outcome="fail"
            ).inc()
        else:
            backend.breaker.record_success()
            self.registry.counter(
                "health_checks_total", backend=backend.label, outcome="ok"
            ).inc()

    # -- backend exchange ---------------------------------------------

    async def _acquire(
        self, backend: _Backend
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while backend.pool:
            reader, writer = backend.pool.pop()
            if writer.is_closing():
                writer.close()
                continue
            return reader, writer
        host, port = backend.addr
        try:
            return await asyncio.open_connection(host, port)
        except OSError as exc:
            raise _BackendFailure(f"connect to {backend.label}: {exc}") from exc

    def _release(
        self,
        backend: _Backend,
        conn: tuple[asyncio.StreamReader, asyncio.StreamWriter],
    ) -> None:
        if len(backend.pool) < self.config.pool_size:
            backend.pool.append(conn)
        else:
            conn[1].close()

    async def _exchange(
        self, backend: _Backend, opcode: int, body: bytes, *, timeout: float
    ) -> tuple[int, bytes]:
        """One framed request/response against a backend.

        Returns ``(response_opcode, response_body)``; any transport or
        framing failure raises :class:`_BackendFailure` and the
        connection is discarded, never repooled.
        """
        try:
            conn = await asyncio.wait_for(self._acquire(backend), timeout)
        except asyncio.TimeoutError as exc:
            raise _BackendFailure(
                f"connect to {backend.label}: timed out"
            ) from exc
        reader, writer = conn
        rid = next(self._backend_rids)
        try:
            writer.write(proto.encode_frame(opcode, rid, body))
            await asyncio.wait_for(writer.drain(), timeout)
            header = await asyncio.wait_for(
                reader.readexactly(proto.HEADER_SIZE), timeout
            )
            resp_op, resp_id, body_len = proto.parse_header(
                header, max_frame=self.config.max_frame
            )
            resp_body = await asyncio.wait_for(
                reader.readexactly(body_len), timeout
            )
            if resp_id != rid:
                raise ProtocolError(
                    f"backend answered request {resp_id}, expected {rid}"
                )
        except (
            OSError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ProtocolError,
            ConnectionError,
        ) as exc:
            writer.close()
            raise _BackendFailure(
                f"{backend.label}: {type(exc).__name__}: {exc}"
            ) from exc
        self._release(backend, conn)
        return resp_op, resp_body

    @staticmethod
    def _is_draining_error(opcode: int, body: bytes) -> bool:
        """A backend answering SHUTTING-DOWN should be failed over, not
        surfaced: from the client's seat the fleet is still up."""
        if opcode != proto.OP_ERROR or not body:
            return False
        return body[0] == proto.ERR_SHUTTING_DOWN

    # -- request dispatch ---------------------------------------------

    async def _dispatch(
        self, opcode: int, body: bytes
    ) -> tuple[int, bytes, str]:
        """Route one codec request; returns (opcode, body, outcome-label)."""
        cfg = self.config
        candidates = self._candidates(body)
        allowed = [b for b in candidates if b.breaker.allows()]
        attempts = allowed[: cfg.dispatch_attempts]
        busy_hints: list[int] = []
        for nth, backend in enumerate(attempts):
            if nth:
                self.registry.counter("failovers_total").inc()
            backend.inflight += 1
            try:
                resp_op, resp_body = await self._exchange(
                    backend, opcode, body, timeout=cfg.backend_timeout
                )
            except _BackendFailure:
                backend.breaker.record_failure()
                self._count_backend(backend, opcode, "transport-failure")
                continue
            finally:
                backend.inflight -= 1
            if self._is_draining_error(resp_op, resp_body):
                # Not a breaker failure: the backend answered, politely.
                self._count_backend(backend, opcode, "draining")
                continue
            if resp_op == proto.OP_BUSY:
                hint = proto.decode_busy_body(resp_body)
                busy_hints.append(hint if hint is not None else cfg.busy_retry_ms)
                backend.breaker.record_success()  # alive, just loaded
                self._count_backend(backend, opcode, "busy")
                continue
            backend.breaker.record_success()
            outcome = "ok" if resp_op == proto.OP_RESULT else "error"
            self._count_backend(backend, opcode, outcome)
            return resp_op, resp_body, outcome
        if busy_hints:
            # Every reachable backend pushed back: propagate the longest
            # hint so the client's backoff clears the whole fleet.
            return (
                proto.OP_BUSY,
                proto.encode_busy_body(max(busy_hints)),
                "all-busy",
            )
        # No backend answered: open breakers, dead connections, draining
        # fleets.  All of it is *transient* — health checks readmit
        # backends within open_seconds — so the honest reply is
        # backpressure (BUSY + hint), not a terminal error the client
        # would surface without retrying.
        self.registry.counter("unroutable_total").inc()
        return (
            proto.OP_BUSY,
            proto.encode_busy_body(cfg.busy_retry_ms),
            "unroutable",
        )

    def _count_backend(self, backend: _Backend, opcode: int, outcome: str) -> None:
        self.registry.counter(
            "router_requests_total",
            backend=backend.label,
            opcode=proto.REQUEST_OPCODES.get(opcode, hex(opcode)),
            outcome=outcome,
        ).inc()

    # -- client-facing plumbing ---------------------------------------

    async def _send(
        self, conn: _ClientConn, opcode: int, request_id: int, body: bytes = b""
    ) -> None:
        try:
            async with conn.write_lock:
                conn.writer.write(proto.encode_frame(opcode, request_id, body))
                await conn.writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            pass  # client went away; nothing left to deliver

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        cfg = self.config
        conn = _ClientConn(writer=writer)
        self._conns.add(conn)
        self.registry.gauge("connections").inc()
        try:
            while True:
                try:
                    header = await reader.readexactly(proto.HEADER_SIZE)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    opcode, request_id, body_len = proto.parse_header(
                        header, max_frame=cfg.max_frame
                    )
                    if opcode not in proto.REQUEST_OPCODES:
                        raise ProtocolError(
                            f"opcode 0x{opcode:02x} is a response opcode"
                        )
                except ReproError as exc:
                    self.registry.counter("protocol_errors_total").inc()
                    await self._send(
                        conn, proto.OP_ERROR, getattr(exc, "request_id", 0),
                        proto.encode_error_body(proto.ERR_PROTOCOL, str(exc)),
                    )
                    break
                try:
                    body = await reader.readexactly(body_len)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if await self._admit(conn, opcode, request_id, body) is False:
                    break
        finally:
            for relay in tuple(conn.streams.values()):
                if relay.task is not None:
                    relay.task.cancel()
            self._conns.discard(conn)
            self.registry.gauge("connections").dec()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _admit(
        self, conn: _ClientConn, opcode: int, request_id: int, body: bytes
    ) -> bool | None:
        cfg = self.config
        if opcode == proto.OP_PING:
            await self._send(
                conn, proto.OP_RESULT, request_id, self._negotiate(conn, body)
            )
            return None
        if opcode == proto.OP_STATS:
            payload = json.dumps(self._stats()).encode("utf-8")
            await self._send(conn, proto.OP_RESULT, request_id, payload)
            return None
        if opcode in (proto.OP_STREAM_DATA, proto.OP_STREAM_END):
            return await self._admit_stream_frame(conn, opcode, request_id, body)
        if self._draining:
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(
                    proto.ERR_SHUTTING_DOWN, "router is draining"
                ),
            )
            return None
        if self._inflight >= cfg.inflight_high_water:
            # Shed at the front door: cheaper than queueing work the
            # fleet cannot absorb, and the hint spaces out the retries.
            self.registry.counter("sheds_total").inc()
            await self._send(
                conn, proto.OP_BUSY, request_id,
                proto.encode_busy_body(cfg.busy_retry_ms),
            )
            return None
        if opcode == proto.OP_STREAM_BEGIN:
            return self._admit_stream_begin(conn, request_id, body)
        self._inflight += 1
        self.registry.gauge("inflight").set(self._inflight)
        task = asyncio.ensure_future(
            self._run_request(conn, opcode, request_id, body)
        )
        self._jobs.add(task)
        task.add_done_callback(self._jobs.discard)
        return None

    def _negotiate(self, conn: _ClientConn, body: bytes) -> bytes:
        """Mirror the server's PING negotiation (fail-open to v1)."""
        if not body:
            return b""
        try:
            doc = proto.decode_ping_body(body)
        except ProtocolError:
            self.registry.counter("ping_negotiation_failures_total").inc()
            return b""
        tenant = doc.get("tenant")
        if isinstance(tenant, str) and tenant:
            conn.tenant = tenant
        if not doc.get("features"):
            return b""
        # The router relays streams transparently, so it advertises the
        # full feature set; the window is each backend's to grant.
        return proto.encode_ping_body(proto.FEATURES)

    # -- stream relaying ----------------------------------------------

    def _admit_stream_begin(
        self, conn: _ClientConn, request_id: int, body: bytes
    ) -> bool | None:
        conn.dead_streams.discard(request_id)
        if request_id in conn.streams:
            return None  # duplicate BEGIN: let the backend's ledger rule
        relay = _StreamRelay(body)
        conn.streams[request_id] = relay
        self._inflight += 1
        self.registry.gauge("inflight").set(self._inflight)
        self.registry.gauge("streams_in_flight").inc()
        relay.task = asyncio.ensure_future(
            self._run_stream_relay(conn, request_id, relay)
        )
        self._jobs.add(relay.task)
        relay.task.add_done_callback(self._jobs.discard)
        return None

    async def _admit_stream_frame(
        self, conn: _ClientConn, opcode: int, request_id: int, body: bytes
    ) -> bool | None:
        relay = conn.streams.get(request_id)
        if relay is not None:
            relay.push(opcode, body, replay_cap=self.config.stream_replay_buffer)
            return None
        if request_id in conn.dead_streams:
            # The stream already failed; frames the client had in flight
            # are tolerated, and END retires the tombstone.
            if opcode == proto.OP_STREAM_END:
                conn.dead_streams.discard(request_id)
            return None
        self.registry.counter("protocol_errors_total").inc()
        await self._send(
            conn, proto.OP_ERROR, request_id,
            proto.encode_error_body(
                proto.ERR_PROTOCOL,
                f"{proto.REQUEST_OPCODES[opcode].upper()} for correlation id "
                f"{request_id} with no preceding STREAM-BEGIN",
            ),
        )
        return False

    async def _run_stream_relay(
        self, conn: _ClientConn, request_id: int, relay: _StreamRelay
    ) -> None:
        """Place a stream on the ring and relay it end to end."""
        cfg = self.config
        start = self._clock()
        outcome = "error"
        try:
            candidates = [
                b for b in self._candidates(relay.begin_body)
                if b.breaker.allows()
            ]
            busy_hints: list[int] = []
            for nth, backend in enumerate(candidates[: cfg.dispatch_attempts]):
                if not relay.replayable:
                    break
                if nth:
                    self.registry.counter("failovers_total", kind="stream").inc()
                backend.inflight += 1
                try:
                    verdict = await self._relay_stream_on(
                        backend, conn, request_id, relay
                    )
                except _BackendFailure:
                    backend.breaker.record_failure()
                    self._count_backend(
                        backend, proto.OP_STREAM_BEGIN, "transport-failure"
                    )
                    continue
                finally:
                    backend.inflight -= 1
                if verdict == "busy":
                    backend.breaker.record_success()
                    self._count_backend(backend, proto.OP_STREAM_BEGIN, "busy")
                    busy_hints.append(cfg.busy_retry_ms)
                    continue
                if verdict == "draining":
                    self._count_backend(backend, proto.OP_STREAM_BEGIN, "draining")
                    continue
                backend.breaker.record_success()
                self._count_backend(
                    backend, proto.OP_STREAM_BEGIN,
                    "ok" if verdict == "done" else "error",
                )
                outcome = verdict
                return
            # No backend completed the stream.
            if relay.responded:
                # The client has seen frames from a dead attempt; a
                # replay would duplicate them, so the honest answer is
                # a terminal error.
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(
                        proto.ERR_INTERNAL,
                        "backend failed mid-stream after frames were relayed",
                    ),
                )
                outcome = "mid-stream-failure"
            elif busy_hints:
                await self._send(
                    conn, proto.OP_BUSY, request_id,
                    proto.encode_busy_body(max(busy_hints)),
                )
                outcome = "all-busy"
            else:
                self.registry.counter("unroutable_total").inc()
                await self._send(
                    conn, proto.OP_BUSY, request_id,
                    proto.encode_busy_body(cfg.busy_retry_ms),
                )
                outcome = "unroutable"
        finally:
            conn.streams.pop(request_id, None)
            if outcome != "done" and not relay.saw_end:
                # The client may still have DATA in flight for this id;
                # tolerate it until END retires the tombstone.
                conn.dead_streams.add(request_id)
            self._inflight -= 1
            self.registry.gauge("inflight").set(self._inflight)
            self.registry.gauge("streams_in_flight").dec()
            self.registry.histogram(
                "route_seconds", buckets=LATENCY_BUCKETS, opcode="stream",
            ).observe(self._clock() - start)

    async def _relay_stream_on(
        self,
        backend: _Backend,
        conn: _ClientConn,
        request_id: int,
        relay: _StreamRelay,
    ) -> str:
        """Run (or replay) one stream against one backend.

        Returns ``"done"`` (trailer or terminal error relayed),
        ``"busy"`` / ``"draining"`` (backend declined before anything
        was relayed; failover is safe), or raises :class:`_BackendFailure`.
        """
        cfg = self.config
        try:
            reader, writer = await asyncio.wait_for(
                self._acquire(backend), cfg.backend_timeout
            )
        except asyncio.TimeoutError as exc:
            raise _BackendFailure(
                f"connect to {backend.label}: timed out"
            ) from exc
        backend_rid = next(self._backend_rids)
        uplink: asyncio.Task | None = None
        try:
            if conn.tenant:
                # Dedicated connection: propagate the tenant so backend
                # quota accounting attributes the stream correctly.
                writer.write(proto.encode_frame(
                    proto.OP_PING, backend_rid,
                    proto.encode_ping_body(proto.FEATURES, tenant=conn.tenant),
                ))
                await asyncio.wait_for(writer.drain(), cfg.backend_timeout)
                header = await asyncio.wait_for(
                    reader.readexactly(proto.HEADER_SIZE), cfg.backend_timeout
                )
                op, _, blen = proto.parse_header(
                    header, max_frame=cfg.max_frame
                )
                await asyncio.wait_for(
                    reader.readexactly(blen), cfg.backend_timeout
                )
                if op != proto.OP_RESULT:
                    raise ProtocolError(f"negotiation answered 0x{op:02x}")
            # (Re)play the frame log from the top and follow it live; a
            # replay is byte-identical to a first attempt.
            relay.forwarded = 0

            async def pump_uplink() -> None:
                while True:
                    while relay.forwarded >= len(relay):
                        relay.wakeup.clear()
                        await relay.wakeup.wait()
                    op, frame_body = relay.frame(relay.forwarded)
                    writer.write(proto.encode_frame(op, backend_rid, frame_body))
                    await writer.drain()
                    relay.forwarded += 1
                    relay.trim()
                    if op == proto.OP_STREAM_END:
                        return

            uplink = asyncio.ensure_future(pump_uplink())
            first = True
            while True:
                timeout = cfg.backend_timeout if first else None
                read = reader.readexactly(proto.HEADER_SIZE)
                header = await (
                    asyncio.wait_for(read, timeout) if timeout else read
                )
                resp_op, resp_rid, body_len = proto.parse_header(
                    header, max_frame=cfg.max_frame
                )
                resp_body = await reader.readexactly(body_len)
                if resp_rid != backend_rid:
                    raise ProtocolError(
                        f"backend answered stream {resp_rid}, "
                        f"expected {backend_rid}"
                    )
                first = False
                if resp_op == proto.OP_BUSY and not relay.responded:
                    return "busy"
                if self._is_draining_error(resp_op, resp_body) and not relay.responded:
                    return "draining"
                relay.mark_responded()
                await self._send(conn, resp_op, request_id, resp_body)
                if resp_op == proto.OP_STREAM_DONE:
                    self._release(backend, (reader, writer))
                    writer = None
                    return "done"
                if resp_op in (proto.OP_ERROR, proto.OP_BUSY):
                    # Terminal for the stream; the backend tombstones
                    # the id, so its connection stays frame-aligned.
                    self._release(backend, (reader, writer))
                    writer = None
                    return "backend-error"
        except (
            OSError,
            EOFError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ProtocolError,
            ConnectionError,
        ) as exc:
            raise _BackendFailure(
                f"{backend.label}: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            if uplink is not None:
                uplink.cancel()
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await uplink
            if writer is not None:
                writer.close()

    async def _run_request(
        self, conn: _ClientConn, opcode: int, request_id: int, body: bytes
    ) -> None:
        start = self._clock()
        try:
            resp_op, resp_body, _outcome = await self._dispatch(opcode, body)
            await self._send(conn, resp_op, request_id, resp_body)
        except Exception as exc:  # never let a routing bug hang a client
            from repro.errors import traceback_summary

            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(
                    proto.ERR_INTERNAL, traceback_summary(exc)
                ),
            )
        finally:
            self._inflight -= 1
            self.registry.gauge("inflight").set(self._inflight)
            self.registry.histogram(
                "route_seconds", buckets=LATENCY_BUCKETS,
                opcode=proto.REQUEST_OPCODES.get(opcode, hex(opcode)),
            ).observe(self._clock() - start)

    def _stats(self) -> dict:
        cfg = self.config
        return {
            "router": {
                "uptime_seconds": self._clock() - self._started_at,
                "draining": self._draining,
                "inflight": self._inflight,
                "inflight_high_water": cfg.inflight_high_water,
                "dispatch_attempts": cfg.dispatch_attempts,
                "failure_threshold": cfg.failure_threshold,
                "open_seconds": cfg.open_seconds,
                "health_interval": cfg.health_interval,
                "backends": [
                    {
                        "address": b.label,
                        "breaker": b.breaker.state,
                        "consecutive_failures": b.breaker.failures,
                        "inflight": b.inflight,
                        "pooled_connections": len(b.pool),
                    }
                    for b in self._backends
                ],
            },
            "metrics": self.registry.snapshot(),
        }


class RouterThread:
    """Run a :class:`ShardRouter` on a background thread (test harness).

    The router-shaped sibling of
    :class:`~repro.service.server.ServerThread`::

        with RouterThread(RouterConfig(port=0, backends=addrs)) as rt:
            with ResilientClient(f"127.0.0.1:{rt.port}") as client:
                blob = client.compress(array)
    """

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.router: ShardRouter | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._stop_lock = threading.Lock()
        self._stop_requested = False

    @property
    def port(self) -> int:
        assert self.router is not None and self.router.port is not None
        return self.router.port

    def __enter__(self) -> "RouterThread":
        self._thread = threading.Thread(
            target=self._main, name="repro-route", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError("router thread failed to start in time")
        if self._error is not None:
            raise ServiceError(f"router failed to start: {self._error}")
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.router = ShardRouter(self.config)
        try:
            await self.router.start()
        except BaseException as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self.router.wait_stopped()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Thread-safe graceful stop; idempotent — a repeated call only
        waits for the router thread to exit."""
        if self._loop is None or self.router is None or self._error is not None:
            return
        if self._thread is None or not self._thread.is_alive():
            return
        with self._stop_lock:
            repeated = self._stop_requested
            self._stop_requested = True
        if repeated:
            # The loop may already be shutting down, where a second stop
            # coroutine would never run: just wait for the thread.
            self._thread.join(timeout=timeout)
            return
        future = asyncio.run_coroutine_threadsafe(
            self.router.stop(drain=drain), self._loop
        )
        with contextlib.suppress(Exception):
            future.result(timeout=timeout)
