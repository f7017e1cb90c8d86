"""One FPRW endpoint: the lifecycle, frame loop and thread harness
shared by the server, the router and the chaos proxy.

Clients cannot tell a router from a server because both are the same
endpoint with a different :meth:`FrameEndpoint._handle_frame`:

* :class:`Endpoint` owns the listener lifecycle.  :meth:`~Endpoint.start`
  binds and records ``port``; :meth:`~Endpoint.stop` is idempotent and
  drains in one fixed order — mark draining, close the listener, wait
  up to the role's drain timeout for in-flight tasks, cancel the rest,
  close the connections, release the role's resources, set the stopped
  event; :meth:`~Endpoint.run` serves until SIGTERM/SIGINT.  Subclasses
  hook :meth:`~Endpoint._open` / :meth:`~Endpoint._close` for what
  really differs (the server's pools and backend pin, the router's
  health task and backend pools).
* :class:`FrameEndpoint` adds the accept side of the wire: header
  validation before any body is read, rejection of response opcodes
  with the frame's request id echoed, the ``connections`` gauge and
  ``connections_total``/``protocol_errors_total`` counters, one
  ``_send``, and the PING feature negotiation.
* :class:`EndpointThread` runs any endpoint on a background thread
  with its own event loop — the harness behind ``ServerThread``,
  ``RouterThread`` and ``ChaosProxyThread``.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service import protocol as proto
from repro.service.metrics import MetricsRegistry


class Endpoint:
    """A TCP listener with a graceful-drain lifecycle."""

    #: Clock of ``uptime_seconds`` (the router injects its own).
    _clock = staticmethod(time.monotonic)

    def __init__(self, config, registry: MetricsRegistry | None = None) -> None:
        self.config = config
        self.registry = registry or MetricsRegistry()
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._conns: set = set()
        self._jobs: set[asyncio.Task] = set()
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._started_at = 0.0

    # -- hooks ----------------------------------------------------------

    @property
    def _drain_timeout(self) -> float:
        """Seconds ``stop(drain=True)`` waits for in-flight tasks."""
        return 0.0

    async def _open(self) -> None:
        """Acquire role resources before the listener binds."""

    async def _close(self) -> None:
        """Release role resources; also runs when start fails, so it
        must tolerate a partly opened endpoint."""

    def _close_connections(self) -> None:
        for conn in tuple(self._conns):
            conn.writer.close()

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start serving connections."""
        self._stopped = asyncio.Event()
        try:
            await self._open()
            self._server = await asyncio.start_server(
                self._handle_conn, self.config.host, self.config.port
            )
        except BaseException:
            await self._close()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self._clock()

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain``, let in-flight tasks finish first."""
        if self._stopped is None or self._draining:
            return  # never started, already stopped, or stopping
        self._draining = True
        if self._server is not None:
            self._server.close()
        if drain and self._jobs and self._drain_timeout > 0:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*tuple(self._jobs), return_exceptions=True),
                    self._drain_timeout,
                )
        for task in tuple(self._jobs):
            task.cancel()
        self._close_connections()
        if self._server is not None:
            # Only now: from Python 3.12 this also waits for every
            # accepted connection to finish.
            await self._server.wait_closed()
        await self._close()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, f"{type(self).__name__} not started"
        await self._stopped.wait()

    async def run(
        self, *, install_signals: bool = True, on_started=None
    ) -> None:
        """Start, serve until SIGTERM/SIGINT (graceful drain), then exit."""
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


@dataclass(eq=False)
class FrameConnection:
    """Per-connection state (identity-hashed: every connection is unique)."""

    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Quota identity, set by PING negotiation.
    tenant: str | None = None
    #: Live streams by correlation id.
    streams: dict = field(default_factory=dict)
    #: Correlation ids of failed streams whose in-flight frames are
    #: tolerated (dropped) until their STREAM-END arrives.
    dead_streams: set = field(default_factory=set)


class FrameEndpoint(Endpoint):
    """An endpoint that accepts FPRW request frames."""

    #: ``stream_window`` advertised in PING replies (None: not ours to
    #: grant, so the key is left out).
    _stream_window: int | None = None

    def _new_connection(self, writer: asyncio.StreamWriter) -> FrameConnection:
        return FrameConnection(writer=writer)

    def _disconnected(self, conn: FrameConnection) -> None:
        """Release a closed connection's per-stream state."""

    async def _handle_frame(
        self, conn: FrameConnection, opcode: int, request_id: int, body: bytes
    ) -> bool | None:
        """Act on one request frame.  Returns ``False`` when the
        connection must be closed (the typed error has been sent)."""
        raise NotImplementedError

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = self._new_connection(writer)
        self._conns.add(conn)
        self.registry.gauge("connections").inc()
        self.registry.counter("connections_total").inc()
        try:
            while True:
                try:
                    header = await reader.readexactly(proto.HEADER_SIZE)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    opcode, request_id, body_len = proto.parse_header(
                        header, max_frame=self.config.max_frame
                    )
                    if opcode not in proto.REQUEST_OPCODES:
                        exc = ProtocolError(
                            f"opcode 0x{opcode:02x} is a response opcode"
                        )
                        exc.request_id = request_id
                        raise exc
                except ReproError as exc:
                    # A frame we cannot trust leaves the stream unsynced:
                    # answer with a typed error, then drop the connection.
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
                if await self._handle_frame(conn, opcode, request_id, body) is False:
                    break
        finally:
            self._disconnected(conn)
            self._conns.discard(conn)
            self.registry.gauge("connections").dec()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(
        self, conn: FrameConnection, opcode: int, request_id: int, body: bytes = b""
    ) -> None:
        try:
            async with conn.write_lock:
                conn.writer.write(proto.encode_frame(opcode, request_id, body))
                await conn.writer.drain()
        except (OSError, RuntimeError):  # ConnectionError is an OSError
            pass  # the peer went away; nothing left to deliver

    def _negotiate(self, conn: FrameConnection, body: bytes) -> bytes:
        """PING body in, PING reply body out (see ``decode_ping_body``).

        An empty request body is a protocol-v1 peer and gets the v1
        empty reply, byte for byte.  A malformed body fails *open* to the
        same v1 semantics — negotiation is an optimisation, never a
        reason to reject an old client.
        """
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
        return proto.encode_ping_body(
            proto.FEATURES, stream_window=self._stream_window
        )


class EndpointThread:
    """Run an :class:`Endpoint` on a background thread.

    The harness used by the tests, the benchmark trajectory, and any
    caller that wants a live endpoint without owning an event loop.
    ``stop()`` is thread-safe and idempotent: a repeated call only waits
    for the loop thread to exit.
    """

    def __init__(self, config) -> None:
        self.config = config
        self.endpoint: Endpoint | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._stop_lock = threading.Lock()
        self._stop_requested = False

    def _make_endpoint(self) -> Endpoint:
        raise NotImplementedError

    @property
    def port(self) -> int:
        assert self.endpoint is not None and self.endpoint.port is not None
        return self.endpoint.port

    def __enter__(self):
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._amain(),),
            name=f"repro-{type(self).__name__}", daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError(f"{type(self).__name__} failed to start in time")
        if self._error is not None:
            self._thread.join(timeout=30)
            raise ServiceError(
                f"{type(self).__name__} failed to start: {self._error}"
            )
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
        if self._thread is not None:
            self._thread.join(timeout=30)

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.endpoint = self._make_endpoint()
            await self.endpoint.start()
        except BaseException as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self.endpoint.wait_stopped()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Thread-safe graceful stop; idempotent — a repeated call only
        waits for the loop thread to exit."""
        if self._loop is None or self.endpoint is None or self._error is not None:
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
            self.endpoint.stop(drain=drain), self._loop
        )
        with contextlib.suppress(Exception):
            future.result(timeout=timeout)


def wait_for_port(
    host: str, port: int, *, timeout: float = 10.0
) -> None:
    """Block until a TCP connect to ``host:port`` succeeds (smoke tests)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"nothing listening on {host}:{port} within {timeout}s"
                ) from None
            time.sleep(0.05)
