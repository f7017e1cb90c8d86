"""A deterministic chaos proxy for the FPRW wire protocol.

``fprz chaos`` sits between a client (or router) and a server and
injects network faults on a *seeded schedule*: every observed frame
advances an event counter, and the fault decision for event ``i`` is
drawn from ``np.random.default_rng([seed, i])`` — the same
seed-plus-index convention as the fuzzing subsystem
(:mod:`repro.fuzzing`), so any failure found under the proxy replays
exactly from ``(seed, event_index)``.  :func:`schedule_preview` prints
the decisions a seed will make before any traffic flows.

Injected faults, all at frame granularity (the proxy parses FPRW
headers to find frame boundaries, which is what makes *mid-frame*
faults expressible):

* ``reset`` — drop the frame and abort both sides of the connection.
* ``truncate`` — forward only a prefix of the frame, then abort:
  the peer observes a mid-frame connection loss.
* ``corrupt`` — XOR one byte of the 20-byte frame header: magic,
  version, flags, or reserved (offsets 0..4, 6, 7).  Every one of those
  bytes is strictly validated by
  :func:`repro.service.protocol.parse_header`, so the corruption is
  always *detected* and surfaces as a retryable desync, exercising the
  typed-error path rather than silently delivering wrong bytes.  The
  opcode byte is deliberately spared: an opcode XOR can turn one valid
  request into another (COMPRESS into DECOMPRESS), which no protocol
  layer can detect — and payload integrity belongs to the container's
  CRC layer, which ``fprz fuzz`` attacks directly.
* ``delay`` — hold the frame for a seeded number of milliseconds.
* ``blackhole`` — from this frame on, consume this direction of this
  connection and forward nothing: the peer hangs until its timeout.

The proxy can also simulate a backend dying mid-run: after
``kill_after_frames`` observed frames (or a programmatic
:meth:`ChaosProxy.kill`), every connection is aborted and new ones are
closed on accept until :meth:`ChaosProxy.revive`.

Determinism note: the schedule is exact for serial workloads (one
request in flight at a time — the CI chaos-smoke case).  Under
concurrent connections the *set* of decisions is fixed by the seed but
their assignment to frames follows arrival order.

Stream awareness: a streamed transfer (protocol v2) is *many* frames
per correlation id — BEGIN, a ladder of DATA/ACK exchanges, END, then
RESULT frames and a DONE trailer.  The proxy parses the opcode and
correlation id out of every header, so each of those frames gets its
own schedule decision at its own frame boundary (a truncate can land
on the 17th DATA frame of a stream, not just on whole requests), every
injection is labelled with the opcode it hit, and the per-stream event
log (:attr:`ChaosProxy.stream_events`) records which stream each
decision landed on.  :func:`stream_schedule_preview` prints the same
thing *before* any traffic for the canonical serial stream ladder.
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import ServiceError
from repro.service import protocol as proto
from repro.service.endpoint import Endpoint, EndpointThread
from repro.service.metrics import MetricsRegistry
from repro.service.resilience import parse_address

#: Fault kinds in schedule order (the cumulative-rate draw walks this).
FAULT_ACTIONS = ("reset", "truncate", "corrupt", "delay", "blackhole")

#: Header offsets eligible for corruption: magic(0-3), version(4),
#: flags(6), reserved(7) — each strictly validated on parse, so every
#: hit is detected.  Offset 5 (opcode) is spared: flipping it can
#: produce a *different valid request*, which is undetectable.
_CORRUPTIBLE_OFFSETS = (0, 1, 2, 3, 4, 6, 7)


@dataclass(frozen=True)
class ChaosConfig:
    """Tunables of one :class:`ChaosProxy`."""

    #: Upstream server as ``(host, port)`` or ``"host:port"``.
    upstream: tuple | str = ("127.0.0.1", proto.DEFAULT_PORT)
    host: str = "127.0.0.1"
    #: Listen port; 0 binds an ephemeral port (read ``proxy.port`` back).
    port: int = 0
    #: Seed of the fault schedule (``default_rng([seed, event_index])``).
    seed: int = 0
    #: Per-frame fault probabilities; the remainder passes untouched.
    reset_rate: float = 0.0
    truncate_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0
    blackhole_rate: float = 0.0
    #: Latency-spike range in milliseconds (uniform, seeded draw).
    delay_ms: tuple = (5.0, 50.0)
    #: Abort everything after this many observed frames (None = never).
    kill_after_frames: int | None = None
    #: Which direction faults apply to: "request", "response", or "both".
    direction: str = "both"

    def rates(self) -> tuple[float, ...]:
        return (
            self.reset_rate,
            self.truncate_rate,
            self.corrupt_rate,
            self.delay_rate,
            self.blackhole_rate,
        )

    def __post_init__(self) -> None:
        if self.direction not in ("request", "response", "both"):
            raise ServiceError(
                f"direction {self.direction!r} must be request|response|both"
            )
        if any(r < 0 for r in self.rates()) or sum(self.rates()) > 1.0:
            raise ServiceError(
                "fault rates must be non-negative and sum to at most 1.0"
            )


def _draw(config: ChaosConfig, index: int):
    """The seeded decision for event ``index``: (action, rng)."""
    rng = np.random.default_rng([config.seed, index])
    u = float(rng.random())
    for action, rate in zip(FAULT_ACTIONS, config.rates()):
        u -= rate
        if u < 0:
            return action, rng
    return "pass", rng


def schedule_preview(config: ChaosConfig, n: int) -> list[tuple[int, str]]:
    """The first ``n`` (event_index, action) decisions of a seed.

    The replay convention made inspectable: what the proxy *will* do is
    a pure function of ``(seed, index)``, printable before a run and
    reconstructable after one.
    """
    return [(i, _draw(config, i)[0]) for i in range(n)]


#: Stream opcodes, for per-stream annotation of schedule decisions.
_STREAM_OPCODES = frozenset((
    proto.OP_STREAM_BEGIN, proto.OP_STREAM_DATA, proto.OP_STREAM_END,
    proto.OP_STREAM_ACK, proto.OP_STREAM_RESULT, proto.OP_STREAM_DONE,
))


def _stream_ladder(data_frames: int) -> list[tuple[str, str]]:
    """The canonical serial wire exchange of one streamed transfer.

    Returns ``(frame_kind, direction)`` pairs in arrival order for a
    stream carrying ``data_frames`` DATA frames, assuming the lockstep
    cadence of a serial client (each DATA acknowledged before the
    next): BEGIN, initial ACK, then DATA/ACK pairs, END, one RESULT
    per DATA frame, and the DONE trailer.  Real cadence can batch ACKs
    and RESULTs; this ladder is the worst case (most frames, most
    schedule events) and is exact for the CI chaos-smoke workload.
    """
    ladder: list[tuple[str, str]] = [
        ("stream-begin", "request"), ("stream-ack", "response"),
    ]
    for _ in range(data_frames):
        ladder.append(("stream-data", "request"))
        ladder.append(("stream-ack", "response"))
    ladder.append(("stream-end", "request"))
    ladder.extend(("stream-result", "response") for _ in range(data_frames))
    ladder.append(("stream-done", "response"))
    return ladder


def stream_schedule_preview(
    config: ChaosConfig, *, streams: int, data_frames: int
) -> list[tuple[int, int, str, str, str]]:
    """Per-stream schedule: what a seed will do to ``streams`` serial
    streamed transfers of ``data_frames`` DATA frames each.

    Returns ``(event_index, stream, frame_kind, direction, action)``
    rows in arrival order.  Frames in a direction the config does not
    fault are shown with action ``pass``; the event counter still
    advances for them, exactly as in :meth:`ChaosProxy._pump`.
    """
    rows: list[tuple[int, int, str, str, str]] = []
    index = 0
    for stream in range(streams):
        for kind, direction in _stream_ladder(data_frames):
            faultable = config.direction in (direction, "both")
            action = _draw(config, index)[0] if faultable else "pass"
            rows.append((index, stream, kind, direction, action))
            index += 1
    return rows


class ChaosProxy(Endpoint):
    """A frame-aware TCP proxy that injects seeded faults.

    It shares the endpoint lifecycle but not the frame loop: its
    connections are raw pumps, and ``stop()`` aborts them rather than
    draining.
    """

    def __init__(
        self,
        config: ChaosConfig,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(config, registry)
        self.upstream = parse_address(config.upstream)
        self._event_index = 0
        self._killed = False
        #: Per-stream event log: (event_index, direction, frame_kind,
        #: correlation_id, action) for every stream frame observed.
        #: Bounded; the replay convention ``(seed, index)`` recovers
        #: anything that scrolled off.
        self.stream_events: list[tuple[int, str, str, int, str]] = []

    _STREAM_EVENT_CAP = 8192

    @property
    def frames_observed(self) -> int:
        return self._event_index

    # -- kill switch --------------------------------------------------

    def kill(self) -> None:
        """Abort every connection and refuse new ones (a dead backend)."""
        if not self._killed:
            self._killed = True
            self.registry.counter("chaos_kills_total").inc()
        self._close_connections()

    def revive(self) -> None:
        """Accept traffic again after :meth:`kill`."""
        self._killed = False

    def _close_connections(self) -> None:
        # ``_conns`` holds the writers of both sides of every link.
        for writer in tuple(self._conns):
            self._abort(writer)
        self._conns.clear()

    @staticmethod
    def _abort(writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(Exception):
            transport = writer.transport
            if transport is not None:
                transport.abort()  # RST-style: no FIN handshake to hang on

    # -- the two pumps ------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._killed:
            self._abort(writer)
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(*self.upstream)
        except OSError:
            self._abort(writer)
            return
        self._conns.add(writer)
        self._conns.add(up_writer)
        self.registry.counter("chaos_connections_total").inc()
        pumps = [
            asyncio.ensure_future(
                self._pump(reader, up_writer, direction="request")
            ),
            asyncio.ensure_future(
                self._pump(up_reader, writer, direction="response")
            ),
        ]
        for task in pumps:
            self._jobs.add(task)
            task.add_done_callback(self._jobs.discard)
        try:
            await asyncio.gather(*pumps, return_exceptions=True)
        finally:
            for w in (writer, up_writer):
                self._conns.discard(w)
                self._abort(w)

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        dst: asyncio.StreamWriter,
        *,
        direction: str,
    ) -> None:
        """Forward frames one way, consulting the schedule per frame."""
        cfg = self.config
        blackholed = False
        while True:
            try:
                header = await reader.readexactly(proto.HEADER_SIZE)
                body_len = struct.unpack_from("<I", header, 16)[0]
                body = await reader.readexactly(body_len) if body_len else b""
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                self._abort(dst)
                return
            opcode = header[5]
            opname = proto.OPCODE_NAMES.get(opcode, f"0x{opcode:02x}")
            index = self._event_index
            self._event_index += 1
            if (
                cfg.kill_after_frames is not None
                and self._event_index >= cfg.kill_after_frames
            ):
                self.kill()
                return
            if self._killed:
                self._abort(dst)
                return
            if blackholed:
                continue  # consume and drop: the peer waits forever
            faultable = cfg.direction in (direction, "both")
            action, rng = (
                _draw(cfg, index) if faultable else ("pass", None)
            )
            if opcode in _STREAM_OPCODES:
                # Per-stream decision log: which frame of which stream
                # each schedule event landed on.
                if len(self.stream_events) < self._STREAM_EVENT_CAP:
                    rid = struct.unpack_from("<Q", header, 8)[0]
                    self.stream_events.append(
                        (index, direction, opname, rid, action)
                    )
            if action != "pass":
                self.registry.counter(
                    "chaos_injections_total", action=action, opcode=opname
                ).inc()
            if action == "reset":
                self._abort(dst)
                return
            if action == "truncate":
                frame = header + body
                cut = int(rng.integers(1, len(frame)))
                with contextlib.suppress(ConnectionError, OSError):
                    dst.write(frame[:cut])
                    await dst.drain()
                self._abort(dst)
                return
            if action == "corrupt":
                offset = _CORRUPTIBLE_OFFSETS[
                    int(rng.integers(0, len(_CORRUPTIBLE_OFFSETS)))
                ]
                mask = int(rng.integers(1, 256))
                mutated = bytearray(header)
                mutated[offset] ^= mask
                header = bytes(mutated)
            elif action == "delay":
                low, high = cfg.delay_ms
                await asyncio.sleep(float(rng.uniform(low, high)) / 1e3)
            elif action == "blackhole":
                blackholed = True
                continue
            try:
                dst.write(header + body)
                await dst.drain()
            except (ConnectionError, OSError):
                return


class ChaosProxyThread(EndpointThread):
    """Run a :class:`ChaosProxy` on a background thread (test harness)."""

    def _make_endpoint(self) -> ChaosProxy:
        return ChaosProxy(self.config)

    @property
    def proxy(self) -> ChaosProxy | None:
        return self.endpoint

    def kill(self) -> None:
        """Thread-safe :meth:`ChaosProxy.kill`."""
        assert self.proxy is not None and self._loop is not None
        self._loop.call_soon_threadsafe(self.proxy.kill)

    def revive(self) -> None:
        assert self.proxy is not None and self._loop is not None
        self._loop.call_soon_threadsafe(self.proxy.revive)
