"""Unit and live tests of the shard router.

The live tests run real :class:`~repro.service.server.ServerThread`
backends behind a :class:`~repro.service.router.RouterThread` and
assert the acceptance behaviors: byte-identical routing, circuit
breakers that open after consecutive failures and readmit a recovered
backend (observed through the metrics registry), failover around a
dead backend, and load shedding with a ``retry_after_ms`` hint.  The
last classes pin the endpoint the server, router and chaos proxy
share: one frame loop and one thread harness.
"""

from __future__ import annotations

import gc
import socket
import time
import warnings

import numpy as np
import pytest

import repro
from repro.errors import BusyError, ServiceError
from repro.service import (
    ChaosConfig,
    ChaosProxyThread,
    ResilientClient,
    RetryPolicy,
    RouterConfig,
    RouterThread,
    ServerThread,
    ServiceClient,
    ServiceConfig,
)
from repro.service import protocol as proto
from repro.service.router import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ShardRouter,
)


class _Clock:
    """A hand-stepped monotonic clock for breaker tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(3, 1.0, clock=_Clock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allows()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(3, 1.0, clock=_Clock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # streak broken at 2

    def test_open_becomes_half_open_after_the_window(self):
        clock = _Clock()
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.now += 4.9
        assert breaker.state == BREAKER_OPEN
        clock.now += 0.2
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allows()  # probes may flow

    def test_half_open_probe_success_closes(self):
        clock = _Clock()
        breaker = CircuitBreaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.now += 1.1
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_failure_rearms_the_window(self):
        clock = _Clock()
        breaker = CircuitBreaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.now += 1.1
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.now += 0.5
        assert breaker.state == BREAKER_OPEN  # full window, re-armed
        clock.now += 0.6
        assert breaker.state == BREAKER_HALF_OPEN

    def test_transitions_are_reported(self):
        clock = _Clock()
        seen: list[str] = []
        breaker = CircuitBreaker(1, 1.0, clock=clock,
                                 on_transition=seen.append)
        breaker.record_failure()
        clock.now += 1.1
        breaker.state  # noqa: B018 - lazy transition happens on read
        breaker.record_success()
        assert seen == [BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSED]


class TestHashRing:
    def _router(self, n_backends: int) -> ShardRouter:
        backends = tuple(("127.0.0.1", 10_000 + i) for i in range(n_backends))
        return ShardRouter(RouterConfig(backends=backends))

    def test_requires_a_backend(self):
        with pytest.raises(ServiceError, match="at least one backend"):
            ShardRouter(RouterConfig(backends=()))

    def test_same_body_routes_to_same_backend(self):
        router = self._router(4)
        body = b"x" * 1000
        first = router._candidates(body)
        for _ in range(5):
            assert [b.label for b in router._candidates(body)] == [
                b.label for b in first
            ]

    def test_candidates_cover_every_backend_once(self):
        router = self._router(4)
        candidates = router._candidates(b"some request body")
        assert len(candidates) == 4
        assert len({b.label for b in candidates}) == 4

    def test_keyspace_spreads_across_backends(self):
        router = self._router(4)
        first = {
            router._candidates(bytes([i, i >> 4]) * 50)[0].label
            for i in range(64)
        }
        assert len(first) == 4  # every backend owns some keys

    def test_removing_a_backend_only_remaps_its_keys(self):
        big = self._router(4)
        small = self._router(3)  # same first three backend addresses
        moved = 0
        total = 128
        for i in range(total):
            body = bytes([i]) * 32
            before = big._candidates(body)[0].label
            after = small._candidates(body)[0].label
            if before != after:
                moved += 1
                # Keys only move off the removed backend, never between
                # the survivors.
                assert before == "127.0.0.1:10003"
        assert 0 < moved < total // 2


def _walk(rng, n, dtype=np.float32):
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(dtype)


def _router_config(*ports: int, **overrides) -> RouterConfig:
    return RouterConfig(**{
        "port": 0,
        "backends": tuple(("127.0.0.1", p) for p in ports),
        "health_interval": 0.1,
        "failure_threshold": 2,
        "open_seconds": 0.4,
        **overrides,
    })


class TestRoutingLive:
    def test_routed_requests_are_byte_identical(self, rng):
        data = _walk(rng, 8_000)
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with RouterThread(_router_config(a.port, b.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    blob = client.compress(data, "spspeed")
                    assert blob == repro.compress(data, "spspeed")
                    assert np.array_equal(client.decompress(blob), data)
                    assert client.ping()

    def test_work_spreads_across_backends(self, rng):
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with RouterThread(_router_config(a.port, b.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    for i in range(24):
                        client.compress(_walk(rng, 500 + 37 * i), "spspeed")
                    counters = client.stats()["metrics"]["counters"]
                served = {
                    key for key, count in counters.items()
                    if key.startswith("router_requests_total")
                    and "outcome=ok" in key and count > 0
                }
                assert len(served) == 2  # both backends did codec work

    def test_dead_backend_fails_over_and_breaker_opens(self, rng):
        data = _walk(rng, 4_000)
        expected = repro.compress(data, "spspeed")
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            dead = a.port
            with RouterThread(_router_config(a.port, b.port)) as rt:
                a.stop(drain=False)
                with ServiceClient(port=rt.port) as client:
                    # Every request succeeds despite the dead backend.
                    for _ in range(8):
                        assert client.compress(data, "spspeed") == expected
                    # The health loop needs failure_threshold failed
                    # probes before the breaker opens; poll for it.
                    deadline = time.monotonic() + 10
                    while time.monotonic() < deadline:
                        stats = client.stats()
                        breakers = {
                            row["address"]: row["breaker"]
                            for row in stats["router"]["backends"]
                        }
                        if breakers[f"127.0.0.1:{dead}"] != BREAKER_CLOSED:
                            break
                        time.sleep(0.05)
                assert breakers[f"127.0.0.1:{dead}"] in (
                    BREAKER_OPEN, BREAKER_HALF_OPEN,
                )
                counters = stats["metrics"]["counters"]
                opened = counters.get(
                    "breaker_transitions_total"
                    f"{{backend=127.0.0.1:{dead},to=open}}", 0,
                )
                assert opened >= 1
                gauges = stats["metrics"]["gauges"]
                assert gauges[f"backend_healthy{{backend=127.0.0.1:{dead}}}"] == 0

    def test_recovered_backend_is_readmitted(self, rng):
        """OPEN -> HALF_OPEN -> CLOSED, observed through the registry."""
        with ServerThread(ServiceConfig(port=0)) as a:
            anchor_port = a.port
            with ServerThread(ServiceConfig(port=0)) as flaky:
                flaky_port = flaky.port
                with RouterThread(
                    _router_config(anchor_port, flaky_port)
                ) as rt:
                    flaky.stop(drain=False)
                    with ServiceClient(port=rt.port) as client:
                        deadline = time.monotonic() + 10
                        while time.monotonic() < deadline:
                            row = next(
                                r for r in client.stats()["router"]["backends"]
                                if r["address"] == f"127.0.0.1:{flaky_port}"
                            )
                            if row["breaker"] == BREAKER_OPEN:
                                break
                            time.sleep(0.05)
                        assert row["breaker"] == BREAKER_OPEN

                        # Resurrect a backend on the same port: the
                        # health loop must probe (half-open) and close
                        # the breaker again.
                        with ServerThread(
                            ServiceConfig(port=flaky_port)
                        ):
                            deadline = time.monotonic() + 10
                            while time.monotonic() < deadline:
                                row = next(
                                    r for r in
                                    client.stats()["router"]["backends"]
                                    if r["address"]
                                    == f"127.0.0.1:{flaky_port}"
                                )
                                if row["breaker"] == BREAKER_CLOSED:
                                    break
                                time.sleep(0.05)
                            assert row["breaker"] == BREAKER_CLOSED
                            counters = client.stats()["metrics"]["counters"]
                            label = f"backend=127.0.0.1:{flaky_port}"
                            assert counters[
                                f"breaker_transitions_total{{{label},"
                                f"to=half-open}}"
                            ] >= 1
                            assert counters[
                                f"breaker_transitions_total{{{label},"
                                f"to=closed}}"
                            ] >= 1

    def test_all_backends_down_surfaces_busy_not_error(self, rng):
        data = _walk(rng, 1_000)
        with ServerThread(ServiceConfig(port=0)) as a:
            with RouterThread(_router_config(a.port)) as rt:
                a.stop(drain=False)
                with ServiceClient(port=rt.port) as client:
                    with pytest.raises(BusyError):
                        client.compress(data, "spspeed")

    def test_load_shedding_answers_busy_with_hint(self, rng):
        data = _walk(rng, 1_000)
        with ServerThread(ServiceConfig(port=0)) as a:
            config = _router_config(a.port, inflight_high_water=0,
                                    busy_retry_ms=321)
            with RouterThread(config) as rt:
                with ServiceClient(port=rt.port) as client:
                    with pytest.raises(BusyError) as info:
                        client.compress(data, "spspeed")
                    assert info.value.retry_after_ms == 321
                    counters = client.stats()["metrics"]["counters"]
                    assert counters["sheds_total"] >= 1

    def test_resilient_client_rides_through_shedding(self, rng):
        data = _walk(rng, 1_000)
        with ServerThread(ServiceConfig(port=0)) as a:
            # High water of 1 forces intermittent sheds under pipelining;
            # the retrying client must absorb all of them.
            with RouterThread(
                _router_config(a.port, inflight_high_water=1,
                               busy_retry_ms=5)
            ) as rt:
                with ResilientClient(
                    f"127.0.0.1:{rt.port}",
                    policy=RetryPolicy(attempts=10, base_ms=2.0),
                    seed=0,
                ) as client:
                    expected = repro.compress(data, "spspeed")
                    for _ in range(12):
                        assert client.compress(data, "spspeed") == expected

    def test_router_stats_shape(self, rng):
        with ServerThread(ServiceConfig(port=0)) as a:
            with RouterThread(_router_config(a.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    client.compress(_walk(rng, 500), "spspeed")
                    stats = client.stats()
        router = stats["router"]
        assert router["draining"] is False
        assert router["inflight"] == 0
        assert router["failure_threshold"] == 2
        (backend,) = router["backends"]
        assert backend["address"] == f"127.0.0.1:{a.port}"
        assert backend["breaker"] == BREAKER_CLOSED
        assert "metrics" in stats

    def test_stopped_router_refuses_connections(self):
        with ServerThread(ServiceConfig(port=0)) as a:
            rt = RouterThread(_router_config(a.port))
            with rt:
                port = rt.port
                with ServiceClient(port=port) as client:
                    assert client.ping()
            # After stop, the listener is gone entirely.
            with pytest.raises(ServiceError, match="cannot connect"):
                ServiceClient(port=port, timeout=2.0)


class TestRoutedStreams:
    """Protocol-v2 streams relayed through the router.

    The router buffers a stream's uplink frames only while a replay is
    still possible; failover is allowed exclusively for fully-buffered,
    not-yet-answered streams, so a retried stream is byte-identical to
    the first attempt and a half-answered one fails loudly instead of
    silently duplicating work.
    """

    def test_streamed_round_trip_through_the_router(self, rng):
        data = _walk(rng, 60_000)
        expected = repro.compress(data, "spspeed", fcm="restart")
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with RouterThread(_router_config(a.port, b.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    assert client.supports("stream")  # negotiated end-to-end
                    blob = client.compress_streamed(data, "spspeed")
                    assert blob == expected
                    assert np.array_equal(client.decompress_streamed(blob),
                                          data)

    def test_streams_and_unary_interleave_through_the_router(self, rng):
        data = _walk(rng, 10_000)
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with RouterThread(_router_config(a.port, b.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    blob = client.compress_streamed(data, "spspeed")
                    assert np.array_equal(client.decompress(blob), data)
                    assert client.ping()
                    blob2 = client.compress(data, "spspeed")
                    assert np.array_equal(
                        client.decompress_streamed(blob2), data
                    )

    def test_stream_fails_over_around_a_dead_backend(self, rng):
        data = _walk(rng, 6_000)
        raw, dtype_code, shape = ServiceClient._array_payload(data)
        begin = proto.encode_stream_begin(
            proto.STREAM_COMPRESS, total_len=len(raw), codec="spspeed",
            dtype_code=dtype_code, shape=shape,
        )
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            servers = {a.port: a, b.port: b}
            # No health checks after the first: a probe could open the
            # dead backend's breaker, and the stream would route around
            # it without a failover.
            config = _router_config(a.port, b.port, health_interval=60.0)
            with RouterThread(config) as rt:
                with ServiceClient(port=rt.port) as client:
                    client.negotiate()  # id 1: the first stream opens on id 2
                    # Kill the backend the ring puts first for that stream.
                    victim = rt.router._stream_candidates(begin, 2)[0]
                    servers[victim.addr[1]].stop(drain=False)
                    for i in range(6):
                        payload = data + np.float32(i)  # same shape: same BEGIN
                        blob = client.compress_streamed(payload, "spspeed")
                        assert blob == repro.compress(
                            payload, "spspeed", fcm="restart"
                        )
                    counters = client.stats()["metrics"]["counters"]
                failovers = sum(
                    count for key, count in counters.items()
                    if key.startswith("failovers_total") and "stream" in key
                )
                assert failovers >= 1

    def test_same_shaped_streams_spread_across_backends(self, rng):
        data = _walk(rng, 4_000)
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b, \
                ServerThread(ServiceConfig(port=0)) as c, \
                ServerThread(ServiceConfig(port=0)) as d:
            config = _router_config(a.port, b.port, c.port, d.port)
            with RouterThread(config) as rt:
                with ServiceClient(port=rt.port) as client:
                    for i in range(8):
                        client.compress_streamed(data + np.float32(i), "spspeed")
                    counters = client.stats()["metrics"]["counters"]
        served = {
            key for key, count in counters.items()
            if key.startswith("router_requests_total")
            and "opcode=stream-begin" in key and "outcome=ok" in key
            and count > 0
        }
        assert len(served) >= 2


class TestSharedFrameLoop:
    """Server and router accept frames through one loop: same bytes out."""

    @staticmethod
    def _reply(port: int, frame: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(frame)
            return s.makefile("rb").read()  # the endpoint closes after ERROR

    def test_server_and_router_reject_a_response_opcode_identically(self):
        frame = proto.encode_frame(proto.OP_RESULT, 7)
        with ServerThread(ServiceConfig(port=0)) as srv:
            with RouterThread(_router_config(srv.port)) as rt:
                from_server = self._reply(srv.port, frame)
                from_router = self._reply(rt.port, frame)
        assert from_server == from_router
        opcode, request_id, _ = proto.parse_header(
            from_server[:proto.HEADER_SIZE]
        )
        assert (opcode, request_id) == (proto.OP_ERROR, 7)
        assert proto.decode_error_body(from_server[proto.HEADER_SIZE:]) == (
            proto.ERR_PROTOCOL, "opcode 0x80 is a response opcode",
        )


def _second_stop_seconds(endpoint) -> float:
    """Stop ``endpoint`` twice; returns how long the second call took."""
    # asyncio.run waits for the loop's default executor on the way out,
    # so a pending sleep there keeps the loop thread alive past the first
    # stop: the window in which a second stop used to schedule its
    # coroutine onto a closing loop and block for the full timeout.
    loop = endpoint._loop
    loop.call_soon_threadsafe(loop.run_in_executor, None, time.sleep, 0.5)
    endpoint.stop()
    started = time.monotonic()
    endpoint.stop()
    elapsed = time.monotonic() - started
    assert not endpoint._thread.is_alive()
    return elapsed


def _harness(kind: str, backend_port: int, port: int = 0):
    """An unstarted thread harness of ``kind`` listening on ``port``."""
    if kind == "server":
        return ServerThread(ServiceConfig(port=port))
    if kind == "router":
        return RouterThread(_router_config(backend_port, port=port))
    return ChaosProxyThread(
        ChaosConfig(upstream=("127.0.0.1", backend_port), port=port)
    )


class TestRepeatedStop:
    """An explicit stop() followed by __exit__'s stop() only joins."""

    @pytest.mark.parametrize("kind", ["server", "router", "chaos"])
    def test_second_stop_returns_promptly(self, kind):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ServerThread(ServiceConfig(port=0)) as backend:
                if kind == "server":
                    elapsed = _second_stop_seconds(backend)
                else:
                    with _harness(kind, backend.port) as endpoint:
                        elapsed = _second_stop_seconds(endpoint)
            gc.collect()
        assert elapsed < 1.0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestStartFailure:
    @pytest.mark.parametrize("kind", ["server", "router", "chaos"])
    def test_taken_port_raises_and_leaves_no_thread(self, kind):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            endpoint = _harness(kind, backend_port=port, port=port)
            with pytest.raises(ServiceError, match="failed to start"):
                with endpoint:
                    pass
        assert not endpoint._thread.is_alive()
