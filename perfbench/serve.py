"""The ``serve`` workload: ``fprz route`` in front of two ``fprz serve``.

Three separate processes are started from this checkout.  One client
process (this one) opens ``min(2, nproc)`` connections to the router,
one thread each, and keeps a fixed pipeline depth of requests in flight
per connection with ``ServiceClient.submit_*`` / ``collect`` — a closed
loop.  The seeded mix holds unary COMPRESS of corpus files, DECOMPRESS
of their containers, a share of small 4 KiB requests (where per-request
overhead — frame decode, admission, routing — dominates) and a share of
streamed COMPRESS of four same-shaped 2 MiB fields (ring placement and
windowed flow control).  It is the only workload through ``service.protocol``,
``client``, ``server`` and ``router``; every request does real codec
work.

The loop runs in segments of SEGMENT_S seconds.  Between segments the
pipelines drain and, with the fleet idle, this process times the
reference loop (``harness.Speed``); each segment's wall time and
latencies are scaled to the reference speed by the probes on either
side of it.

Every remote container is checked byte for byte against local
``repro.compress`` of the same input (streamed ones against
``fcm="restart"``, the streamed framing), every decompressed payload
against its input.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field

import numpy as np

import harness
import tracing

PIPELINE_DEPTH = 4
N_BACKENDS = 2
#: Every POOL_STRIDE-th corpus file of each precision is in the pool
#: (45 SP + 10 DP), alternating speed and ratio codecs.  The router
#: places unary requests by body CRC, so a pool this large keeps the
#: per-backend load share from depending on the seed.
POOL_SP_STRIDE = 2
POOL_DP_STRIDE = 2
SMALL_BYTES = 4 * 1024
SMALL_ITEMS = 16
#: Streamed fields (corpus generators at grid scale 8: 2 MiB of float32
#: each).  All have one shape, the case ring placement keys on.  Four
#: fields of 2 MiB, not two of 4 MiB: the latency tail falls among the
#: streams, and with twice the streams per run it moved half as much
#: between runs on the 2-vCPU reference box.
STREAM_FIELDS = (("CESM-ATM/PS", 8.0), ("NYX/temperature", 8.0),
                 ("CESM-ATM/PSL", 8.0), ("NYX/velocity_x", 8.0))
STREAM_CODEC = "spspeed"
#: Requests every run completes at least: fixes the latency sample count.
MIN_REQUESTS = 1600
#: Seconds of closed loop between two speed probes.
SEGMENT_S = 1.0
#: Fleet start-ups timed per run (``setup_s`` is their median).
SETUP_REPEATS = 5
_ANNOUNCE = re.compile(r"listening on [^\s:]+:(\d+)")


@dataclass
class Request:
    kind: str
    payload: object
    codec: str | None
    expected: object
    nbytes: int  # original (uncompressed) bytes the request moves


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    traced: bool
    wall_s: float = 0.0  # at the reference speed
    raw_wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    compress_bytes: int = 0
    decompress_bytes: int = 0
    served: set = field(default_factory=set)


# -- the fleet ----------------------------------------------------------------


class Fleet:
    """Two backends and a router, each its own process."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []
        self.logs: list = []
        self.backend_ports: list[int] = []
        self.router_port = 0

    def _spawn(self, role: str, args: list[str]) -> subprocess.Popen:
        harness.OUT.mkdir(exist_ok=True)
        log = open(harness.OUT / f"{role}.log", "w")
        self.logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args], cwd=harness.ROOT,
            env=harness.child_env(), stdout=subprocess.PIPE, stderr=log, text=True,
        )
        self.procs.append(proc)
        return proc

    @staticmethod
    def _port(proc: subprocess.Popen, role: str) -> int:
        line = proc.stdout.readline()
        match = _ANNOUNCE.search(line)
        if match is None:
            raise harness.SetupError(f"{role} did not start (said {line.strip()!r}); "
                                     f"see {harness.OUT / (role + '.log')}")
        return int(match.group(1))

    def start(self) -> None:
        from repro.service.client import ServiceClient

        backends = [self._spawn(f"backend{i}", ["serve", "--port", "0"])
                    for i in range(N_BACKENDS)]
        self.backend_ports = [self._port(p, f"backend{i}") for i, p in enumerate(backends)]
        route = ["route", "--port", "0"]
        for port in self.backend_ports:
            route += ["--backend", f"127.0.0.1:{port}"]
        self.router_port = self._port(self._spawn("router", route), "router")
        for port in self.backend_ports:
            with ServiceClient(port=port, timeout=60) as client:
                client.ping()
                _warm_up(client)
        with ServiceClient(port=self.router_port, timeout=60) as client:
            client.ping()

    def peak_rss_mb(self) -> float:
        return max(harness.peak_rss_mb(p.pid) for p in self.procs)

    def stop(self) -> None:
        """SIGTERM (graceful drain) router first, then wait; kill stragglers."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for log in self.logs:
            log.close()
        self.procs.clear()
        self.logs.clear()


def _warm_up(client) -> None:
    """A backend's first calls: one round trip per codec of the mix."""
    ramp = np.sin(np.linspace(0.0, 60.0, 8192))
    for array, codecs in ((ramp.astype(np.float32), ("spspeed", "spratio")),
                          (ramp.astype(np.float64), ("dpspeed", "dpratio"))):
        for codec in codecs:
            client.decompress(client.compress(array, codec))
    client.compress_streamed(ramp.astype(np.float32), STREAM_CODEC)


def start_fleet(speed: harness.Speed) -> tuple[Fleet, float]:
    """Start a fleet; returns it and the seconds (at the reference speed)
    until all answered PING and every backend made its first calls."""
    fleet = Fleet()
    speed.probe()
    start = time.perf_counter()
    try:
        fleet.start()
    except BaseException:
        fleet.stop()
        raise
    elapsed = time.perf_counter() - start
    speed.probe()
    return fleet, speed.scale(start, elapsed)


# -- the request mix ------------------------------------------------------------


def build_pool(repro, seed: int) -> list[Request]:
    """The request pool with each request's expected reply.

    Which files, codecs and sizes it holds is fixed; the seed picks the
    data (and the small requests' offsets), so every seed runs the same
    mix of work.
    """
    rng = np.random.default_rng([seed, harness.name_key("serve-pool")])
    files = harness.corpus_files()
    sp = [f.name for f in files if f.dtype == np.float32][::POOL_SP_STRIDE]
    dp = [f.name for f in files if f.dtype == np.float64][::POOL_DP_STRIDE]
    specs = [(name, harness.CORPUS_SCALE) for name in sp + dp] + list(STREAM_FIELDS)
    generated = harness.generate_many(specs, seed)
    arrays, stream_fields = generated[:len(sp + dp)], generated[len(sp + dp):]
    pool: list[Request] = []
    for i, array in enumerate(arrays):
        codec = ("sp" if array.dtype == np.float32 else "dp") + ("speed", "ratio")[i % 2]
        blob = repro.compress(array, codec=codec)
        pool.append(Request("compress", array, codec, blob, array.nbytes))
        pool.append(Request("decompress", blob, None, array, array.nbytes))
    for i in range(SMALL_ITEMS):
        flat = arrays[i % len(arrays)].reshape(-1)
        n = SMALL_BYTES // flat.itemsize
        start = int(rng.integers(0, flat.size - n + 1))
        piece = flat[start:start + n].copy()
        codec = ("sp" if piece.dtype == np.float32 else "dp") + "speed"
        blob = repro.compress(piece, codec=codec)
        if i % 2:
            pool.append(Request("small-decompress", blob, None, piece, piece.nbytes))
        else:
            pool.append(Request("small-compress", piece, codec, blob, piece.nbytes))
    for field_ in stream_fields:
        pool.append(Request("stream", field_, STREAM_CODEC,
                            repro.compress(field_, codec=STREAM_CODEC, fcm="restart"),
                            field_.nbytes))
    return pool


def request_stream(pool: list[Request], seed: int, conn: int):
    """One connection's endless request sequence: the whole pool over and
    over, each cycle in a fresh seeded order."""
    rng = np.random.default_rng([seed, harness.name_key(f"serve-conn-{conn}")])
    while True:
        for i in rng.permutation(len(pool)):
            yield pool[int(i)]


# -- the closed loop -------------------------------------------------------------


class Loop:
    """Shared stop condition and results of the connection threads."""

    def __init__(self, seconds: float, check) -> None:
        self.seconds = seconds
        self.check = check
        self.lock = threading.Lock()
        self.start = 0.0

    def done(self) -> bool:
        return time.perf_counter() - self.start >= self.seconds


def _is_compress(req: Request) -> bool:
    return req.kind in ("compress", "small-compress", "stream")


def _finish(loop: Loop, phase: Phase, req: Request, seconds: float, reply) -> None:
    """Check one reply and book it."""
    if _is_compress(req):
        ok = bytes(reply) == req.expected
    else:
        ok = harness.same_bytes(req.expected, reply)
    with loop.lock:
        loop.check.attempted += 1
        if not ok:
            loop.check.fail(f"{req.kind} reply differs from the local result")
            return
        phase.latencies.append(seconds)
        phase.served.add(id(req))
        if _is_compress(req):
            phase.compress_bytes += req.nbytes
        else:
            phase.decompress_bytes += req.nbytes


def _failed(loop: Loop, req: Request, exc: Exception) -> None:
    with loop.lock:
        loop.check.attempted += 1
        loop.check.fail(f"{req.kind}: {type(exc).__name__}: {exc}")


def drive(client, requests, loop: Loop, phase: Phase) -> None:
    """One connection: keep PIPELINE_DEPTH requests in flight until done.

    Replies are collected oldest first; latency runs from ``submit`` to
    the return of that request's ``collect``.  A streamed request runs
    alone: the pipeline drains first.  Everything in flight is collected
    before it returns.
    """
    inflight: deque = deque()

    def collect_oldest() -> None:
        rid, start, req = inflight.popleft()
        try:
            if _is_compress(req):
                reply = client.collect(rid)
            else:
                reply = client.collect_decompress(rid)
        except Exception as exc:  # every failure counts; the loop goes on
            _failed(loop, req, exc)
            return
        _finish(loop, phase, req, time.perf_counter() - start, reply)

    while not client.broken:
        while len(inflight) < PIPELINE_DEPTH and not loop.done():
            req = next(requests)
            if req.kind == "stream":
                while inflight:
                    collect_oldest()
                start = time.perf_counter()
                try:
                    reply = client.compress_streamed(req.payload, req.codec)
                except Exception as exc:
                    _failed(loop, req, exc)
                    continue
                _finish(loop, phase, req, time.perf_counter() - start, reply)
                continue
            start = time.perf_counter()
            try:
                if req.kind in ("compress", "small-compress"):
                    rid = client.submit_compress(req.payload, req.codec)
                else:
                    rid = client.submit_decompress(req.payload)
            except Exception as exc:
                _failed(loop, req, exc)
                continue
            inflight.append((rid, start, req))
        if not inflight:
            return
        collect_oldest()
    # A poisoned connection cannot deliver what is still in flight.
    for _rid, _start, req in inflight:
        _failed(loop, req, RuntimeError(f"connection broken: {client.broken}"))


def run_segment(clients, streams, check, traced: bool) -> Phase:
    """SEGMENT_S seconds of closed loop, one thread per connection,
    drained at the end; times are unscaled."""
    segment = Phase(traced)
    loop = Loop(SEGMENT_S, check)
    errors: list = []

    def body(client, stream) -> None:
        try:
            drive(client, stream, loop, segment)
        except Exception as exc:  # a dead connection fails its thread's work
            errors.append(exc)

    threads = [threading.Thread(target=body, args=pair, name=f"serve-conn-{i}")
               for i, pair in enumerate(zip(clients, streams))]
    loop.start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    segment.raw_wall_s = time.perf_counter() - loop.start
    for exc in errors:
        check.fail(f"connection: {type(exc).__name__}: {exc}")
    return segment


def run_phase(fleet: Fleet, streams, seconds: float, min_requests: int,
              check, traced: bool, speed: harness.Speed) -> Phase:
    """Segments until ``seconds`` have passed and ``min_requests`` have
    completed, each scaled to the reference speed by the probes taken
    before and after it while the fleet is idle."""
    from repro.service.client import ServiceClient

    phase = Phase(traced)
    start = time.perf_counter()
    with ExitStack() as stack:
        clients = [stack.enter_context(ServiceClient(port=fleet.router_port, timeout=60))
                   for _ in streams]
        speed.probe()
        while time.perf_counter() - start < seconds or len(phase.latencies) < min_requests:
            if any(client.broken for client in clients):
                break
            begun = time.perf_counter()
            segment = run_segment(clients, streams, check, traced)
            speed.probe()
            factor = speed.factor(begun, begun + segment.raw_wall_s)
            phase.raw_wall_s += segment.raw_wall_s
            phase.wall_s += segment.raw_wall_s * factor
            phase.latencies += [latency * factor for latency in segment.latencies]
            phase.compress_bytes += segment.compress_bytes
            phase.decompress_bytes += segment.decompress_bytes
            phase.served |= segment.served
    return phase


# -- service STATS ---------------------------------------------------------------


def _labels(key: str) -> dict:
    inner = key[key.index("{") + 1:-1] if "{" in key else ""
    return dict(part.split("=", 1) for part in inner.split(",") if part)


def fleet_stats(fleet: Fleet) -> dict:
    """Counter totals the per-layer service metrics are deltas of."""
    from repro.service.client import ServiceClient

    out = {"request_s": 0.0, "busy": 0, "stalls": 0, "streams": 0}
    for port in fleet.backend_ports:
        with ServiceClient(port=port, timeout=60) as client:
            metrics = client.stats()["metrics"]
        out["request_s"] += sum(h["sum"] for k, h in metrics["histograms"].items()
                                if k.startswith("request_seconds"))
        counters = metrics["counters"]
        out["busy"] += sum(v for k, v in counters.items()
                           if k.startswith("busy_rejections_total"))
        out["stalls"] += counters.get("window_stalls_total", 0)
        out["streams"] += sum(v for k, v in counters.items() if k.startswith("streams_total"))
    with ServiceClient(port=fleet.router_port, timeout=60) as client:
        counters = client.stats()["metrics"]["counters"]
    out["failovers"] = sum(v for k, v in counters.items() if k.startswith("failovers_total"))
    out["sheds"] = counters.get("sheds_total", 0)
    for key, value in counters.items():
        if not key.startswith("router_requests_total"):
            continue
        labels = _labels(key)
        if labels.get("outcome") != "ok":
            continue
        kind = "stream" if labels["opcode"] == "stream-begin" else "unary"
        out[f"{kind}@{labels['backend']}"] = out.get(f"{kind}@{labels['backend']}", 0) + value
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _share_max(delta: dict, kind: str) -> float:
    """Busiest backend's share of ``kind`` requests over the even share."""
    counts = [v for k, v in delta.items() if k.startswith(f"{kind}@")]
    counts += [0] * (N_BACKENDS - len(counts))
    total = sum(counts)
    return max(counts) / (total / N_BACKENDS) if total else 0.0


# -- the workload ------------------------------------------------------------------


def serve(repro, seed: int, seconds: float, trace: bool) -> dict:
    check = harness.Checker()
    pool = build_pool(repro, seed)
    n_conns = min(2, harness.nproc())
    setups = []
    fleet = None
    speed = harness.Speed()
    try:
        for _ in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.stop()
            fleet, seconds_to_ready = start_fleet(speed)
            setups.append(seconds_to_ready)
        streams = [request_stream(pool, seed, c) for c in range(n_conns)]
        tracer = tracing.Tracer() if trace else None
        phases: list[Phase] = []
        deltas: list[dict] = []
        # Untraced: one phase.  Traced: untraced and traced phases alternate.
        plan = [False, True, False, True] if trace else [False]
        for traced in plan:
            before = fleet_stats(fleet)
            share = seconds / len(plan)
            with tracer.installed() if traced else nullcontext():
                phases.append(run_phase(fleet, streams, share,
                                        MIN_REQUESTS // len(plan), check, traced, speed))
            if traced:
                deltas.append(_delta(fleet_stats(fleet), before))
        rss = max(fleet.peak_rss_mb(), harness.peak_rss_mb())
    finally:
        if fleet is not None:
            fleet.stop()

    plain = [p for p in phases if not p.traced]
    wall = sum(p.wall_s for p in plain)
    latencies = [s for p in plain for s in p.latencies]
    fixed = MIN_REQUESTS // len(plan) * len(plain)
    latency = harness.latency_summary(latencies, fixed)
    served = set().union(*(p.served for p in phases))
    compressed = [r for r in pool if r.kind in ("compress", "stream") and id(r) in served]
    working_set = sum(r.nbytes + len(r.expected) for r in compressed)
    result = {
        "env": harness.environment(working_set),
        "end_to_end": {
            "setup_s": harness.median(setups),
            "compress_MBps": sum(p.compress_bytes for p in plain) / wall / harness.MB,
            "decompress_MBps": sum(p.decompress_bytes for p in plain) / wall / harness.MB,
            # Over the corpus files and streamed fields; the 4 KiB pieces
            # are there for per-request overhead, not for ratio.
            "ratio_geomean": harness.geomean(r.nbytes / len(r.expected) for r in compressed),
            "requests_per_s": len(latencies) / wall,
            "request_ms_p50": latency["p50_ms"],
            "request_ms_tail": latency["tail_ms"],
            "peak_rss_MB": rss,
        },
        "detail": {
            "connections": n_conns,
            "pipeline_depth": PIPELINE_DEPTH,
            "requests_per_s_unscaled": len(latencies) / sum(p.raw_wall_s for p in plain),
            "tail_percentile": latency["tail_percentile"],
            "latency_samples": latency["samples"],
            "pool_requests_served": f"{len(served)}/{len(pool)}",
        },
        "check": check,
    }
    if trace:
        result["per_layer"] = _layers(tracer, phases, deltas)
        result["tracer"] = tracer
    return result


def _layers(tracer, phases: list[Phase], deltas: list[dict]) -> dict:
    traced = [p for p in phases if p.traced]
    plain = [p for p in phases if not p.traced]
    rate = {t: sum(len(p.latencies) for p in ps) / sum(p.wall_s for p in ps)
            for t, ps in ((True, traced), (False, plain))}
    n_requests = sum(len(p.latencies) for p in traced)
    total = {}
    for delta in deltas:
        for k, v in delta.items():
            total[k] = total.get(k, 0) + v
    client_s = sum(s for p in traced for s in p.latencies)
    return tracing.layer_metrics(tracer, n_requests / 1000.0, {
        "retries": 0,
        "service.server.request_s_sum": total["request_s"],
        "service.server.busy_rejections": total["busy"],
        "service.server.window_stalls": total["stalls"],
        "service.server.streams": total["streams"],
        "service.outside_codec_frac": 1.0 - total["request_s"] / client_s,
        "service.router.backend_share_max": _share_max(total, "unary"),
        "service.router.stream_backend_share_max": _share_max(total, "stream"),
        "service.router.failovers": total["failovers"],
        "service.router.sheds": total["sheds"],
        "trace.overhead_frac": rate[False] / rate[True] - 1.0,
    })
