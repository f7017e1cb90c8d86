"""The in-process workloads: ``corpus`` and ``archive``.

Both call the package's public functions (``repro.compress``,
``repro.decompress``, ``repro.decompress_range``) in a closed loop from
one process and check every output.  They differ in input size and
schedule, so they stress different layers:

* ``corpus`` — the paper's §4 evaluation shape: 90 SP + 20 DP files of
  ~256 KiB, each through its precision's speed codec, ratio codec and
  ``auto``, serial.  Each call spans 16 chunks, so stage kernels and the
  fixed per-call costs (plan, container, CRC, global FCM, selector
  probe) decide the result and the executor does nothing.
* ``archive`` — three 16 MiB fields under the threaded executor with
  ``workers = nproc``: each call spans 1024+ chunks, so per-call costs
  are amortised and the executor plus batched stage throughput decide
  the result; a seeded set of ``decompress_range`` reads exercises the
  partial-decode path that ``corpus`` never touches.

A run repeats the same calls pass after pass.  Every call is timed
and scaled to the reference machine speed (``harness.Speed``: the
reference loop runs between calls every quarter second); each call's
time is then the median over the run's untraced passes.  Unscaled
throughputs are printed beside the scaled ones (see README.md).
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import harness
import tracing

CORPUS_CODECS = {np.dtype(np.float32): ("spspeed", "spratio", "auto"),
                 np.dtype(np.float64): ("dpspeed", "dpratio", "auto")}
#: Passes every corpus run makes at least (each: 110 files x 3 codecs,
#: compress and decompress = 660 calls), fixing its latency sample count.
CORPUS_MIN_PASSES = 4

#: (corpus file whose generator builds the field, character).
#: Chosen among their kind for a ratio that moves < 1.1 % between seeds
#: at this size (spectral fields with few large modes move up to 10 %).
ARCHIVE_FIELDS = (("CESM-ATM/PS", "smooth SP"),
                  ("HACC/xx", "noisy SP"),
                  ("obs/obs_temp", "DP"))
#: Grid scale over the 256 KiB base files: 16 MiB per field.
ARCHIVE_SCALE = 64.0
ARCHIVE_CODECS = {np.dtype(np.float32): ("spspeed", "spratio"),
                  np.dtype(np.float64): ("dpspeed", "dpratio")}
ARCHIVE_MIN_PASSES = 4
RANGE_READS_PER_PASS = 300
RANGE_MIN_BYTES = 4 * 1024
RANGE_MAX_BYTES = 1024 * 1024


@dataclass
class Item:
    """One (input, codec) pair of a workload and its first container."""

    label: str
    array: np.ndarray
    codec: str
    blob: bytes | None = None


KINDS = ("compress", "decompress", "reads")


@dataclass
class Pass:
    """Seconds per call of one pass, in item (or read-plan) order; NaN
    where the call failed.  While the pass runs the entries are
    ``(start, seconds)``; ``finish`` turns them into seconds at the
    reference speed and keeps the unscaled ones in ``raw``."""

    traced: bool
    compress: list = field(default_factory=list)
    decompress: list = field(default_factory=list)
    reads: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    def finish(self, speed: harness.Speed, read_speed: harness.Speed | None = None) -> "Pass":
        """``read_speed`` scales the range reads (default ``speed``)."""
        speed.probe()
        if read_speed is None:
            read_speed = speed
        else:
            read_speed.probe()
        for kind in KINDS:
            scale = (read_speed if kind == "reads" else speed).scale
            timed = getattr(self, kind)
            self.raw[kind] = [t[1] if isinstance(t, tuple) else math.nan for t in timed]
            setattr(self, kind, [scale(*t) if isinstance(t, tuple) else math.nan
                                 for t in timed])
        return self


def _timed(tracer, name, tag, fn):
    """Call ``fn`` (under a root span when tracing); returns (result,
    (start, seconds))."""
    with tracer.span(name, tag) if tracer else nullcontext():
        start = time.perf_counter()
        result = fn()
        return result, (start, time.perf_counter() - start)


def round_trip(repro, items, ckw: dict, dkw: dict, check: harness.Checker,
               tracer, record: Pass, speed: harness.Speed) -> None:
    """Compress then decompress every item, timing and checking each call."""
    for item in items:
        check.attempted += 2
        try:
            speed.tick()
            blob, seconds = _timed(tracer, "call.compress", item.label, lambda: repro.compress(
                item.array, codec=item.codec, **ckw))
        except Exception as exc:  # every failure counts; the loop goes on
            check.fail(f"compress {item.label}: {type(exc).__name__}: {exc}")
            record.compress.append(math.nan)
            record.decompress.append(math.nan)
            continue
        record.compress.append(seconds)
        if item.blob is None:
            item.blob = blob
        elif blob != item.blob:
            check.fail(f"compress {item.label}: container differs from the first pass")
        try:
            speed.tick()
            out, seconds = _timed(tracer, "call.decompress", item.label,
                                  lambda: repro.decompress(blob, **dkw))
        except Exception as exc:
            check.fail(f"decompress {item.label}: {type(exc).__name__}: {exc}")
            record.decompress.append(math.nan)
            continue
        record.decompress.append(seconds)
        if not harness.same_bytes(item.array, out):
            check.fail(f"decompress {item.label}: output differs from the input")


def range_plan(items, rng, count: int) -> list[tuple]:
    """A run's ``count`` reads as ``(item, start, n)``, made once and
    repeated every pass.

    Each item gets the same sizes: the ``count / len(items)`` quantile
    midpoints of a log-uniform distribution from RANGE_MIN_BYTES to
    RANGE_MAX_BYTES.  The seed draws uniform offsets and the order of the
    reads, so every seed reads the same amount of data from each
    container, which decides a run's read cost far more than the offsets.
    """
    per_item = count // len(items)
    lo, hi = math.log(RANGE_MIN_BYTES), math.log(RANGE_MAX_BYTES)
    sizes = [math.exp(lo + (hi - lo) * (k + 0.5) / per_item) for k in range(per_item)]
    plan = []
    for item in items:
        flat = item.array.reshape(-1)
        for size in sizes:
            n = max(1, int(size) // flat.itemsize)
            plan.append((item, int(rng.integers(0, flat.size - n + 1)), n))
    return [plan[int(i)] for i in rng.permutation(len(plan))]


def range_reads(repro, plan, check: harness.Checker, tracer, record: Pass,
                speed: harness.Speed) -> None:
    """Run and check the planned ``decompress_range`` reads.

    Reads use the default (serial) schedule: a read spans at most 65
    chunks, and two threads racing for two shared vCPUs made the read
    latencies the noisiest figure of the benchmark.
    """
    for item, start, n in plan:
        flat = item.array.reshape(-1)
        check.attempted += 1
        try:
            speed.tick()
            out, seconds = _timed(tracer, "call.range", item.label, lambda: repro.decompress_range(
                item.blob, start, start + n))
        except Exception as exc:
            check.fail(f"range {item.label}[{start}:{start + n}]: {type(exc).__name__}: {exc}")
            record.reads.append(math.nan)
            continue
        record.reads.append(seconds)
        # The full decode equals the input (checked every pass), so the
        # slice of the input is the slice of the full decode.
        if out.dtype != flat.dtype or out.tobytes() != flat[start:start + n].tobytes():
            check.fail(f"range {item.label}[{start}:{start + n}]: differs from the full decode")


def _chosen_frac(repro, items) -> dict:
    """Share of ``auto`` chunks routed to each fixed codec."""
    from repro.core.codecs import codec_by_id

    chosen: dict = {}
    for item in items:
        if item.codec != "auto" or item.blob is None:
            continue
        info = repro.inspect(item.blob)
        for cid in info.chunk_codecs or ():
            name = codec_by_id(cid).name
            chosen[name] = chosen.get(name, 0) + 1
    total = sum(chosen.values())
    return {k: v / total for k, v in chosen.items()} if total else {}


def _passes(seconds: float, min_passes: int, trace: bool, one_pass) -> list[Pass]:
    """Run passes for ``seconds``, and at least ``min_passes``; with
    tracing, untraced and traced passes alternate and come in pairs."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(trace and len(passes) % 2 == 1))
        done = len(passes) >= min_passes and time.perf_counter() - start >= seconds
        if done and not (trace and len(passes) % 2):
            return passes


def call_times(passes, kind: str) -> np.ndarray:
    """Per call, its median scaled time over the untraced passes."""
    return np.nanmedian(np.array([getattr(p, kind) for p in passes if not p.traced]), axis=0)


def _throughput(items, passes, kind: str) -> tuple[float, float]:
    """(MB/s from the per-call scaled medians, median over passes of the
    pass's unscaled MB/s)."""
    nbytes = sum(item.array.nbytes for item in items)
    raw = [nbytes / np.nansum(p.raw[kind]) / harness.MB for p in passes if not p.traced]
    return nbytes / call_times(passes, kind).sum() / harness.MB, harness.median(raw)


def _summary(items, passes, setup, check, requests: np.ndarray) -> dict:
    """End-to-end metrics; ``requests`` are the per-request median times."""
    compress, compress_raw = _throughput(items, passes, "compress")
    decompress, decompress_raw = _throughput(items, passes, "decompress")
    latency = harness.latency_summary(list(requests), len(requests))
    inputs = {id(i.array): i.array.nbytes for i in items}
    working_set = sum(inputs.values()) + sum(len(i.blob or b"") for i in items)
    return {
        "env": harness.environment(working_set),
        "end_to_end": {
            "setup_s": setup,
            "compress_MBps": compress,
            "decompress_MBps": decompress,
            "ratio_geomean": harness.geomean(
                item.array.nbytes / len(item.blob) for item in items if item.blob),
            "requests_per_s": len(requests) / requests.sum(),
            "request_ms_p50": latency["p50_ms"],
            "request_ms_tail": latency["tail_ms"],
            "peak_rss_MB": harness.peak_rss_mb(),
        },
        "detail": {
            "passes": sum(not p.traced for p in passes),
            "compress_MBps_unscaled": compress_raw,
            "decompress_MBps_unscaled": decompress_raw,
            "tail_percentile": latency["tail_percentile"],
            "latency_samples": latency["samples"],
        },
        "check": check,
    }


def _overhead(items, passes) -> tuple[float, dict]:
    """Traced over untraced call time minus 1, overall and per call label."""
    def per_label(traced: bool) -> dict:
        rows = [p for p in passes if p.traced == traced]
        out: dict = {}
        for direction in ("compress", "decompress"):
            for label in dict.fromkeys(item.label for item in items):
                idx = [i for i, item in enumerate(items) if item.label == label]
                out[f"{direction} {label}"] = harness.median(
                    float(np.nansum(np.take(getattr(p, direction), idx))) for p in rows)
        return out

    plain, traced = per_label(False), per_label(True)
    total = sum(traced.values()) / sum(plain.values()) - 1.0
    return total, {k: traced[k] / plain[k] - 1.0 for k in plain if plain[k] > 0}


def corpus(repro, seed: int, seconds: float, trace: bool) -> dict:
    setup = harness.setup_seconds("corpus")
    speed = harness.Speed(all_cpus=False)  # serial calls: probe where they run
    items = []
    names = [f.name for f in harness.corpus_files()]
    for array in harness.generate_many([(name, harness.CORPUS_SCALE) for name in names], seed):
        for codec in CORPUS_CODECS[array.dtype]:
            label = f"{codec}/{'f32' if array.itemsize == 4 else 'f64'}"
            items.append(Item(label, array, codec))
    ckw = dkw = {"executor": "serial"}
    check = harness.Checker()
    # Warm-up, untimed: one round trip per codec label.
    first = {item.label: Item(item.label, item.array, item.codec) for item in items}
    round_trip(repro, first.values(), ckw, dkw, harness.Checker(), None, Pass(False), speed)
    tracer = tracing.Tracer() if trace else None

    def one_pass(traced: bool) -> Pass:
        record = Pass(traced)
        with tracer.installed() if traced else nullcontext():
            round_trip(repro, items, ckw, dkw, check, tracer if traced else None, record, speed)
        return record.finish(speed)

    passes = _passes(seconds, CORPUS_MIN_PASSES, trace, one_pass)
    calls = np.concatenate([call_times(passes, "compress"), call_times(passes, "decompress")])
    result = _summary(items, passes, setup, check, calls)
    if trace:
        overall, per_label = _overhead(items, passes)
        result["per_layer"] = tracing.layer_metrics(tracer, sum(p.traced for p in passes), {
            "chosen_frac": _chosen_frac(repro, items),
            "trace.overhead_frac": overall,
        })
        result["tracer"] = tracer
        result["call_overhead"] = per_label
    return result


def archive(repro, seed: int, seconds: float, trace: bool) -> dict:
    setup = harness.setup_seconds("archive")
    speed = harness.Speed()  # threaded calls run on every CPU
    read_speed = harness.Speed(all_cpus=False)  # reads are serial
    items = []
    arrays = harness.generate_many([(name, ARCHIVE_SCALE) for name, _ in ARCHIVE_FIELDS], seed)
    for (name, _character), array in zip(ARCHIVE_FIELDS, arrays):
        for codec in ARCHIVE_CODECS[array.dtype]:
            items.append(Item(f"{codec}/{name}", array, codec))
    workers = harness.nproc()
    ckw = {"executor": "threaded", "workers": workers, "fcm": "restart"}
    dkw = {"executor": "threaded", "workers": workers}
    check = harness.Checker()
    warm = [Item(i.label, i.array.reshape(-1)[: 64 * 1024], i.codec) for i in items]
    round_trip(repro, warm, ckw, dkw, harness.Checker(), None, Pass(False), speed)
    plan = range_plan(items, np.random.default_rng([seed, harness.name_key("archive-reads")]),
                      RANGE_READS_PER_PASS)
    tracer = tracing.Tracer() if trace else None

    def one_pass(traced: bool) -> Pass:
        record = Pass(traced)
        with tracer.installed() if traced else nullcontext():
            active = tracer if traced else None
            round_trip(repro, items, ckw, dkw, check, active, record, speed)
            range_reads(repro, plan, check, active, record, read_speed)
        return record.finish(speed, read_speed)

    passes = _passes(seconds, ARCHIVE_MIN_PASSES, trace, one_pass)
    result = _summary(items, passes, setup, check, call_times(passes, "reads"))
    result["detail"]["range_read_ms_p50"] = result["end_to_end"]["request_ms_p50"]
    result["detail"]["range_read_ms_tail"] = result["end_to_end"]["request_ms_tail"]
    if trace:
        overall, _ = _overhead(items, passes)
        result["per_layer"] = tracing.layer_metrics(tracer, sum(p.traced for p in passes), {
            "trace.overhead_frac": overall,
        })
        result["tracer"] = tracer
    return result
