"""Span tracing from outside the program, and the per-layer metrics.

The traced run patches each layer's public callables *where their
callers resolve them* (class methods, module attributes, and the names a
module bound with ``from ... import``) with wrappers that record a span:
name, start, end, parent.  Spans stay in memory and are written out when
the run ends.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall`
restores every original.

A span's *self time* is its duration minus the part of it that its child
spans cover (children may overlap when they run on worker threads, so
the covered part is the union of their intervals).  Self times of the
spans below one API call therefore add up to that call's wall time,
which is what the per-codec reconciliation prints.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: Traced stages; ``fcm`` is the global whole-input pass (and, under
#: restart framing, the per-chunk pass inside the pipeline).
STAGES = ("diffms", "mplg", "bit", "rze", "raze", "rare", "fcm")
FIXED_CODECS = ("spspeed", "spratio", "dpspeed", "dpratio")


def _per_layer_catalog() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in output order."""
    from_kernels = []
    for k in KERNEL_NAMES:
        from_kernels += [(f"bitpack.{k}.self_s", "s", "lower"),
                         (f"bitpack.{k}.calls", "count", "lower"),
                         (f"bitpack.{k}.bytes_computed", "bytes", "lower")]
    from_stages = []
    for s in STAGES:
        from_stages += [(f"stages.{s}.encode_self_s", "s", "lower"),
                        (f"stages.{s}.decode_self_s", "s", "lower"),
                        (f"stages.{s}.calls", "count", "lower")]
    return from_kernels + from_stages + [
        ("selection.probe_s", "s", "lower"),
        ("selection.chunks_probed", "count", "lower"),
        *[(f"selection.chosen_frac.{c}", "frac", "higher") for c in FIXED_CODECS],
        ("core.plan_s", "s", "lower"),
        ("core.container_build_s", "s", "lower"),
        ("core.container_inspect_s", "s", "lower"),
        ("core.crc_s", "s", "lower"),
        ("core.residual_s", "s", "lower"),
        ("core.residual_frac", "frac", "lower"),
        ("core.raw_fallback_frac", "frac", "lower"),
        ("core.batch_rerun_blocks", "count", "lower"),
        ("core.executor.run_s", "s", "lower"),
        ("core.executor.overhead_s", "s", "lower"),
        ("core.executor.jobs", "count", "lower"),
        ("core.executor.worker_busy_imbalance", "ratio", "lower"),
        ("range.plan_s", "s", "lower"),
        ("range.decode_s", "s", "lower"),
        ("range.chunks_per_read", "count", "lower"),
        ("range.read_amplification", "ratio", "lower"),
        ("service.client.submit_s", "s", "lower"),
        ("service.client.wait_s", "s", "lower"),
        ("service.client.collect_s", "s", "lower"),
        ("service.client.retries", "count", "lower"),
        ("service.server.request_s_sum", "s", "lower"),
        ("service.server.busy_rejections", "count", "lower"),
        ("service.server.window_stalls", "count", "lower"),
        ("service.server.streams", "count", "higher"),
        ("service.outside_codec_frac", "frac", "lower"),
        ("service.router.backend_share_max", "ratio", "lower"),
        ("service.router.stream_backend_share_max", "ratio", "lower"),
        ("service.router.failovers", "count", "lower"),
        ("service.router.sheds", "count", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]


#: The eight frozen-contract kernels (mirrors ``repro.bitpack.backend``;
#: a test checks the two agree).
KERNEL_NAMES = (
    "pack_lanes",
    "unpack_lanes",
    "count_leading_zeros",
    "leading_common_bits",
    "bit_transpose",
    "bit_untranspose",
    "eliminated_counts_rows",
    "choose_k_rows",
)

PER_LAYER = _per_layer_catalog()


def _nbytes(value) -> int:
    """Bytes an argument or result occupies, computed from its size."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, memoryview):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    A span is ``(id, parent_id, name, start, end, tag)``; ``tag`` carries
    the worker id of executor jobs and the codec label of API calls.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._kernel_wrappers: dict = {}
        self._count_lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, tag=None, parent: int | None = None):
        """Record a span around the block; yields its id.

        ``parent`` is used only when this thread has no open span — the
        executor jobs of a worker thread name the run span that spawned
        them that way.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, tag))

    def add(self, key: str, n: int = 1) -> None:
        """Bump a counter (worker threads share the counters)."""
        with self._count_lock:
            self.counters[key] += n

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(args, kwargs,
        result)`` runs after a successful call to update counters."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, fn, observe=None, on_error: str | None = None):
        """``fn`` updating counters only (no span)."""
        tracer = self

        def counted(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error:
                    tracer.add(on_error)
                raise
            if observe is not None:
                observe(args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    # -- layers ------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced layer of the in-process program."""
        from repro import selection
        from repro.bitpack import backend
        from repro.core import compressor, container, executors, pipeline
        from repro.stages import (
            bit_stage, diffms, fcm, mplg, rare, raze, rze,
        )
        from repro.service import client

        add = self.add
        original_kernel = backend.kernel

        def traced_kernel(name):
            fn = original_kernel(name)
            key = (name, fn)
            wrapper = self._kernel_wrappers.get(key)
            if wrapper is None:
                def observe(args, kwargs, result, _name=name):
                    add(f"bitpack.{_name}.bytes_computed",
                        _nbytes(args) + _nbytes(result))
                wrapper = self._kernel_wrappers[key] = self.wrap(
                    f"bitpack.{name}", fn, observe)
            return wrapper

        self._patch(backend, "kernel", traced_kernel)

        for cls in (diffms.DiffMS, mplg.MPLG, bit_stage.BitTranspose,
                    rze.RZE, raze.RAZE, rare.RARE):
            for method in ("encode_batch", "encode"):
                self.patch(cls, method, f"stages.{cls.name}.encode")
            for method in ("decode_batch", "decode"):
                self.patch(cls, method, f"stages.{cls.name}.decode")
        self.patch(fcm.FCMStage, "encode", "stages.fcm.encode")
        self.patch(fcm.FCMStage, "decode", "stages.fcm.decode")

        def probed(args, kwargs, result):
            add("selection.chunks_probed", len(args[0]))

        self.patch(selection, "probe_chunks", "selection.probe", probed)

        for attr in ("plan_encode", "plan_decode"):
            self.patch(compressor, attr, "core.plan")

        def range_planned(args, kwargs, rplan):
            add("range.reads")
            add("range.chunks", rplan.plan.n_chunks)
            add("range.decoded_bytes", rplan.plan.out_len)
            add("range.returned_bytes", rplan.stop - rplan.start)

        self.patch(compressor, "plan_for_range", "range.plan", range_planned)
        self.patch(container, "build_container", "core.container_build")

        def raw_container(args, kwargs, result):
            # Whole-input fallback: every encoded chunk of the call is
            # discarded (all calls here use the default chunk size).  A
            # chunk already stored raw is counted twice, an upper bound.
            from repro.core.chunking import CHUNK_SIZE

            add("core.discarded_chunks", -(-len(kwargs["data"]) // CHUNK_SIZE))

        self.patch(container, "build_raw_container", "core.container_build",
                   raw_container)
        self.patch(container, "inspect_container", "core.container_inspect")
        self.patch(container, "checksum_of", "core.crc")

        from repro.core.chunking import CHUNK_RAW

        def encoded(args, kwargs, payloads):
            payloads = [payloads] if isinstance(payloads, bytes) else payloads
            add("core.encoded_chunks", len(payloads))
            add("core.discarded_chunks", sum(1 for p in payloads if p[0] == CHUNK_RAW))

        Pipeline = pipeline.Pipeline
        for attr in ("encode_chunk_batch", "encode_chunk"):
            self._patch(Pipeline, attr, self.count_calls(
                getattr(Pipeline, attr), encoded,
                "core.batch_rerun_blocks" if attr == "encode_chunk_batch" else None))
        self._patch(Pipeline, "decode_chunk_batch", self.count_calls(
            Pipeline.decode_chunk_batch, on_error="core.batch_rerun_blocks"))

        for cls in (executors.SerialExecutor, executors.ThreadedExecutor,
                    executors.StaticBlockExecutor):
            self._patch(cls, "run", self._traced_run(cls.__dict__["run"]))

        Client = client.ServiceClient
        for attr in ("submit", "submit_compress", "submit_decompress"):
            self.patch(Client, attr, "service.client.submit")
        self.patch(Client, "collect", "service.client.collect")
        self.patch(Client, "_read_frame", "service.client.wait")
        self.patch(Client, "compress_streamed", "service.client.stream")

    def _traced_run(self, run):
        """``Executor.run`` recording the run and one span per job.

        Jobs run on worker threads with no open span, so each job span
        names the run span as its parent explicitly.  A run nested in a
        run (a threaded executor falling back to the serial schedule)
        is not recorded twice.
        """
        tracer = self

        def traced_run(executor, n_jobs, make_worker):
            local = tracer._local
            if getattr(local, "in_run", False):
                return run(executor, n_jobs, make_worker)
            local.in_run = True
            try:
                with tracer.span("core.executor.run") as run_id:
                    def traced_make_worker(worker_id):
                        with tracer.span("core.executor.worker_setup", worker_id,
                                         run_id):
                            worker = make_worker(worker_id)

                        def job(i):
                            with tracer.span("core.executor.job", worker_id, run_id):
                                return worker(i)

                        return job

                    return run(executor, n_jobs, traced_make_worker)
            finally:
                local.in_run = False

        traced_run.__wrapped__ = run
        return traced_run

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._kernel_wrappers.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def analyse(self) -> "SpanAnalysis":
        return SpanAnalysis(self.spans)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, tag in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "tag": tag}))
                fh.write("\n")


class SpanAnalysis:
    """Self times, call counts and per-call attribution of a span set."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[1]].append(s)
        self.children = children
        self.self_s = {}
        for s in spans:
            kids = children.get(s[0], ())
            covered = covered_length([(k[3], k[4]) for k in kids], s[3], s[4])
            self.self_s[s[0]] = (s[4] - s[3]) - covered
        self._roots: dict = {}

    def root(self, span):
        """The outermost span above ``span`` (the API call it belongs to)."""
        path = []
        while True:
            found = self._roots.get(span[0])
            if found is not None:
                break
            parent = self.by_id.get(span[1])
            if parent is None:
                found = span
                break
            path.append(span[0])
            span = parent
        for sid in path:
            self._roots[sid] = found
        return found

    def totals(self) -> dict:
        """``name -> {"self_s", "total_s", "calls"}``; a span directly
        inside a span of the same name is not counted as another call."""
        out: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for s in self.spans:
            entry = out[s[2]]
            entry["self_s"] += self.self_s[s[0]]
            entry["total_s"] += s[4] - s[3]
            parent = self.by_id.get(s[1])
            if parent is None or parent[2] != s[2]:
                entry["calls"] += 1
        return dict(out)

    def within(self, name: str, root_prefix: str) -> float:
        """Total duration of ``name`` spans under roots named ``root_prefix*``."""
        return sum(s[4] - s[3] for s in self.spans
                   if s[2] == name and self.root(s)[2].startswith(root_prefix))

    def busy_imbalance(self) -> float:
        """Mean over multi-worker executor runs of max / mean worker busy."""
        ratios = []
        for s in self.spans:
            if s[2] != "core.executor.run":
                continue
            busy = defaultdict(float)
            for k in self.children.get(s[0], ()):
                if k[2] == "core.executor.job":
                    busy[k[5]] += k[4] - k[3]
            if len(busy) >= 2:
                mean = sum(busy.values()) / len(busy)
                ratios.append(max(busy.values()) / mean if mean > 0 else 1.0)
        return sum(ratios) / len(ratios) if ratios else 1.0

    def ledger(self) -> dict:
        """Per API call label: wall time and self time per layer group."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            root = self.root(s)
            if not root[2].startswith("call."):
                continue
            label = f"{root[2][5:]} {root[5]}"
            out[label][layer_group(s[2])] += self.self_s[s[0]]
            if s is root:
                out[label]["wall"] += s[4] - s[3]
                out[label]["calls"] += 1
        return {k: dict(v) for k, v in out.items()}


#: Reconciliation columns, in print order.
LEDGER_GROUPS = ("bitpack", "stages", "selection", "plan", "container",
                 "crc", "executor", "residual")


def layer_group(name: str) -> str:
    """The reconciliation column a span's self time is booked under."""
    head = name.split(".")[0]
    if head in ("bitpack", "stages", "selection"):
        return head
    if name in ("core.plan", "range.plan"):
        return "plan"
    if name in ("core.container_build", "core.container_inspect"):
        return "container"
    if name == "core.crc":
        return "crc"
    if name == "core.executor.run":
        return "executor"
    # API call bodies and executor job glue: work no layer span covers.
    return "residual"


def layer_metrics(tracer: Tracer, per: float, extra: dict) -> dict:
    """Every per-layer metric from a traced run, in catalog order.

    Times and counts are divided by ``per`` (traced passes, or thousands
    of traced requests on ``serve``); fractions and ratios are not.
    ``extra`` supplies what spans cannot: the chosen-codec shares, the
    service STATS deltas and the tracing overhead.  A layer the workload
    does not exercise reads 0.
    """
    analysis = tracer.analyse()
    totals = analysis.totals()
    counters = tracer.counters

    def field(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for k in KERNEL_NAMES:
        out[f"bitpack.{k}.self_s"] = field(f"bitpack.{k}", "self_s") / per
        out[f"bitpack.{k}.calls"] = field(f"bitpack.{k}", "calls") / per
        out[f"bitpack.{k}.bytes_computed"] = counters[f"bitpack.{k}.bytes_computed"] / per
    for s in STAGES:
        enc, dec = f"stages.{s}.encode", f"stages.{s}.decode"
        out[f"{enc}_self_s"] = field(enc, "self_s") / per
        out[f"{dec}_self_s"] = field(dec, "self_s") / per
        out[f"stages.{s}.calls"] = (field(enc, "calls") + field(dec, "calls")) / per
    out["selection.probe_s"] = field("selection.probe", "self_s") / per
    out["selection.chunks_probed"] = counters["selection.chunks_probed"] / per
    for codec in FIXED_CODECS:
        out[f"selection.chosen_frac.{codec}"] = extra.get("chosen_frac", {}).get(codec, 0.0)
    out["core.plan_s"] = field("core.plan", "self_s") / per
    out["core.container_build_s"] = field("core.container_build", "self_s") / per
    out["core.container_inspect_s"] = field("core.container_inspect", "self_s") / per
    out["core.crc_s"] = field("core.crc", "self_s") / per
    ledger = analysis.ledger()
    residual = sum(row.get("residual", 0.0) for row in ledger.values())
    wall = sum(row.get("wall", 0.0) for row in ledger.values())
    out["core.residual_s"] = residual / per
    out["core.residual_frac"] = ratio(residual, wall)
    out["core.raw_fallback_frac"] = ratio(counters["core.discarded_chunks"],
                                          counters["core.encoded_chunks"])
    out["core.batch_rerun_blocks"] = counters["core.batch_rerun_blocks"] / per
    out["core.executor.run_s"] = field("core.executor.run", "total_s") / per
    out["core.executor.overhead_s"] = field("core.executor.run", "self_s") / per
    out["core.executor.jobs"] = field("core.executor.job", "calls") / per
    out["core.executor.worker_busy_imbalance"] = analysis.busy_imbalance()
    out["range.plan_s"] = field("range.plan", "self_s") / per
    out["range.decode_s"] = analysis.within("core.executor.run", "call.range") / per
    out["range.chunks_per_read"] = ratio(counters["range.chunks"], counters["range.reads"])
    out["range.read_amplification"] = ratio(counters["range.decoded_bytes"],
                                            counters["range.returned_bytes"])
    out["service.client.submit_s"] = field("service.client.submit", "self_s") / per
    out["service.client.wait_s"] = field("service.client.wait", "total_s") / per
    out["service.client.collect_s"] = field("service.client.collect", "self_s") / per
    out["service.client.retries"] = extra.get("retries", 0) / per
    for name in ("service.server.request_s_sum", "service.server.busy_rejections",
                 "service.server.window_stalls", "service.server.streams",
                 "service.router.failovers", "service.router.sheds"):
        out[name] = extra.get(name, 0.0) / per
    for name in ("service.outside_codec_frac", "service.router.backend_share_max",
                 "service.router.stream_backend_share_max", "trace.overhead_frac"):
        out[name] = extra.get(name, 0.0)
    return {name: out[name] for name, _, _ in PER_LAYER}


def print_ledger(tracer: Tracer, overhead: dict, out) -> None:
    """The per-codec reconciliation: layer self times against call time."""
    ledger = tracer.analyse().ledger()
    head = f"{'call':<22}{'calls':>6}{'wall_s':>9}" + "".join(
        f"{g:>10}" for g in LEDGER_GROUPS) + f"{'resid%':>8}{'trace+%':>8}"
    print("reconciliation (self seconds per layer; columns sum to wall_s):", file=out)
    print(head, file=out)
    for label in sorted(ledger):
        row = ledger[label]
        wall = row["wall"]
        print(f"{label:<22}{int(row['calls']):>6}{wall:>9.3f}"
              + "".join(f"{row.get(g, 0.0):>10.4f}" for g in LEDGER_GROUPS)
              + f"{100 * row.get('residual', 0.0) / wall:>8.1f}"
              + f"{100 * overhead.get(label, 0.0):>8.1f}", file=out)
