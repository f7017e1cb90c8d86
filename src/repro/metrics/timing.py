"""Wall-clock throughput measurement (the *measured* numbers).

The paper times the median of five identical runs and excludes I/O
(§4).  These helpers do the same for the Python implementations; the
resulting numbers quantify this reproduction's own speed and are
reported alongside — never mixed with — the device-model throughputs.

The second half of this module aggregates the engine's block traces
(:class:`~repro.core.trace.BatchTrace`: stage timings, stage output
sizes) and chunk traces (sizes, raw-fallback counts) into summaries —
the consistent measurement plumbing a credible cross-codec comparison
needs.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.trace import BatchTrace, TraceCollector

#: Number of identical runs whose median is reported (paper §4: five).
DEFAULT_RUNS = 5


def measure_throughput(
    fn: Callable[[], object],
    data_len: int,
    *,
    runs: int = DEFAULT_RUNS,
) -> float:
    """Median-of-``runs`` throughput of ``fn`` in bytes per second."""
    if runs < 1:
        raise ValueError("need at least one run")
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    median = statistics.median(times)
    if median <= 0:
        median = 1e-9
    return data_len / median


@dataclass(frozen=True)
class StageTotals:
    """One stage's aggregate over all chunks of an engine run."""

    stage: str
    calls: int
    seconds: float
    out_bytes: int


def stage_totals(batches: Iterable[BatchTrace]) -> list[StageTotals]:
    """Aggregate the blocks' stage events per stage, in execution order.

    One block stage event counts as the block's ``n_chunks`` calls, so
    ``calls`` counts chunks whatever the block sizes.
    """
    order: list[str] = []
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    out_bytes: dict[str, int] = {}
    for batch in batches:
        for event in batch.stages:
            if event.stage not in calls:
                order.append(event.stage)
                calls[event.stage] = 0
                seconds[event.stage] = 0.0
                out_bytes[event.stage] = 0
            calls[event.stage] += batch.n_chunks
            seconds[event.stage] += event.seconds
            out_bytes[event.stage] += event.out_bytes
    return [
        StageTotals(name, calls[name], seconds[name], out_bytes[name])
        for name in order
    ]


@dataclass(frozen=True)
class TraceSummary:
    """One engine run, aggregated from its block and chunk traces."""

    direction: str
    policy: str
    workers: int
    n_chunks: int
    n_blocks: int
    raw_chunks: int
    input_bytes: int
    payload_bytes: int
    #: summed busy time across blocks (not wall clock: workers overlap).
    block_seconds: float
    stages: tuple[StageTotals, ...]

    def render(self) -> str:
        lines = [
            f"{self.direction} [{self.policy}, {self.workers} worker(s)]: "
            f"{self.n_chunks} chunks in {self.n_blocks} block(s), "
            f"{self.raw_chunks} raw fallback(s), "
            f"{self.input_bytes} -> {self.payload_bytes} payload bytes"
        ]
        for st in self.stages:
            lines.append(
                f"  {st.stage:<8} {st.seconds * 1e3:>9.3f} ms "
                f"{st.out_bytes:>12} B out  ({st.calls} chunks)"
            )
        return "\n".join(lines)


def summarize_trace(collector: TraceCollector) -> TraceSummary:
    """Fold a collector's traces into one :class:`TraceSummary`."""
    chunks = collector.chunks
    batches = collector.batches
    return TraceSummary(
        direction=collector.direction or "?",
        policy=collector.policy or "?",
        workers=collector.workers or 1,
        n_chunks=len(chunks),
        n_blocks=len(batches),
        raw_chunks=collector.raw_chunks,
        input_bytes=sum(t.original_len for t in chunks),
        payload_bytes=sum(t.payload_len for t in chunks),
        block_seconds=sum(b.seconds for b in batches),
        stages=tuple(stage_totals(batches)),
    )
