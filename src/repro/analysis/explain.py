"""Per-stage size waterfalls and codec recommendation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.codecs import Codec, get_codec
from repro.core.compressor import compress_bytes
from repro.core.trace import TraceCollector
from repro.errors import UnsupportedDtypeError
from repro.metrics.timing import stage_totals


@dataclass(frozen=True)
class StageBreakdown:
    """How many bytes each stage of a codec leaves behind on given data."""

    codec: str
    original: int
    #: (stage name, bytes after the stage), in pipeline order; the global
    #: stage (FCM) appears first when the codec has one.
    waterfall: tuple[tuple[str, int], ...]
    compressed: int
    #: chunk counts from the traced engine run behind the waterfall.
    chunks: int = 0
    raw_chunks: int = 0

    @property
    def ratio(self) -> float:
        return self.original / self.compressed if self.compressed else 0.0

    def render(self) -> str:
        lines = [f"{self.codec}: {self.original} B original"]
        for name, size in self.waterfall:
            pct = 100.0 * size / self.original if self.original else 0.0
            lines.append(f"  after {name:<8} {size:>10} B  ({pct:6.1f}%)")
        lines.append(f"  container   {self.compressed:>10} B  "
                     f"(ratio {self.ratio:.3f})")
        if self.chunks:
            lines.append(f"  chunks      {self.chunks:>10}   "
                         f"({self.raw_chunks} stored raw)")
        return "\n".join(lines)


def explain(data: np.ndarray | bytes, codec: str) -> StageBreakdown:
    """Compress once with tracing and report the size waterfall.

    The waterfall shows where a codec earns (or wastes) its bytes: e.g.
    DPratio's FCM stage *doubles* the data before the later stages win it
    back — exactly the behaviour paper §3.2 describes.  The numbers come
    from one real traced engine run (not a re-simulation): the global
    stage's output size, then each chunked stage's output summed over the
    block :class:`~repro.core.trace.BatchTrace` records.
    """
    chosen: Codec = get_codec(codec)
    if isinstance(data, np.ndarray):
        raw = np.ascontiguousarray(data).tobytes()
    else:
        raw = bytes(data)
    collector = TraceCollector()
    blob = compress_bytes(raw, chosen, trace=collector)
    waterfall: list[tuple[str, int]] = []
    if collector.global_stage is not None:
        event = collector.global_stage
        waterfall.append((event.stage, event.out_bytes))
    for totals in stage_totals(collector.batches):
        waterfall.append((totals.stage, totals.out_bytes))
    return StageBreakdown(
        codec=chosen.name,
        original=len(raw),
        waterfall=tuple(waterfall),
        compressed=len(blob),
        chunks=collector.n_chunks,
        raw_chunks=collector.raw_chunks,
    )


def recommend(data: np.ndarray, *, probe: bool = False) -> tuple[str, str]:
    """Suggest a codec and explain why, from measured statistics.

    With ``probe=True`` the recommendation is additionally backed by one
    traced compression of the suggested codec, and the reason cites the
    run's real per-chunk numbers (chunk count, raw fallbacks, ratio).
    """
    from repro.analysis.diagnostics import repeat_profile, smoothness

    data = np.asarray(data)
    if data.dtype == np.float32:
        speed, ratio = "spspeed", "spratio"
    elif data.dtype == np.float64:
        speed, ratio = "dpspeed", "dpratio"
    else:
        raise UnsupportedDtypeError(f"no codec family for dtype {data.dtype}")
    repeats = repeat_profile(data)
    smooth = smoothness(data)
    if data.dtype == np.float64 and repeats.favors_fcm:
        choice, reason = ratio, (
            f"{repeats.far_repeat_fraction:.0%} of values repeat beyond the "
            "LZ window — DPratio's FCM stage is built for exactly this."
        )
    elif smooth.is_smooth:
        choice, reason = ratio, (
            f"{smooth.small_diff_fraction:.0%} of differences are small — "
            "the ratio-mode pipeline will compress well."
        )
    else:
        choice, reason = speed, (
            "differences are large (mean "
            f"{smooth.mean_diff_bits:.1f} significant bits): extra ratio-mode "
            "stages would buy little, take the fast path."
        )
    if probe:
        breakdown = explain(data, choice)
        reason += (
            f" A traced probe run confirms it: {breakdown.chunks} chunks, "
            f"{breakdown.raw_chunks} stored raw, ratio {breakdown.ratio:.2f}."
        )
    return choice, reason
