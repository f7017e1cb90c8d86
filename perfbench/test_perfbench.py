"""The benchmark's own tests: seeded inputs, span arithmetic, percentiles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

repro = harness.import_repro()


# -- seeded inputs -------------------------------------------------------------


def test_same_seed_same_bytes_other_seed_other_bytes():
    for f in harness.corpus_files():
        a = harness.generate(f, 7, scale=0.25)
        b = harness.generate(f, 7, scale=0.25)
        c = harness.generate(f, 8, scale=0.25)
        assert a.tobytes() == b.tobytes(), f.name
        assert a.tobytes() != c.tobytes(), f.name


def test_rng_depends_on_file_name():
    a = harness.file_rng(3, "CESM-ATM/T010").random(4)
    b = harness.file_rng(3, "CESM-ATM/PS").random(4)
    assert not np.array_equal(a, b)


def test_corpus_shape():
    files = harness.corpus_files()
    assert sum(f.dtype == np.float32 for f in files) == 90
    assert sum(f.dtype == np.float64 for f in files) == 20


def test_range_plan_reads_the_same_sizes_from_every_item_on_every_seed():
    items = [inproc.Item(f"i{k}", np.zeros(1 << 18, dtype=dt), "c")
             for k, dt in enumerate((np.float32, np.float64, np.float32))]

    def sizes(plan):
        return {item.label: sorted(n * item.array.itemsize for it, _, n in plan if it is item)
                for item in items}

    a = inproc.range_plan(items, np.random.default_rng(1), 60)
    b = inproc.range_plan(items, np.random.default_rng(2), 60)
    assert len(a) == 60 and sizes(a) == sizes(b)
    per_item = list(sizes(a).values())
    assert per_item[0] == per_item[2]  # the two float32 items
    assert all(abs(x - y) < 8 for x, y in zip(per_item[0], per_item[1]))
    assert [(it.label, s, n) for it, s, n in a] != [(it.label, s, n) for it, s, n in b]
    for item, start, n in a:
        assert 0 <= start and start + n <= item.array.size
        assert inproc.RANGE_MIN_BYTES // 2 <= n * item.array.itemsize <= inproc.RANGE_MAX_BYTES


# -- percentiles ------------------------------------------------------------------


@pytest.mark.parametrize("n", [20, 100, 800, 1000, 1320, 1500, 2640])
def test_tail_has_exactly_ten_samples_beyond_at_the_fixed_count(n):
    values = list(range(1, n + 1))
    q = harness.tail_percentile(n)
    tail = harness.percentile(values, q)
    assert sum(v > tail for v in values) == 10


def test_tail_keeps_at_least_ten_beyond_with_more_samples():
    q = harness.tail_percentile(1000)
    values = list(range(1, 1301))
    assert sum(v > harness.percentile(values, q) for v in values) >= 10


def test_latency_summary_needs_the_fixed_count():
    with pytest.raises(ValueError):
        harness.latency_summary([0.001] * 99, 100)
    summary = harness.latency_summary([i / 1000 for i in range(1, 101)], 100)
    assert summary["p50_ms"] == pytest.approx(50.0)
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["tail_percentile"] == pytest.approx(90.0)


def test_nearest_rank_median():
    assert harness.percentile([5, 1, 3], 50.0) == 3
    assert harness.percentile([1, 2, 3, 4], 50.0) == 2


# -- speed scaling ------------------------------------------------------------------


def test_speed_scales_by_the_probes_on_either_side():
    speed = harness.Speed()
    ref = harness.REF_PROBE_S
    speed.times, speed.probes = [1.0, 2.0, 3.0], [ref, 2 * ref, 4 * ref]
    # Work between the probes at 1 s and 2 s: mean probe 1.5 * ref.
    assert speed.scale(1.2, 0.3) == pytest.approx(0.3 / 1.5)
    # Work spanning the probe at 2 s is bracketed by those at 1 s and 3 s.
    assert speed.factor(1.5, 2.5) == pytest.approx(1 / 2.5)
    # Before the first or after the last probe: the nearest one alone.
    assert speed.factor(0.0, 0.5) == pytest.approx(1.0)
    assert speed.factor(3.5, 3.6) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        harness.Speed().factor(0.0, 1.0)


def test_speed_tick_probes_at_most_every_interval():
    speed = harness.Speed()
    speed.EVERY_S = 60.0
    speed.tick()
    speed.tick()
    assert len(speed.probes) == 1
    speed.probe()
    assert len(speed.probes) == 2 and speed.times == sorted(speed.times)


# -- span arithmetic ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "call.compress", 0.0, 10.0, "x"),
        (2, 1, "stages.mplg.encode", 1.0, 3.0, None),
        (3, 1, "stages.mplg.encode", 2.0, 5.0, None),  # overlaps span 2
        (4, 1, "core.crc", 8.0, 9.0, None),
        (5, 2, "bitpack.pack_lanes", 1.5, 2.0, None),
    ]
    analysis = tracing.SpanAnalysis(spans)
    assert analysis.self_s[1] == pytest.approx(5.0)
    assert analysis.self_s[2] == pytest.approx(1.5)
    assert analysis.self_s[5] == pytest.approx(0.5)
    ledger = analysis.ledger()["compress x"]
    assert ledger["wall"] == pytest.approx(10.0)
    parts = sum(ledger.get(g, 0.0) for g in tracing.LEDGER_GROUPS)
    # Overlapping siblings count twice in their own self times, once in
    # the parent's coverage.
    assert parts == pytest.approx(10.0 + 1.0)


def test_nested_same_name_spans_are_one_call():
    spans = [
        (1, None, "stages.fcm.encode", 0.0, 4.0, None),
        (2, 1, "stages.fcm.encode", 1.0, 2.0, None),
        (3, None, "stages.fcm.encode", 5.0, 6.0, None),
    ]
    totals = tracing.SpanAnalysis(spans).totals()["stages.fcm.encode"]
    assert totals["calls"] == 2
    assert totals["self_s"] == pytest.approx(5.0)
    assert totals["total_s"] == pytest.approx(6.0)


def test_covered_length_clips_to_the_parent():
    assert tracing.covered_length([(-1.0, 1.0), (0.5, 2.0), (3.0, 9.0)], 0.0, 4.0) == \
        pytest.approx(3.0)


# -- the tracer on the real program -----------------------------------------------


def test_traced_calls_reconcile_and_unpatch():
    from repro.bitpack import backend
    from repro.core import compressor, executors

    originals = (backend.kernel, compressor.plan_encode,
                 executors.ThreadedExecutor.__dict__["run"])
    array = np.cumsum(np.random.default_rng(0).normal(size=40_000)).astype(np.float32)
    plain = repro.compress(array, codec="spspeed")
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("call.compress", "spspeed"):
            blob = repro.compress(array, codec="spspeed", executor="threaded", workers=2)
        with tracer.span("call.decompress", "spspeed"):
            out = repro.decompress(blob)
    assert blob == plain
    assert out.tobytes() == array.tobytes()
    assert (backend.kernel, compressor.plan_encode,
            executors.ThreadedExecutor.__dict__["run"]) == originals
    totals = tracer.analyse().totals()
    assert totals["bitpack.pack_lanes"]["calls"] > 0
    assert totals["stages.mplg.encode"]["calls"] > 0
    assert totals["core.executor.job"]["calls"] >= 2
    ledger = tracer.analyse().ledger()["decompress spspeed"]  # serial: no overlap
    parts = sum(ledger.get(g, 0.0) for g in tracing.LEDGER_GROUPS)
    assert parts == pytest.approx(ledger["wall"], rel=1e-9)
    metrics = tracing.layer_metrics(tracer, 1.0, {})
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]


# -- the declared metrics -------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_kernel_names_match_the_registry():
    from repro.bitpack import backend

    assert tracing.KERNEL_NAMES == backend.KERNEL_NAMES
