"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads: ``corpus`` and ``archive`` (in process, see ``inproc.py``)
and ``serve`` (router plus two servers over loopback, see ``serve.py``).
The inputs are generated from ``--seed``; every output is checked.

Human-readable lines (environment, every metric with its unit, error
rate, and with ``--trace 1`` the per-layer table and the per-codec
reconciliation) go to standard output first.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  Spans of
a traced run and every result with its environment are written under
``perfbench/out/``.  The exit code is 0 only when every output was
correct; a checkout without the program exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import harness
import tracing

#: ``(name, unit)`` of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("compress_MBps", "MB/s"),
    ("decompress_MBps", "MB/s"),
    ("ratio_geomean", "x"),
    ("requests_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_tail", "ms"),
    ("peak_rss_MB", "MB"),
)
WORKLOADS = ("corpus", "archive", "serve")
OUT = harness.OUT


def run_workload(repro, name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "serve":
        import serve

        return serve.serve(repro, seed, seconds, trace)
    import inproc

    return getattr(inproc, name)(repro, seed, seconds, trace)


def report(name: str, args, result: dict) -> dict:
    """Print the human-readable lines; return the result-line object."""
    check = result["check"]
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment: " + json.dumps(result["env"], sort_keys=True)
          + "  (bytes are computed from array sizes, not measured)")
    units = dict(END_TO_END)
    for metric, value in result["end_to_end"].items():
        print(f"  {metric:<34} {value:>14.6g} {units[metric]}")
    for key, value in result["detail"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<34} {shown:>14}")
    error_rate = check.failed / check.attempted if check.attempted else 1.0
    print(f"  {'error_rate':<34} {error_rate:>14.6g} failed/attempted "
          f"({check.failed}/{check.attempted})")
    for message in check.errors:
        print(f"  error: {message}")
    if args.trace:
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        print("per-layer metrics (traced passes):")
        for metric, value in result["per_layer"].items():
            print(f"  {metric:<44} {value:>14.6g} {units[metric]}")
        if "call_overhead" in result:
            tracing.print_ledger(result["tracer"], result["call_overhead"], sys.stdout)
        OUT.mkdir(exist_ok=True)
        result["tracer"].dump(OUT / f"spans-{name}.jsonl")
        metrics = {n: {"value": result["per_layer"][n], "unit": u}
                   for n, u, _ in tracing.PER_LAYER}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": u} for n, u in END_TO_END}
    line = {"correct": check.failed == 0, "attempted": check.attempted,
            "failed": check.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": result["env"], "detail": result["detail"],
              "end_to_end": result["end_to_end"], "result": line}
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        repro = harness.import_repro()
    except (harness.SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_workload(repro, args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(args.workload, args, result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
