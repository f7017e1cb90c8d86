"""Shared pieces of the benchmark: import guard, seeded inputs, statistics,
environment record, memory readings and set-up timing.

Nothing here measures a codec; the workload modules (``inproc``,
``serve``) drive the program and use these helpers to turn samples into
the reported metrics.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where results, spans and service logs are written (ignored by git).
OUT = Path(__file__).resolve().parent / "out"

#: Corpus scale of the paper-shaped workload (256 KiB per file).
CORPUS_SCALE = 1.0

MB = 1e6


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


class Checker:
    """Counts attempted and failed operations and keeps the first errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def import_repro():
    """Import the ``repro`` package from this checkout's ``src/`` only.

    An installed copy elsewhere must never be measured in its place, so
    the package is loaded from ``<root>/src`` or not at all.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SetupError(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def child_env() -> dict:
    """Environment for processes the benchmark starts: this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- seeded inputs -----------------------------------------------------------


def name_key(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")


def file_rng(seed: int, name: str):
    """The rng a corpus file is generated with: derived from (seed, name)."""
    import numpy as np

    return np.random.default_rng([seed, name_key(name)])


def corpus_files():
    """The 90 SP + 20 DP corpus files, in suite order."""
    from repro.datasets import dp_suite, sp_suite

    return [f for domain in sp_suite() + dp_suite() for f in domain.files]


def generate(dataset_file, seed: int, scale: float = CORPUS_SCALE):
    """Generate one corpus file's array from the benchmark seed."""
    grid = dataset_file.grid_at(scale)
    data = dataset_file.generator(file_rng(seed, dataset_file.name), grid)
    if data.dtype != dataset_file.dtype or data.shape != grid:
        raise SetupError(f"{dataset_file.name}: generator returned "
                         f"{data.dtype}{data.shape}, expected {grid}")
    return data


def generate_many(specs, seed: int) -> list:
    """Generate ``(file name, scale)`` inputs in a separate process.

    The generators' temporaries (FFT grids of large fields) then never
    count toward this process's peak resident set, which ``peak_rss_MB``
    reports for the program's own work.  The child writes the arrays to
    ``OUT/inputs-<pid>.npz``; they are read back and the file removed.
    """
    import numpy as np

    OUT.mkdir(exist_ok=True)
    path = OUT / f"inputs-{os.getpid()}.npz"
    request = json.dumps({"specs": [list(s) for s in specs], "seed": seed, "path": str(path)})
    try:
        subprocess.run([sys.executable, __file__, request], cwd=ROOT, env=child_env(),
                       check=True, timeout=300)
        with np.load(path) as data:
            return [data[f"a{i}"] for i in range(len(specs))]
    finally:
        path.unlink(missing_ok=True)


def _generate_to_file(request: dict) -> None:
    import numpy as np

    import_repro()
    files = {f.name: f for f in corpus_files()}
    arrays = [generate(files[name], request["seed"], scale)
              for name, scale in request["specs"]]
    np.savez(request["path"], **{f"a{i}": a for i, a in enumerate(arrays)})


def same_bytes(expected, actual) -> bool:
    """Byte-identical (bit patterns included), dtype and shape too."""
    if hasattr(expected, "dtype"):
        return (getattr(actual, "dtype", None) == expected.dtype
                and actual.shape == expected.shape
                and actual.tobytes() == expected.tobytes())
    return bytes(actual) == bytes(expected)


# -- statistics --------------------------------------------------------------


def tail_percentile(n_samples: int) -> float:
    """Highest percentile with at least 10 samples beyond it among ``n``."""
    if n_samples < 20:
        raise ValueError(f"need at least 20 samples for a tail, have {n_samples}")
    return 100.0 * (1.0 - 10.0 / n_samples)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` % at or below."""
    ordered = sorted(values)
    # The epsilon keeps q = 100 * (1 - 10/n) from rounding up past n - 10.
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def latency_summary(seconds: list[float], fixed_count: int) -> dict:
    """p50 and tail (ms) of ``seconds``; the tail percentile is fixed by
    ``fixed_count``, the sample count every run reaches."""
    if len(seconds) < fixed_count:
        raise ValueError(f"{len(seconds)} samples, fewer than the fixed {fixed_count}")
    q = tail_percentile(fixed_count)
    return {
        "p50_ms": percentile(seconds, 50.0) * 1e3,
        "tail_ms": percentile(seconds, q) * 1e3,
        "tail_percentile": q,
        "samples": len(seconds),
    }


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values) -> float:
    return statistics.median(values)


# -- environment and memory --------------------------------------------------


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment(working_set_bytes: int) -> dict:
    import numpy as np
    from repro.bitpack import backend

    caches = _cache_sizes()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backend.active_backend().describe(),
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "working_set_bytes": working_set_bytes,
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb(pid: int | None = None) -> float:
    """VmHWM (peak resident set) of ``pid`` (default: this process) in MB."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    raise SetupError(f"no VmHWM in {path}")


# -- machine speed -------------------------------------------------------------

#: Seconds the reference loop takes at the reference speed: roughly its
#: median on a 2-vCPU KVM guest (Python 3.11, numpy 2.4) in a steady stretch.
REF_PROBE_S = 0.005

_REF_ARRAY = None


def _reference_loop() -> None:
    """Fixed work of the kind the program does: numpy sorts, casts and
    reductions on a cache-resident array, and interpreted Python."""
    import numpy as np

    global _REF_ARRAY
    if _REF_ARRAY is None:
        _REF_ARRAY = np.random.default_rng(0).random(16384)
    a = _REF_ARRAY
    for _ in range(12):
        np.sort(a)
        words = (a * 3.1).astype(np.float32).view(np.uint32)
        int(np.bitwise_xor(words[1:], words[:-1]).sum())
        x = 0
        for i in range(3000):
            x += i * i


class Speed:
    """The machine's speed, sampled next to the work it is used to scale.

    The reference box (a 2-vCPU guest on a shared host) runs the same
    code up to ~1.9x slower for stretches of seconds, with no steal time
    reported; a whole run can sit in such a stretch.  So the benchmark
    times the fixed reference loop between pieces of work (never during
    them) and reports every time scaled to the reference speed:
    ``seconds * REF_PROBE_S / probe``, ``probe`` being the mean of the
    reference-loop times just before and just after the piece.  The
    program is measured as it ran; only the machine's current speed is
    divided out.  Callers print unscaled figures beside the scaled ones.
    """

    #: Seconds of work between two probes taken by ``tick``.
    EVERY_S = 0.25

    def __init__(self, all_cpus: bool = True) -> None:
        self.all_cpus = all_cpus
        self.times: list[float] = []   # end of each probe
        self.probes: list[float] = []  # its duration (mean over CPUs)
        _reference_loop()  # first call allocates; not a sample

    def probe(self) -> None:
        """Time the reference loop: on each CPU this process may use in
        turn (the two vCPUs of the reference box differ in speed, and
        work spread over both runs at their mean), or with ``all_cpus``
        false where this thread runs (single-threaded work)."""
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask) if self.all_cpus else [None]
        total = 0.0
        try:
            for cpu in cpus:
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                _reference_loop()
                total += time.perf_counter() - start
        finally:
            if self.all_cpus:
                os.sched_setaffinity(0, mask)
        self.times.append(time.perf_counter())
        self.probes.append(total / len(cpus))

    def tick(self) -> None:
        """Probe if the last probe is more than EVERY_S seconds old."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """REF_PROBE_S over the mean probe just before ``start`` and just
        after ``end`` (the nearest one when a side has none)."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.probes[i] for i in (before, after) if 0 <= i < len(self.probes)]
        if not near:
            raise ValueError("no speed probe taken yet")
        return REF_PROBE_S / (sum(near) / len(near))

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of work begun at ``start``, at the reference speed."""
        return seconds * self.factor(start, start + seconds)


# -- set-up time ---------------------------------------------------------------

#: Child start-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def setup_seconds(workload: str) -> float:
    """``setup_s`` of an in-process workload: the median child set-up."""
    speed = Speed()
    return median(time_child_setup(workload, speed) for _ in range(SETUP_REPEATS))


def time_child_setup(workload: str, speed: Speed, timeout: float = 60.0) -> float:
    """Seconds from spawning a fresh interpreter to its "ready" line, at
    the reference speed (``speed`` probes before and after).

    The child (``setup_probe.py``) imports the package, resolves the
    kernel backend and makes the workload's first calls, then reports
    ready; input generation is not part of it.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    speed.probe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(probe), workload], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SetupError(f"set-up probe for {workload} failed: {err.strip()[-400:]}")
    speed.probe()
    return speed.scale(start, elapsed)


if __name__ == "__main__":
    # ``python3 harness.py <request JSON>``: the input generator child.
    _generate_to_file(json.loads(sys.argv[1]))
