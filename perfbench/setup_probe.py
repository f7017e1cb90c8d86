"""Set-up probe: a fresh interpreter made ready for one workload.

Run as ``python3 perfbench/setup_probe.py <workload>``.  It imports the
package, resolves the kernel backend and makes the workload's first
calls (the warm-up every process pays once), then prints ``ready``.
``harness.time_child_setup`` times it from spawn to that line.
"""

from __future__ import annotations

import sys

import harness


def warm_up(repro, workload: str) -> None:
    """First calls of ``workload``: one round trip per codec it runs."""
    import numpy as np
    from repro.bitpack import backend

    backend.active_backend()
    # Two chunks per array, so the batched stage kernels run too.
    ramp = np.sin(np.linspace(0.0, 60.0, 8192))
    arrays = (ramp.astype(np.float32), ramp.astype(np.float64))
    if workload == "corpus":
        for array, codecs in zip(arrays, (("spspeed", "spratio", "auto"),
                                          ("dpspeed", "dpratio", "auto"))):
            for codec in codecs:
                blob = repro.compress(array, codec=codec, executor="serial")
                repro.decompress(blob, executor="serial")
    elif workload == "archive":
        workers = harness.nproc()
        for array, codecs in zip(arrays, (("spspeed", "spratio"),
                                          ("dpspeed", "dpratio"))):
            for codec in codecs:
                blob = repro.compress(array, codec=codec, executor="threaded",
                                      workers=workers, fcm="restart")
                repro.decompress(blob, executor="threaded", workers=workers)
                repro.decompress_range(blob, 100, 5000)
    else:
        raise SystemExit(f"no set-up probe for workload {workload!r}")


def main() -> int:
    repro = harness.import_repro()
    warm_up(repro, sys.argv[1])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
