"""Set-up probe, run in a fresh process by run.py.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports gmshadow, builds the workload's configs and initial data, and
prints one JSON line: the seconds this took and the process's peak RSS.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - T0
print(json.dumps({
    "setup_s": elapsed,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
