"""gmshadow benchmark: one workload, end to end (--trace 0) or per layer
(--trace 1).

    python3 perfbench/run.py --workload rect_blowup --seed 0 --seconds 12 --trace 0

Run it from the root of a checkout; it imports gmshadow from ./src and
writes scratch artifacts under ./.bench_build.  It runs the workload's
runs one at a time, in this process, over and over while another pass fits
in --seconds (at least once), checks every output, and prints one JSON object as
its last line.  It exits 1 when any output is wrong, and 2 when there are
no gmshadow sources to benchmark.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("rect_blowup", "radial_spike", "full_rd", "shadow_step")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.steps": "count",
    "solver.samples": "count",
    "solver.dt_diffusion_cap_share": "share",
    "solver.self_s": "s",
    "solver.self_us_per_step": "us",
    "solver.step_calls": "count",
    "params.derive_indices_calls": "count",
    "mesh.grid_setup_calls": "count",
    "mesh.grid_setup_s": "s",
    "fft.dct_calls": "count",
    "fft.dct_s": "s",
    "evolution.calls": "count",
    "evolution.s": "s",
    "initdata.build_initial_s": "s",
    "analysis.detect_blowup_s": "s",
    "analysis.bernoulli_bound_s": "s",
    "mesh.write_field_csv_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_program():
    if not (SRC / "gmshadow" / "__init__.py").is_file():
        print(f"error: no gmshadow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gmshadow

    if Path(gmshadow.__file__).resolve().parent != SRC / "gmshadow":
        print(f"error: imported gmshadow from {gmshadow.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up seconds and peak RSS (MB) over fresh processes."""
    secs, rss = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        rec = json.loads(done.stdout.splitlines()[-1])
        secs.append(rec["setup_s"])
        rss.append(rec["peak_rss_mb"])
    return statistics.median(secs), statistics.median(rss)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    import_program()
    import workloads
    from tracer import Tracer

    print("machine " + json.dumps(machine(nproc)))
    if not args.trace:
        setup_s, peak_rss_mb = measure_setup(args.workload, args.seed)
    runs = workloads.build(args.workload, args.seed)
    if args.trace:
        # The set-up build again, under a tracer of its own so that its
        # calls stay out of the passes' layer totals.
        setup_tracer = Tracer()
        with setup_tracer:
            workloads.build(args.workload, args.seed)
    reference = workloads.load_reference()
    WORKDIR.mkdir(parents=True, exist_ok=True)

    attempted = failed = 0
    last_outcomes = None

    def one_pass(tracer=None) -> float:
        nonlocal attempted, failed, last_outcomes
        if tracer is not None:
            tracer.install()
        try:
            wall, outcomes = workloads.execute(args.workload, runs, WORKDIR)
        finally:
            if tracer is not None:
                tracer.restore()
        for run, out in zip(runs, outcomes):
            problems = workloads.check(run, out, args.seed, reference)
            attempted += 1
            failed += bool(problems)
            for problem in problems:
                print(f"FAIL {run.name}: {problem}")
        last_outcomes = outcomes
        return wall

    # Passes repeat while another one still fits in --seconds, so a run
    # lasts about --seconds, or one pass when a pass is longer than that.
    walls, traced_walls, tracers = [], [], []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        walls.append(one_pass())
        if args.trace:
            tracers.append(Tracer())
            traced_walls.append(one_pass(tracers[-1]))
        now = perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break

    print(f"workload={args.workload} seed={args.seed} passes={len(walls)} "
          f"runs_per_pass={len(runs)} pass_walls_s={[round(w, 4) for w in walls]}")
    for run, out in zip(runs, last_outcomes):
        line = f"  {run.name}: verdict={out.verdict and out.verdict.value} " \
               f"event_time_t={out.event_time_t!r}"
        counts = next((tracers[0].run_counts(r) for r in tracers[0].runs.values()
                       if r.config is run.config), None) if tracers else None
        if counts is not None:
            line += (f" steps={counts['steps']} samples={counts['samples']} "
                     f"diffusion_capped={counts['diffusion_capped']}/{counts['dt_records']}")
        print(line)

    wall_s = statistics.median(walls)
    if args.trace:
        layers = [t.layer_metrics() for t in tracers]
        values = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
        values["initdata.build_initial_s"] += setup_tracer.seconds["initdata.build_initial"]
        values["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        units = PER_LAYER_UNITS
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"failed_runs = {failed} of {attempted} runs attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
