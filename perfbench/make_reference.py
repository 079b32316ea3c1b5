"""Measure the seed-0 reference event times that run.py checks against.

    python3 perfbench/make_reference.py

Runs every workload at seed 0 twice, as configured and with the effective
step halved (dt_safety=0.5), and writes each blow-up run's event time and
the distance between the two as its uncertainty to reference.json.  Takes
about three minutes on two cores.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    workdir = Path(__file__).resolve().parent.parent / ".bench_build" / "perfbench"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in workloads.WORKLOADS:
        runs = workloads.build(workload, 0)
        halved = [replace(r, config=replace(r.config, dt_safety=0.5)) for r in runs]
        _, full = workloads.execute(workload, runs, workdir)
        _, half = workloads.execute(workload, halved, workdir)
        for run, a, b in zip(runs, full, half):
            if a.problems or b.problems:
                raise SystemExit(f"{run.name}: {a.problems + b.problems}")
            if a.event_time_t is None:
                continue
            reference[run.name] = {
                "event_time_t": a.event_time_t,
                "halved_event_time_t": b.event_time_t,
                "uncertainty": abs(b.event_time_t - a.event_time_t),
            }
            print(run.name, reference[run.name], flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
