"""Alternating parent/change pairs of one benchmark workload, end to end.

    python3 tools/ab_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W \
        [--pairs N] [--seed S] [--seconds X]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds X
--trace 0` once in each checkout, from that checkout's root, one after the
other; the side that goes first alternates from pair to pair (the parent
in the first), so a drift in host speed falls on both sides alike.  Every
run reads its own checkout's src and perfbench.  Each run's last stdout
line is perfbench's JSON record.

It prints one line per pair as it finishes, then, for each end-to-end
metric (every one is better lower): each side's median and interquartile
range over the pairs, the change/parent median ratio, and the pairs the
change won (its value strictly lower).  It exits 1 when any run reports
`correct: false` or failed runs, and 2 when a run prints no JSON record.

Stdlib only; it imports neither gmshadow nor perfbench.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def record(stdout: str) -> dict:
    """perfbench's JSON record: the last line of a run's stdout.  Raises
    ValueError when that line is not a JSON object with metrics."""
    lines = stdout.strip().splitlines()
    rec = json.loads(lines[-1]) if lines else None
    if not isinstance(rec, dict) or "metrics" not in rec:
        raise ValueError("no perfbench JSON record on the last line")
    return rec


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (inclusive method); both the value
    itself for one value."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(pairs: list[dict[str, dict]]) -> tuple[list[str], bool]:
    """The summary lines of `pairs`, each {"parent": record, "change":
    record}, and whether every run was correct with no failed runs."""
    names = list(pairs[0]["parent"]["metrics"])
    lines = [f"{'metric':<12} {'parent median':>14} {'IQR':>10} {'change median':>14} "
             f"{'IQR':>10} {'ratio':>7}  change won"]
    for name in names:
        unit = pairs[0]["parent"]["metrics"][name]["unit"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        cells = []
        for side in SIDES:
            q1, q3 = quartiles(values[side])
            cells += [f"{statistics.median(values[side]):>12.4g} {unit:<2}", f"{q3 - q1:>10.3g}"]
        ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
        won = sum(c < p for p, c in zip(values["parent"], values["change"]))
        lines.append(f"{name:<12} {cells[0]} {cells[1]} {cells[2]} {cells[3]} "
                     f"{ratio:>7.3f}  {won}/{len(pairs)}")
    ok = True
    for side in SIDES:
        runs = [p[side] for p in pairs]
        failed = sum(r["failed"] for r in runs)
        incorrect = sum(not r["correct"] for r in runs)
        ok = ok and failed == 0 and incorrect == 0
        lines.append(f"{side}: {failed} failed of {sum(r['attempted'] for r in runs)} "
                     f"runs attempted; {incorrect} of {len(runs)} runs not correct")
    return lines, ok


def run_side(checkout: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    try:
        return record(proc.stdout)
    except ValueError as e:
        print(f"{checkout}: {e} (exit status {proc.returncode})\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            ap.error(f"{checkout} has no perfbench/run.py")
    print(f"workload={args.workload} pairs={args.pairs} seed={args.seed} "
          f"seconds={args.seconds}")
    pairs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {side: run_side(checkouts[side], args) for side in order}
        pairs.append(pair)
        values = " ".join(f"{side}={pair[side]['metrics']['wall_s']['value']:.4g}"
                          for side in SIDES)
        print(f"pair {k + 1} ({order[0]} first): wall_s {values}", flush=True)
    lines, ok = summary(pairs)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
