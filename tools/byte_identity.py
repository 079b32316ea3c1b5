"""Byte-identity gate: every preset and every sigma-clock config, run from
two checkouts, must write the same bytes.

    python3 tools/byte_identity.py PARENT_CHECKOUT CHANGE_CHECKOUT

For each checkout it runs all six presets, and then the sigma-clock
configs beside this file (tools/sigma_*.ini, one run each: NONLOCAL_SIGMA
and SHADOW_TAU on 49x49 under exp_decay, and a NONLOCAL_SIGMA exp_growth
run that stops just short of its horizon), with `python -m gmshadow.cli
run` from that checkout's src.  Every preset runs on the t clock, so
without the configs the gate would never run the sigma-clock coefficients.
The CLI runs advance() alone, so each config is also driven through the
public step() loop, from RunState.initial to its verdict, in a child
process on that checkout's src (STEP_DIGEST); it writes
step/<config>.txt into the tree, one line per step() call: the sha256 of
u's bytes, the clock, dt_last and the verdict (None until the last call).
Each checkout runs them twice: pooled (the runs of a preset in worker
processes, one per usable CPU) and pinned to one CPU, where they run one
after another in one process.  The pin is the child's own affinity, set
with os.sched_setaffinity to the first CPU this process may use.  The
three other trees are then compared with the parent's pooled tree byte for
byte: every file, each config.ini, series.csv, report.txt, snapshot and
summary.txt.  The change's one-CPU tree is also compared with its own pooled tree, so a
change that shifts bytes on purpose is still checked for agreeing with
itself.  It prints one line per comparison and exits 0 when all are
identical, and 1, naming each differing or missing file, otherwise; under
each differing report.txt it prints the `key = value` lines that changed.
A preset or config whose command fails is an error, exit 2, with the
command's stderr: any exit status other than 0, except 1 from a command
that printed a `verdict=NonFinite` line (an uncaught exception also exits
1, so the status alone does not tell a NonFinite run from a crash).

The trees go to a temporary directory, removed at the end; README's loop
keeps them for a closer look.  Stdlib only; needs os.sched_setaffinity
(Linux).
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PRESETS = ("exp1", "exp1q", "exp2a", "exp2b", "exp3", "exp4")
CONFIGS = tuple(Path(__file__).resolve().with_name(f"sigma_{name}.ini")
                for name in ("nonlocal", "shadow_tau", "growth_horizon"))
# run as `python -c STEP_DIGEST CONFIG OUT` on a checkout's src
STEP_DIGEST = """
import hashlib, sys
from gmshadow import RunState, step
from gmshadow.cli import parse_config
cfg = parse_config(sys.argv[1])
state = RunState.initial(cfg)
with open(sys.argv[2], "w") as out:
    while state.verdict is None:
        step(cfg, state)
        verdict = state.verdict and state.verdict.value
        out.write(f"{hashlib.sha256(state.u.tobytes()).hexdigest()} "
                  f"{state.clock!r} {state.dt_last!r} {verdict}\\n")
"""


def run_presets(checkout: Path, outdir: Path, cpu: int | None) -> None:
    """Every preset and config from checkout's src into outdir, and every
    config's step() digest into outdir/step; on CPU `cpu` alone when it is
    given, pooled otherwise."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    (outdir / "step").mkdir(parents=True)
    commands = [(target, ["-m", "gmshadow.cli", "run", target, "--outdir", str(outdir)])
                for target in (*PRESETS, *map(str, CONFIGS))]
    commands += [(f"step() on {config}", ["-c", STEP_DIGEST, str(config),
                                           str(outdir / "step" / f"{config.stem}.txt")])
                 for config in CONFIGS]
    for target, args in commands:
        proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                              preexec_fn=pin, capture_output=True, text=True)
        nonfinite = proc.returncode == 1 and "verdict=NonFinite" in proc.stdout
        if proc.returncode != 0 and not nonfinite:
            print(f"{checkout}: {target} failed with exit status "
                  f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
            sys.exit(2)


def files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def report_values(path: Path) -> dict[str, str]:
    """A report.txt's `key = value` lines, by "[section] key" (no section
    before the first header); the config echo's `#` lines are skipped."""
    section, values = "", {}
    for line in path.read_text().splitlines():
        if line.startswith("["):
            section = f"{line} "
        elif "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            values[section + key.strip()] = value.strip()
    return values


def report_changes(ref: Path, other: Path) -> list[str]:
    """`key: old -> new` for each key whose value differs between two
    report.txt files (None where a file lacks the key)."""
    a, b = report_values(ref), report_values(other)
    return [f"{key}: {a.get(key)} -> {b.get(key)}" for key in sorted(a.keys() | b.keys())
            if a.get(key) != b.get(key)]


def differences(ref: Path, other: Path) -> list[str]:
    """The files that differ between the trees or are in one alone, with
    the changed values of each differing report.txt."""
    a, b = files(ref), files(other)
    out = [f"only in {ref.name}: {p}" for p in sorted(a - b)]
    out += [f"only in {other.name}: {p}" for p in sorted(b - a)]
    for p in sorted(a & b):
        if not filecmp.cmp(ref / p, other / p, shallow=False):
            out.append(f"differs: {p}")
            if p.name == "report.txt":
                out += [f"  {line}" for line in report_changes(ref / p, other / p)]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "gmshadow").is_dir():
            ap.error(f"{checkout} has no src/gmshadow")
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        trees = {}
        for label, checkout in (("parent", args.parent), ("change", args.change)):
            for mode, pin in (("pooled", None), ("1cpu", cpu)):
                tree = Path(tmp) / f"{label}_{mode}"
                start = time.perf_counter()
                run_presets(checkout.resolve(), tree, pin)
                trees[tree.name] = tree
                print(f"{tree.name}: {len(files(tree))} files in "
                      f"{time.perf_counter() - start:.1f} s")
        pairs = [("parent_pooled", name) for name in trees if name != "parent_pooled"]
        pairs.append(("change_pooled", "change_1cpu"))
        bad = False
        for ref, name in pairs:
            diff = differences(trees[ref], trees[name])
            if diff:
                bad = True
                print(f"{name} differs from {ref}:")
                print("\n".join(f"  {line}" for line in diff))
            else:
                print(f"{name} identical to {ref} ({len(files(trees[ref]))} files)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
