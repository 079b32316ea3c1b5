"""The benchmark's workloads: seeded inputs, the drivers that run them, and
the checks on what the program returns.

Seed 0 gives the presets' own configs.  Any other seed scales each run's
initial amplitude (cosine `c`, spike `lambda`) by its own factor drawn from
[0.99, 1.01].  The program only ever sees the generated configs.

The drivers, and `build` for the initial data, call the program through
module attributes (`gmshadow.advance`, `gmshadow.step`, `gmshadow.RunState`,
`gmshadow.build_initial`, `cli.run_preset`), so a traced run sees the
tracer's wrappers; the checks use names bound at import, so the benchmark's
own calls are never traced.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import gmshadow
from gmshadow import (
    EvolutionLaw,
    Field,
    InitKind,
    InitSpec,
    Parameters,
    RectGrid,
    RunConfig,
    SystemKind,
    Verdict,
    bernoulli_bound,
    derive_indices,
    dissipation_coeff,
    mean,
    phi_squared,
    t_of_sigma,
)
from gmshadow import cli

WORKLOADS = ("rect_blowup", "radial_spike", "full_rd", "shadow_step")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# exp3/exp_decay's preset horizon t=0.3 takes ~323k steps (~30 s); t=0.04
# keeps it a diffusion-capped horizon run on tiny arrays at an eighth of
# the cost, so a whole radial_spike pass fits a benchmark run.
EXP3_DECAY_END_TIME = 0.04
# Allowed excess of a detected blow-up sigma over the closed-form bound.
BOUND_SLACK = 0.02
RUN_ARTIFACTS = ("config.ini", "series.csv", "report.txt", "snapshot_final.csv")


@dataclass
class Run:
    """One run of a workload, with the inputs the checks need."""

    name: str
    config: RunConfig
    expected: Verdict
    u0: Field
    closed_form: bool = False
    aux0: float | None = None


@dataclass
class Outcome:
    verdict: Verdict | None = None
    event_time_t: float | None = None
    event_time_sigma: float | None = None
    problems: list[str] = field(default_factory=list)


# ------------------------------------------------------------------ inputs

def amplitude_factors(seed: int, n: int) -> list[float]:
    if seed == 0:
        return [1.0] * n
    rng = random.Random(seed)
    return [rng.uniform(0.99, 1.01) for _ in range(n)]


def _scaled(cfg: RunConfig, factor: float) -> RunConfig:
    init = cfg.init
    if init.kind is InitKind.SPIKY:
        init = replace(init, lam=init.lam * factor)
    else:
        init = replace(init, c=init.c * factor)
    return replace(cfg, init=init)


def _shadow_configs() -> dict[str, RunConfig]:
    """The paper's sigma-clock equations; no preset runs them."""
    common = dict(
        params=Parameters(p=3, q=2, r=1, s=2, tau=1e-3),
        law=EvolutionLaw.exp_decay(0.1, 2),
        grid=RectGrid(49, 49),
        init=InitSpec(InitKind.COSINE_PLUS, c=2.0),
        dt=5e-4,
        end_time=2.0,
        blowup_threshold=1e3,
    )
    return {
        "shadow/nonlocal_sigma": RunConfig(system=SystemKind.NONLOCAL_SIGMA, **common),
        "shadow/shadow_tau": RunConfig(system=SystemKind.SHADOW_TAU, **common),
    }


def _specs(workload: str) -> list[tuple[str, RunConfig, Verdict, bool]]:
    blow, horizon = Verdict.BLOW_UP, Verdict.HORIZON_REACHED
    if workload == "rect_blowup":
        exp1 = cli.PRESETS["exp1"]()
        return [("exp1/static", exp1["static"], blow, True),
                ("exp1/exp_growth", exp1["exp_growth"], blow, True)]
    if workload == "radial_spike":
        exp3 = cli.PRESETS["exp3"]()
        decay = replace(exp3["exp_decay"], end_time=EXP3_DECAY_END_TIME)
        return [("exp3/static", exp3["static"], blow, False),
                ("exp3/exp_decay", decay, horizon, False)]
    if workload == "full_rd":
        exp4 = cli.PRESETS["exp4"]()
        return [("exp4/full_rd", exp4["full_rd"], blow, False),
                ("exp4/nonlocal_t", exp4["nonlocal_t"], blow, False)]
    if workload == "shadow_step":
        return [(name, cfg, blow, False) for name, cfg in _shadow_configs().items()]
    raise ValueError(f"unknown workload {workload!r}")


def _balanced_eta(cfg: RunConfig, u0: Field) -> float:
    """Initial inhibitor in balance with the activator, as advance() picks it."""
    p = cfg.params
    bal = phi_squared(cfg.law, 0.0) / dissipation_coeff(cfg.law, 0.0)
    return (bal * mean(u0, p.r)) ** (1.0 / (p.s + 1.0))


def build(workload: str, seed: int) -> list[Run]:
    """The workload's runs at this seed, with their initial data."""
    specs = _specs(workload)
    runs = []
    for (name, cfg, expected, closed_form), factor in zip(
            specs, amplitude_factors(seed, len(specs))):
        cfg = _scaled(cfg, factor)
        u0 = gmshadow.build_initial(cfg.init, cfg.grid, p=cfg.params.p)
        aux0 = _balanced_eta(cfg, u0) if cfg.system is SystemKind.SHADOW_TAU else None
        runs.append(Run(name, cfg, expected, u0, closed_form, aux0))
    return runs


# ----------------------------------------------------------------- drivers

def _failed(outcome: Outcome, what: str) -> None:
    traceback.print_exc(file=sys.stderr)
    outcome.problems.append(f"{what} raised {sys.exc_info()[1]!r}")


def _drive_advance(runs: list[Run], workdir: Path) -> tuple[float, list[Outcome]]:
    outcomes = [Outcome() for _ in runs]
    t0 = perf_counter()
    for run, out in zip(runs, outcomes):
        try:
            _, report, _ = gmshadow.advance(run.config)
        except Exception:
            _failed(out, "advance")
            continue
        out.verdict = report.verdict
        out.event_time_t = report.event_time_t
        out.event_time_sigma = report.event_time_sigma
    return perf_counter() - t0, outcomes


def _drive_step(runs: list[Run], workdir: Path) -> tuple[float, list[Outcome]]:
    outcomes = [Outcome() for _ in runs]
    states = [gmshadow.RunState(u=run.u0.values.copy(), aux=run.aux0, clock=0.0)
              for run in runs]
    t0 = perf_counter()
    for i, (run, out) in enumerate(zip(runs, outcomes)):
        try:
            state = states[i]
            while state.verdict is None:
                state = gmshadow.step(run.config, state)
            states[i] = state
        except Exception:
            _failed(out, "step")
            states[i] = None
    wall = perf_counter() - t0
    for run, out, state in zip(runs, outcomes, states):
        if state is None:
            continue
        out.verdict = state.verdict
        if state.verdict is Verdict.BLOW_UP:
            # both step-driven families run on the sigma clock
            out.event_time_sigma = state.clock
            out.event_time_t = t_of_sigma(run.config.law, state.clock)
    return wall, outcomes


def _read_report(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, val = line.partition("=")
        if sep and not line.startswith("#"):
            fields.setdefault(key.strip(), val.strip())
    return fields


def _drive_cli(runs: list[Run], workdir: Path) -> tuple[float, list[Outcome]]:
    """All runs as one preset through cli.run_preset, artifacts included."""
    preset, keys = runs[0].name.split("/")[0], [r.name.split("/")[1] for r in runs]
    generated = dict(zip(keys, (r.config for r in runs)))
    outcomes = [Outcome() for _ in runs]
    root = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
    original = cli.PRESETS[preset]
    cli.PRESETS[preset] = lambda: dict(generated)
    try:
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                cli.run_preset(preset, str(root))
        except Exception:
            for out in outcomes:
                _failed(out, "run_preset")
        wall = perf_counter() - t0
        if not (root / preset / "summary.txt").is_file():
            outcomes[0].problems.append("summary.txt missing")
        for key, out in zip(keys, outcomes):
            rundir = root / preset / key
            missing = [a for a in RUN_ARTIFACTS if not (rundir / a).is_file()]
            if missing:
                out.problems.append(f"missing artifacts {missing}")
                continue
            report = _read_report(rundir / "report.txt")
            try:
                out.verdict = Verdict(report["verdict"])
                if "event_time_t" in report:
                    out.event_time_t = float(report["event_time_t"])
                    out.event_time_sigma = float(report["event_time_sigma"])
            except (KeyError, ValueError) as e:
                out.problems.append(f"unreadable report.txt: {e!r}")
    finally:
        cli.PRESETS[preset] = original
        shutil.rmtree(root)
    return wall, outcomes


DRIVERS = {
    "rect_blowup": _drive_cli,
    "radial_spike": _drive_advance,
    "full_rd": _drive_advance,
    "shadow_step": _drive_step,
}


def execute(workload: str, runs: list[Run], workdir: Path) -> tuple[float, list[Outcome]]:
    """Run every run of the workload once: (wall seconds, outcomes)."""
    return DRIVERS[workload](runs, workdir)


# ------------------------------------------------------------------ checks

def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check(run: Run, out: Outcome, seed: int, reference: dict) -> list[str]:
    """Every way this run's output is wrong; empty when it is right."""
    problems = list(out.problems)
    if out.verdict is not run.expected:
        problems.append(f"verdict {out.verdict} != expected {run.expected}")
    if run.closed_form and out.event_time_sigma is not None:
        bound = bernoulli_bound(
            run.config.law, derive_indices(run.config.params), mean(run.u0, 1.0)
        ).sigma_upper
        if bound is None or out.event_time_sigma > bound + BOUND_SLACK:
            problems.append(f"sigma {out.event_time_sigma} above bound {bound} + {BOUND_SLACK}")
    ref = reference.get(run.name) if seed == 0 else None
    if ref is not None:
        t = out.event_time_t
        if t is None or abs(t - ref["event_time_t"]) > ref["uncertainty"]:
            problems.append(
                f"event_time_t {t} outside {ref['event_time_t']} +- {ref['uncertainty']}"
            )
    return problems
