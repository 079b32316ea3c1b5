"""Command-line front end: experiment presets, key=value configuration files,
batch runs and CSV/report emission.

Verbs:
  run <preset|configpath>   execute a preset (several runs) or one config file
  bounds <configpath>       print the closed-form blow-up bound for a config
  convert-time ...          convert between the t and sigma clocks

The output root is $GMSHADOW_OUTDIR (default ./runs), overridable with
--outdir.  Every run directory contains the resolved config echo, the
series CSV, the final report and the requested snapshots; rerunning an
identical configuration reproduces the CSV byte for byte.

A preset's runs execute concurrently, in forked worker processes, on up to
the CPUs this process may use; the artifacts, the summary and the order of
the printed verdicts are those of running them one after another, which is
what one usable CPU gives (e.g. under `taskset -c 0`).
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections.abc import Callable
from dataclasses import MISSING, fields, replace
from typing import NamedTuple

from .analysis import BlowUpReport, Verdict, bernoulli_bound
from .evolution import EvolutionLaw, LawKind, sigma_horizon, sigma_of_t, t_of_sigma
from .initdata import InitKind, InitSpec, build_initial
from .mesh import RadialGrid, RectGrid, mean, write_field_csv
from .params import Parameters, derive_indices
from .solver import RunConfig, SystemKind, advance


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- presets

_TABLE1 = dict(p=3.0, q=2.0, r=1.0, s=2.0, D1=1.0)


def _rc(system, params, law, grid, init, **kw) -> RunConfig:
    return RunConfig(system=system, params=Parameters(**params), law=law,
                     grid=grid, init=init, **kw)


def _exp1() -> dict[str, RunConfig]:
    grid = RectGrid(128, 128)
    init = InitSpec(InitKind.COSINE_PLUS, c=2.0)
    laws = {
        "static": EvolutionLaw.static(2),
        "exp_growth": EvolutionLaw.exp_growth(0.1, 2),
        "exp_decay": EvolutionLaw.exp_decay(0.1, 2),
        "logistic": EvolutionLaw.logistic(0.1, 1.5, 2),
    }
    return {
        name: _rc(SystemKind.NONLOCAL_T, _TABLE1, law, grid, init,
                  dt=5e-4, end_time=1.0, blowup_threshold=1e4, sample_stride=20)
        for name, law in laws.items()
    }


def _exp1q() -> dict[str, RunConfig]:
    return {
        "quench": _rc(
            SystemKind.NONLOCAL_T,
            dict(p=1.4, q=1.0, r=1.0, s=2.0, D1=1.0),
            EvolutionLaw.exp_growth(0.1, 2),
            RectGrid(64, 64),
            InitSpec(InitKind.COSINE_PLUS, c=2.0),
            dt=5e-4, end_time=20.0, sample_stride=200,
        )
    }


def _exp2(row: str) -> dict[str, RunConfig]:
    kin = dict(p=1.0, q=2.0, r=3.0, s=2.0, D1=1.0) if row == "a" else dict(
        p=3.0, q=2.0, r=1.0, s=1.0, D1=1.0)
    return {
        "run": _rc(
            SystemKind.NONLOCAL_T, kin, EvolutionLaw.exp_growth(0.1, 2),
            RectGrid(64, 64), InitSpec(InitKind.COSINE_PLUS, c=2.0),
            dt=5e-4, end_time=10.0, sample_stride=100,
        )
    }


def _exp3() -> dict[str, RunConfig]:
    grid = RadialGrid(3, 512)
    init = InitSpec(InitKind.SPIKY, delta=0.8, lam=0.1)
    kin = dict(p=4.0, q=4.0, r=2.0, s=1.0, D1=1.0)
    laws = {
        "static": EvolutionLaw.static(3),
        "exp_decay": EvolutionLaw.exp_decay(0.1, 3),
        # the logistic-decay carrying ratio is a preset default (overridable)
        "logistic_decay": EvolutionLaw.logistic(0.1, 0.5, 3),
    }
    return {
        name: _rc(SystemKind.NONLOCAL_T, kin, law, grid, init,
                  dt=5e-4, end_time=0.3, sample_stride=50)
        for name, law in laws.items()
    }


def _exp4() -> dict[str, RunConfig]:
    grid = RectGrid(128, 128)
    init = InitSpec(InitKind.COSINE_PLUS, c=2.0)
    law = EvolutionLaw.exp_decay(0.1, 2)
    full = dict(_TABLE1, D1=0.01, D2=1.0, tau=0.01)
    nonloc = dict(_TABLE1, D1=0.01)
    return {
        "full_rd": _rc(SystemKind.FULL_RD, full, law, grid, init,
                       dt=1e-4, end_time=2.0, v0=2.0, sample_stride=20),
        "nonlocal_t": _rc(SystemKind.NONLOCAL_T, nonloc, law, grid, init,
                          dt=1e-4, end_time=2.0, sample_stride=20),
    }


PRESETS = {
    "exp1": _exp1,
    "exp1q": _exp1q,
    "exp2a": lambda: _exp2("a"),
    "exp2b": lambda: _exp2("b"),
    "exp3": _exp3,
    "exp4": _exp4,
}


# ---------------------------------------------------------- config schema

# (parse, format) pairs
# numbers are written as Python floats and ints, whose repr parses back
# (numpy 2's repr of its scalars does not)
_FLOAT = (float, lambda v: repr(float(v)))
_INT = (int, lambda v: repr(int(v)))
_STR = (str, str)
_TIMES = (lambda raw: tuple(float(x) for x in raw.split(",") if x.strip()),
          lambda ts: ",".join(repr(float(t)) for t in ts))


def _enum(kind):
    return kind, lambda v: v.value


_GRIDS = {"rect": RectGrid, "radial": RadialGrid}
_GRID_NAMES = {cls: name for name, cls in _GRIDS.items()}


def _grid_class(raw: str) -> type:
    if raw not in _GRIDS:
        raise ValueError("expected " + " or ".join(_GRIDS))
    return _GRIDS[raw]


class _Key(NamedTuple):
    """One config-file key and the dataclass attribute it maps to.

    The attribute is `dest`, or the key itself when `dest` is empty.  A key
    without a default takes the dataclass's.  `flag` makes it a `run`
    override (--dt, --end-time, ...).  The echo leaves out keys whose object
    lacks the attribute, whose value is None or renders empty, or that are
    not `shown` for that object; the parser rejects a key given for an
    object that lacks the attribute or does not show it.
    """

    section: str
    key: str
    conv: tuple
    default: object = None
    flag: bool = False
    shown: Callable[[object], bool] = lambda obj: True
    dest: str = ""

    @property
    def attr(self) -> str:
        return self.dest or self.key


def _spiky(init: InitSpec) -> bool:
    return init.kind is InitKind.SPIKY


_SCHEMA = (
    _Key("run", "system", _enum(SystemKind), SystemKind.NONLOCAL_SIGMA),
    _Key("run", "dt", _FLOAT, flag=True),
    _Key("run", "end_time", _FLOAT, flag=True),
    _Key("run", "blowup_threshold", _FLOAT, flag=True),
    _Key("run", "quench_threshold", _FLOAT, flag=True),
    _Key("run", "sample_stride", _INT),
    _Key("run", "dt_safety", _FLOAT, flag=True),
    _Key("run", "eta0", _FLOAT),
    _Key("run", "v0", _FLOAT),
    _Key("run", "snapshot_times", _TIMES),
    _Key("params", "p", _FLOAT),
    _Key("params", "q", _FLOAT),
    _Key("params", "r", _FLOAT),
    _Key("params", "s", _FLOAT),
    _Key("params", "D1", _FLOAT),
    _Key("params", "D2", _FLOAT),
    _Key("params", "tau", _FLOAT),
    _Key("evolution", "evolution", _enum(LawKind), LawKind.STATIC, dest="kind"),
    _Key("evolution", "beta", _FLOAT),
    _Key("evolution", "m", _FLOAT),
    _Key("evolution", "dimension", _INT),
    # the grid kind selects the grid class, which takes only its own keys
    _Key("grid", "kind", (_grid_class, _GRID_NAMES.get), RectGrid, dest="__class__"),
    _Key("grid", "nx", _INT, 128, flag=True),
    _Key("grid", "ny", _INT, 128, flag=True),
    _Key("grid", "M", _INT, 512, flag=True),
    _Key("grid", "dimension", _INT, dest="dim"),  # default: the evolution dimension
    _Key("grid", "outer_bc", _STR),
    _Key("init", "init", _enum(InitKind), InitKind.CONSTANT, dest="kind"),
    _Key("init", "c", _FLOAT, shown=lambda init: not _spiky(init)),
    _Key("init", "delta", _FLOAT, shown=_spiky),
    _Key("init", "lambda", _FLOAT, shown=_spiky, dest="lam"),
)
_FLAGS = tuple(k for k in _SCHEMA if k.flag)
# convert-time's options, which build its law as [evolution] does
_LAW_KEYS = tuple(k for k in _SCHEMA if k.section == "evolution")


def _sections(cfg: RunConfig) -> dict:
    return {"run": cfg, "params": cfg.params, "evolution": cfg.law,
            "grid": cfg.grid, "init": cfg.init}


def _kind_name(obj) -> str:
    """How errors name the kind of a grid or an init spec."""
    if isinstance(obj, InitSpec):
        return f"{obj.kind.value} init"
    return f"{_GRID_NAMES[type(obj)]} grids"


def render_config(cfg: RunConfig) -> str:
    """Canonical key=value echo of a fully resolved run configuration."""
    blocks = []
    for section, obj in _sections(cfg).items():
        lines = [f"[{section}]"]
        for k in (k for k in _SCHEMA if k.section == section):
            value = getattr(obj, k.attr, None)
            if value is None or not k.shown(obj):
                continue
            text = k.conv[1](value)
            if text:
                lines.append(f"{k.key} = {text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _build(cls: type, section: str, kw: dict, path: str):
    """cls(**kw) restricted to cls's fields, naming a missing required key."""
    names = {f.name for f in fields(cls)}
    for f in fields(cls):
        if f.name not in kw and f.default is MISSING and f.default_factory is MISSING:
            key = next(k.key for k in _SCHEMA if (k.section, k.attr) == (section, f.name))
            raise ConfigError(f"missing [{section}] {key} in {path}")
    return cls(**{a: v for a, v in kw.items() if a in names})


def parse_config(path: str) -> RunConfig:
    """Read a key=value config file into a RunConfig.

    Unknown sections and keys are errors, and so are keys that the chosen
    grid or init kind does not use.
    """
    # imported here, as argparse is in main(), so that `import gmshadow.cli`
    # does not load it
    import configparser

    # no section is configparser's DEFAULT, so [DEFAULT] is an unknown section
    cp = configparser.ConfigParser(default_section="")
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from e

    # configparser lowercases keys, so matching is case-insensitive
    schema = {(k.section, k.key.lower()): k for k in _SCHEMA}
    kw: dict[str, dict] = {k.section: {} for k in _SCHEMA}
    for k in _SCHEMA:
        if k.default is not None:
            kw[k.section][k.attr] = k.default
    given = []
    for section in cp.sections():
        if section not in kw:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in cp.items(section):
            k = schema.get((section, key))
            if k is None:
                raise ConfigError(f"unknown key [{section}] {key} in {path}")
            try:
                kw[section][k.attr] = k.conv[0](raw)
            except ValueError as e:
                raise ConfigError(
                    f"bad value for [{section}] {k.key}: {raw!r} ({e})") from e
            given.append(k)

    try:
        params = _build(Parameters, "params", kw["params"], path)
        law = _build(EvolutionLaw, "evolution", kw["evolution"], path)
        grid = kw["grid"].pop("__class__")
        kw["grid"].setdefault("dim", law.dimension)
        cfg = _build(RunConfig, "run", dict(
            kw["run"], params=params, law=law,
            grid=_build(grid, "grid", kw["grid"], path),
            init=_build(InitSpec, "init", kw["init"], path)), path)
    except (ValueError, TypeError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"invalid configuration in {path}: {e}") from e
    sections = _sections(cfg)
    for k in given:
        obj = sections[k.section]
        if not (hasattr(obj, k.attr) and k.shown(obj)):
            raise ConfigError(f"[{k.section}] {k.key} does not apply to "
                              f"{_kind_name(obj)} in {path}")
    return cfg


def _apply_overrides(cfg: RunConfig, ov: dict) -> RunConfig:
    """Replace the flag keys present in ov (by attribute) on cfg and its grid."""
    run, grid = {}, {}
    for k in _FLAGS:
        if k.attr in ov:
            if k.section == "grid" and not hasattr(cfg.grid, k.attr):
                raise ConfigError(f"{k.key} override does not apply to "
                                  f"{_kind_name(cfg.grid)}")
            (grid if k.section == "grid" else run)[k.attr] = ov[k.attr]
    if grid:
        cfg = replace(cfg, grid=replace(cfg.grid, **grid))
    return replace(cfg, **run) if run else cfg


# ------------------------------------------------------------ run driver

def _bound_block(cfg: RunConfig) -> list[str]:
    idx = derive_indices(cfg.params)
    lines = ["[bound]"]
    if idx.omega <= 1.0:
        lines.append("applicable = not-applicable (omega <= 1)")
        return lines
    u0 = build_initial(cfg.init, cfg.grid, p=cfg.params.p)
    rep = bernoulli_bound(cfg.law, idx, mean(u0, 1.0))
    lines += [
        f"applicable = {rep.applicable}",
        f"integral = {float(rep.integral)!r}",
        f"mean_threshold = {float(rep.mean_threshold)!r}",
    ]
    if rep.sigma_upper is not None:
        lines.append(f"sigma_upper = {float(rep.sigma_upper)!r}")
        if rep.sigma_upper < sigma_horizon(cfg.law):
            lines.append(f"t_upper = {float(t_of_sigma(cfg.law, rep.sigma_upper))!r}")
    return lines


def run_one(cfg: RunConfig, outdir: str) -> Verdict:
    """Execute one run and write config echo, series CSV, report, snapshots."""
    return _run(cfg, outdir).verdict


def _run(cfg: RunConfig, outdir: str) -> BlowUpReport:
    """run_one, returning the whole report; writes nothing when advance()
    rejects the config or the report cannot be built."""
    series, report, snapshots = advance(cfg)
    echo = render_config(cfg)
    lines = [f"verdict={report.verdict.value}"]
    for f in fields(BlowUpReport)[1:]:
        val = getattr(report, f.name)
        if val is not None:
            lines.append(f"{f.name} = {float(val)!r}")
    lines.append("")
    lines += _bound_block(cfg)
    lines += ["", "[resolved-config]"]
    lines += ["# " + ln for ln in echo.rstrip("\n").split("\n")]
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.ini"), "w") as fh:
        fh.write(echo)
    series.to_csv(os.path.join(outdir, "series.csv"))
    for label, snap in snapshots.items():
        write_field_csv(snap, os.path.join(outdir, f"snapshot_{label}.csv"))
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return report


def run_preset(preset_id: str, outroot: str, overrides: dict | None = None) -> int:
    """Execute all runs of a preset; write per-run artifacts and a summary.

    The runs are independent, so they execute concurrently in forked worker
    processes, one per usable CPU up to the number of runs.  They run one
    after another in this process when there is one CPU (or no affinity to
    read).  The artifacts, the summary and the order of the printed
    verdicts are the same either way.  A forked worker starts from this
    process's modules as they are, so it needs no fresh import and sees any
    patched name.
    """
    if preset_id not in PRESETS:
        raise ConfigError(f"unknown preset {preset_id!r}; have {sorted(PRESETS)}")
    runs = PRESETS[preset_id]()
    if overrides:
        runs = {name: _apply_overrides(cfg, overrides) for name, cfg in runs.items()}
    base = os.path.join(outroot, preset_id)
    dirs = [os.path.join(base, name) for name in runs]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(runs), cpus)
    reports = {}
    with contextlib.ExitStack() as stack:
        run_all = map
        if workers > 1:
            # imported here, as every gmshadow start would pay 20-30 ms for them
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            pool = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
            # on an error, drop the runs not yet started and join the workers
            stack.callback(pool.shutdown, cancel_futures=True)
            run_all = pool.map
        for name, report in zip(runs, run_all(_run, runs.values(), dirs)):
            reports[name] = report
            print(f"[{preset_id}/{name}] verdict={report.verdict.value}")
    _write_summary(base, preset_id, reports)
    bad = any(r.verdict is Verdict.NON_FINITE for r in reports.values())
    return 1 if bad else 0


def _write_summary(base: str, preset_id: str, reports: dict[str, BlowUpReport]) -> None:
    lines = [f"preset={preset_id}"]
    events = []
    for name, report in reports.items():
        t_ev = None if report.event_time_t is None else float(report.event_time_t)
        lines.append(f"run={name} verdict={report.verdict.value} event_time_t={t_ev}")
        if report.verdict is Verdict.BLOW_UP and t_ev is not None:
            events.append((t_ev, name))
    if len(events) >= 2:
        order = " < ".join(n for _, n in sorted(events))
        lines.append(f"blowup_order_t: {order}")
    with open(os.path.join(base, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def bounds_report_text(cfg: RunConfig) -> str:
    idx = derive_indices(cfg.params)
    head = [
        f"gamma = {float(idx.gamma)!r}",
        f"omega = {float(idx.omega)!r}",
        f"pi = {float(idx.pi)!r}",
    ]
    return "\n".join(head + _bound_block(cfg))


# -------------------------------------------------------------- CLI plumbing

def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(prog="gmshadow", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    ap_run = sub.add_parser("run", help="run a preset or a config file")
    ap_run.add_argument("target", help="preset id (%s) or config path" % ",".join(sorted(PRESETS)))
    ap_run.add_argument("--outdir", default=None)
    for k in _FLAGS:
        ap_run.add_argument("--" + k.key.replace("_", "-"), dest=k.attr, type=k.conv[0])

    ap_b = sub.add_parser("bounds", help="print the blow-up bound for a config")
    ap_b.add_argument("configpath")

    ap_c = sub.add_parser("convert-time", help="convert between t and sigma clocks")
    for k in _LAW_KEYS:
        ap_c.add_argument("--" + k.key, dest=k.attr, type=k.conv[0], default=k.default)
    grp = ap_c.add_mutually_exclusive_group(required=True)
    grp.add_argument("--t", type=float)
    grp.add_argument("--sigma", type=float)

    args = ap.parse_args(argv)
    outroot = args.outdir if getattr(args, "outdir", None) else os.environ.get(
        "GMSHADOW_OUTDIR", "runs")
    try:
        if args.verb == "run":
            ov = {k.attr: getattr(args, k.attr) for k in _FLAGS
                  if getattr(args, k.attr) is not None}
            if args.target in PRESETS:
                return run_preset(args.target, outroot, ov)
            cfg = parse_config(args.target)
            if ov:
                cfg = _apply_overrides(cfg, ov)
            name = os.path.splitext(os.path.basename(args.target))[0]
            verdict = run_one(cfg, os.path.join(outroot, name))
            print(f"[{name}] verdict={verdict.value}")
            return 1 if verdict is Verdict.NON_FINITE else 0
        if args.verb == "bounds":
            cfg = parse_config(args.configpath)
            print(bounds_report_text(cfg))
            return 0
        kw = {k.attr: getattr(args, k.attr) for k in _LAW_KEYS
              if getattr(args, k.attr) is not None}
        law = _build(EvolutionLaw, "evolution", kw, "convert-time")
        if args.t is not None:
            to, frm, value, convert = "sigma", "t", args.t, sigma_of_t
        else:
            to, frm, value, convert = "t", "sigma", args.sigma, t_of_sigma
        try:
            print(f"{to} = {convert(law, value)!r}")
        except OverflowError:
            raise ValueError(f"{to} at {frm} = {value!r} overflows a float") from None
        return 0
    except (ConfigError, ValueError, OSError) as e:
        # OSError: an output directory that cannot be made or written
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
