import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gmshadow import (
    EvolutionLaw, Parameters, RadialGrid, RectGrid, SystemKind, Verdict, cli, sigma_of_t,
)
from gmshadow.cli import (
    PRESETS,
    ConfigError,
    bounds_report_text,
    main,
    parse_config,
    render_config,
    run_one,
    run_preset,
)

MINIMAL_STATIC = """
[run]
system = nonlocal_sigma
dt = 0.002
end_time = 0.05
blowup_threshold = 1e6
quench_threshold = 1e-6

[params]
p = 3
q = 2
r = 1
s = 2

[evolution]
evolution = static
dimension = 2

[grid]
kind = rect
nx = 9
ny = 9

[init]
init = constant
c = 1.0
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_preset_table():
    assert set(PRESETS) == {"exp1", "exp1q", "exp2a", "exp2b", "exp3", "exp4"}
    exp1 = PRESETS["exp1"]()
    assert set(exp1) == {"static", "exp_growth", "exp_decay", "logistic"}
    assert all(c.system is SystemKind.NONLOCAL_T for c in exp1.values())
    assert all(c.blowup_threshold == 1e4 for c in exp1.values())
    exp4 = PRESETS["exp4"]()
    assert exp4["full_rd"].params.D2 == 1.0
    assert exp4["full_rd"].params.tau == 0.01
    assert exp4["full_rd"].v0 == 2.0
    assert exp4["nonlocal_t"].params.D1 == 0.01
    exp3 = PRESETS["exp3"]()
    assert exp3["logistic_decay"].law.m == 0.5
    assert {c.grid.M for c in exp3.values()} == {512}


def _roundtrip_configs():
    cfgs = {f"{pid}/{name}": cfg for pid, make in PRESETS.items()
            for name, cfg in make().items()}
    exp3 = PRESETS["exp3"]()["static"]
    # together these set every optional key of the format
    cfgs["shadow_optional_keys"] = replace(
        PRESETS["exp1"]()["static"], system=SystemKind.SHADOW_TAU,
        params=Parameters(p=3.0, q=2.0, r=1.0, s=2.0, tau=0.1), eta0=0.7, v0=1.5,
        snapshot_times=(0.1, 0.25), dt_safety=0.5)
    cfgs["radial_dirichlet_spiky_logistic"] = replace(
        exp3, grid=RadialGrid(3, 64, outer_bc="dirichlet"),
        law=EvolutionLaw.logistic(0.1, 0.5, 3))
    return cfgs


def test_parse_roundtrip(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL_STATIC))
    assert cfg.system is SystemKind.NONLOCAL_SIGMA
    assert cfg.params.p == 3.0 and cfg.grid.nx == 9
    echo = render_config(cfg)
    cfg2 = parse_config(write(tmp_path, echo, "echo.ini"))
    assert render_config(cfg2) == echo
    for name, cfg in _roundtrip_configs().items():
        echo = render_config(cfg)
        cfg2 = parse_config(write(tmp_path, echo, "echo.ini"))
        assert cfg2 == cfg, name
        assert render_config(cfg2) == echo, name


@pytest.mark.parametrize("bad, message", [
    (MINIMAL_STATIC.replace("dt = 0.002", "dt = 0.002\ndt_safty = 0.5"),
     r"unknown key \[run\] dt_safty"),
    (MINIMAL_STATIC + "\n[params2]\np = 1\n", r"unknown section \[params2\]"),
    ("[DEFAULT]\nnote = 1\n" + MINIMAL_STATIC, r"unknown section \[DEFAULT\]"),
], ids=["misspelt_key", "unknown_section", "default_section"])
def test_parse_rejects_unknown_keys_and_sections(tmp_path, bad, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(write(tmp_path, bad))


RADIAL_SPIKY = (MINIMAL_STATIC
                .replace("kind = rect\nnx = 9\nny = 9", "kind = radial\nM = 33")
                .replace("init = constant\nc = 1.0", "init = spiky\ndelta = 0.5"))


@pytest.mark.parametrize("base, extra, message", [
    (MINIMAL_STATIC, "M = 33", r"\[grid\] M does not apply to rect grids"),
    (MINIMAL_STATIC, "dimension = 2", r"\[grid\] dimension does not apply to rect grids"),
    (MINIMAL_STATIC, "outer_bc = dirichlet", r"\[grid\] outer_bc does not apply to rect grids"),
    (RADIAL_SPIKY, "nx = 5", r"\[grid\] nx does not apply to radial grids"),
    (RADIAL_SPIKY, "ny = 5", r"\[grid\] ny does not apply to radial grids"),
    (RADIAL_SPIKY, "c = 2.0", r"\[init\] c does not apply to spiky init"),
    (MINIMAL_STATIC, "delta = 0.5", r"\[init\] delta does not apply to constant init"),
    (MINIMAL_STATIC.replace("init = constant\nc = 1.0", "init = cosine\nc = 2.0"),
     "lambda = 0.1", r"\[init\] lambda does not apply to cosine init"),
], ids=["M_on_rect", "dimension_on_rect", "outer_bc_on_rect", "nx_on_radial",
        "ny_on_radial", "c_on_spiky", "delta_on_constant", "lambda_on_cosine"])
def test_parse_rejects_keys_the_kind_does_not_use(tmp_path, base, extra, message):
    parse_config(write(tmp_path, base))
    section = "[init]" if message.startswith(r"\[init") else "[grid]"
    bad = base.replace(section, f"{section}\n{extra}")
    with pytest.raises(ConfigError, match=message + " in "):
        parse_config(write(tmp_path, bad))


def test_parse_keys_are_case_insensitive(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL_STATIC.replace("s = 2", "s = 2\nd1 = 0.5")))
    assert cfg.params.D1 == 0.5


def test_parse_rejects_bad_dt(tmp_path):
    bad = MINIMAL_STATIC.replace("dt = 0.002", "dt = -1")
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, bad))


def test_parse_rejects_an_unknown_grid_kind(tmp_path):
    bad = MINIMAL_STATIC.replace("kind = rect", "kind = hex")
    with pytest.raises(ConfigError, match=re.escape(
            "bad value for [grid] kind: 'hex' (expected rect or radial)")):
        parse_config(write(tmp_path, bad))


def test_parse_rejects_missing_param(tmp_path):
    bad = MINIMAL_STATIC.replace("p = 3\n", "")
    with pytest.raises(ConfigError, match="p"):
        parse_config(write(tmp_path, bad))


def test_parse_reports_syntax_line(tmp_path):
    bad = MINIMAL_STATIC + "\nthis is not a key value line\n"
    with pytest.raises(ConfigError, match="line"):
        parse_config(write(tmp_path, bad))


def test_run_minimal_static_flat(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL_STATIC))
    out = tmp_path / "out"
    verdict = run_one(cfg, str(out))
    assert verdict is Verdict.HORIZON_REACHED
    sup = np.array([float(l.split(",")[2]) for l in
                    (out / "series.csv").read_text().splitlines()[1:]])
    assert np.max(np.abs(sup - 1.0)) < 1e-9  # u == 1 is stationary
    report = (out / "report.txt").read_text()
    assert report.splitlines()[0] == "verdict=HorizonReached"
    assert "[bound]" in report and "[resolved-config]" in report


def test_run_artifacts_and_determinism(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL_STATIC))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_one(cfg, str(out1))
    run_one(cfg, str(out2))
    assert sorted(os.listdir(out1)) == [
        "config.ini", "report.txt", "series.csv", "snapshot_final.csv",
    ]
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rerun_from_echo_is_bit_identical(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL_STATIC))
    out1 = tmp_path / "orig"
    run_one(cfg, str(out1))
    cfg2 = parse_config(str(out1 / "config.ini"))
    out2 = tmp_path / "replay"
    run_one(cfg2, str(out2))
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_bounds_report_growth(tmp_path):
    text = MINIMAL_STATIC.replace("evolution = static", "evolution = exp_growth\nbeta = 0.1")
    text = text.replace("init = constant\nc = 1.0", "init = cosine\nc = 2.0")
    cfg = parse_config(write(tmp_path, text))
    rep = bounds_report_text(cfg)
    assert "mean_threshold = 1.0466351393921056" in rep
    assert "sigma_upper = 0.33085221516015617" in rep
    assert "t_upper = 0.3423067229" in rep


def test_bounds_report_not_applicable(tmp_path):
    text = MINIMAL_STATIC.replace("p = 3", "p = 1").replace("r = 1", "r = 3")
    cfg = parse_config(write(tmp_path, text))
    assert "not-applicable" in bounds_report_text(cfg)


def test_numpy_scalars_echo_as_python_numbers(tmp_path):
    # numpy 2 writes repr(np.float64(0.001)) as "np.float64(0.001)"
    f, i = np.float64, np.int64
    cfg = replace(parse_config(write(tmp_path, MINIMAL_STATIC)), dt=f(0.001),
                  end_time=f(0.01), sample_stride=i(3), snapshot_times=(f(0.005),),
                  params=Parameters(p=f(3), q=f(2), r=f(1), s=f(2)),
                  law=EvolutionLaw.exp_decay(f(0.1), i(2)), grid=RectGrid(i(9), i(9)))
    assert parse_config(write(tmp_path, render_config(cfg), "echo.ini")) == cfg
    out = tmp_path / "run"
    run_one(cfg, str(out))
    assert sorted(os.listdir(out)) == ["config.ini", "report.txt", "series.csv",
                                       "snapshot_clock0.005.csv", "snapshot_final.csv"]
    report = (out / "report.txt").read_text()
    assert "np." not in report and "t_upper = " in report
    assert parse_config(str(out / "config.ini")) == cfg


def test_cli_run_config_exit_code(tmp_path, capsys):
    path = write(tmp_path, MINIMAL_STATIC)
    rc = main(["run", path, "--outdir", str(tmp_path / "runs")])
    assert rc == 0
    assert "verdict=HorizonReached" in capsys.readouterr().out


def test_cli_run_preset_to_end_time_inf_is_an_error(tmp_path, capsys):
    rc = main(["run", "exp2a", "--end-time", "inf", "--outdir", str(tmp_path / "r")])
    assert rc == 2
    assert "error: end_time=inf never ends" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("text, message", [
    (MINIMAL_STATIC.replace("c = 1.0", "c = 2.0")
     .replace("blowup_threshold = 1e6", "blowup_threshold = 1.5"),
     "must exceed initial sup 2.0"),
    (MINIMAL_STATIC.replace("init = constant", "init = cosine").replace("c = 1.0", "c = 2.0")
     .replace("kind = rect\nnx = 9\nny = 9", "kind = radial\nM = 17"),
     "cosine profile is defined on the unit square"),
    # 2*beta*t passes ln(DBL_MAX) at t = 47.3, where rho^2 used to raise OverflowError
    (MINIMAL_STATIC.replace("nonlocal_sigma", "nonlocal_t").replace("dt = 0.002", "dt = 0.001")
     .replace("end_time = 0.05", "end_time = 50").replace("c = 1.0", "c = 2.0")
     .replace("evolution = static", "evolution = exp_growth\nbeta = 7.5")
     .replace("nx = 9\nny = 9", "nx = 3\nny = 3"),
     "end_time=50.0 takes rho^2 or sigma out of float range under exp_growth"),
], ids=["threshold_below_initial_sup", "cosine_on_radial", "rho_squared_overflow"])
def test_cli_rejected_config_writes_nothing(tmp_path, capsys, text, message):
    # advance() rejects the config before any run directory is made
    rc = main(["run", write(tmp_path, text), "--outdir", str(tmp_path / "r")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


ARTIFACTS = ["config.ini", "report.txt", "series.csv", "snapshot_final.csv"]
# quad's map of [0, inf) takes the bound's integrand past beta t = 709.78,
# where e^(beta t) overflows
LATE_LOGISTIC = (MINIMAL_STATIC.replace("nonlocal_sigma", "nonlocal_t")
                 .replace("end_time = 0.05", "end_time = 0.01")
                 .replace("evolution = static", "evolution = logistic\nbeta = 1.0\nm = 1.5"))


def test_cli_run_and_bounds_take_a_logistic_bound_past_the_growth_factor_overflow(
        tmp_path, capsys):
    path = write(tmp_path, LATE_LOGISTIC)
    assert main(["run", path, "--outdir", str(tmp_path / "r")]) == 0
    assert "[cfg] verdict=HorizonReached" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path / "r" / "cfg")) == ARTIFACTS
    report = (tmp_path / "r" / "cfg" / "report.txt").read_text()
    assert "integral = 0.6583819222606301" in report
    assert main(["bounds", path]) == 0
    assert "integral = 0.6583819222606301" in capsys.readouterr().out


def test_cli_run_whose_report_fails_writes_nothing(tmp_path, monkeypatch):
    # the report, bound block included, is built before the run directory
    def broken(cfg):
        raise RuntimeError("bound failed")

    monkeypatch.setattr(cli, "_bound_block", broken)
    with pytest.raises(RuntimeError, match="bound failed"):
        main(["run", write(tmp_path, MINIMAL_STATIC), "--outdir", str(tmp_path / "r")])
    assert not (tmp_path / "r").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_run_ending_non_finite_exits_1_with_four_artifacts(tmp_path, capsys):
    # no threshold stops the blow-up, so u overflows to inf
    text = (MINIMAL_STATIC.replace("end_time = 0.05", "end_time = 1e9")
            .replace("blowup_threshold = 1e6", "blowup_threshold = inf")
            .replace("nx = 9\nny = 9", "nx = 5\nny = 5")
            .replace("init = constant\nc = 1.0", "init = cosine\nc = 2.0"))
    rc = main(["run", write(tmp_path, text), "--outdir", str(tmp_path / "r")])
    assert rc == 1
    assert "[cfg] verdict=NonFinite" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path / "r" / "cfg")) == ARTIFACTS
    report = (tmp_path / "r" / "cfg" / "report.txt").read_text()
    assert report.splitlines()[0] == "verdict=NonFinite"


# L(0) = 1 + N beta (1 - 1/m) = -198.8 with p, q, r, s = 3, 2, 1, 2
NEGATIVE_L0 = (MINIMAL_STATIC.replace("nonlocal_sigma", "nonlocal_t")
               .replace("evolution = static", "evolution = logistic\nbeta = 0.1\nm = 0.001"))


def test_cli_rejects_a_logistic_law_whose_dilution_starts_negative(tmp_path, capsys):
    # run used to crash on a complex L^gamma (exit 1) and bounds raise TypeError
    path = write(tmp_path, NEGATIVE_L0)
    assert main(["run", path, "--outdir", str(tmp_path / "r")]) == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    assert main(["bounds", path]) == 2
    assert "L(0) = 1 + N*beta*(1 - 1/m) = -198.8 is negative" in capsys.readouterr().err


def test_cli_run_to_an_outdir_that_is_a_file_is_an_error(tmp_path, capsys, monkeypatch):
    # NotADirectoryError used to escape as a traceback, exit 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["run", write(tmp_path, MINIMAL_STATIC), "--outdir", str(blocker)])
    assert rc == 2
    assert "error: " in capsys.readouterr().err
    # a preset's runs raise it from their workers, when there are several CPUs
    tiny = parse_config(write(tmp_path, MINIMAL_STATIC.replace("nx = 9\nny = 9", "nx = 5\nny = 5")))
    monkeypatch.setitem(PRESETS, "tiny", lambda: {"a": tiny, "b": tiny})
    assert main(["run", "tiny", "--outdir", str(blocker)]) == 2
    assert "error: " in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_cli_run_unknown_preset(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "missing.ini")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="^unknown preset 'nosuch'; have "):
        run_preset("nosuch", str(tmp_path))


def test_cli_convert_time(capsys):
    rc = main(["convert-time", "--evolution", "exp_growth", "--beta", "0.1",
               "--dimension", "2", "--sigma", "0.3311"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "t = 0.342572" in out
    rc = main(["convert-time", "--evolution", "static", "--t", "3.0"])
    assert rc == 0
    assert "sigma = 3.0" in capsys.readouterr().out


@pytest.mark.parametrize("law, flags", [
    (EvolutionLaw.exp_decay(0.1, 2), ["--evolution", "exp_decay", "--beta", "0.1"]),
    (EvolutionLaw.logistic(0.1, 1.5, 2),
     ["--evolution", "logistic", "--beta", "0.1", "--m", "1.5"]),
    # --evolution defaults to static, as the [evolution] section does
    (EvolutionLaw.static(2), []),
], ids=["exp_decay", "logistic", "static_by_default"])
def test_cli_convert_time_prints_sigma_of_t(law, flags, capsys):
    assert main(["convert-time", *flags, "--t", "1.3"]) == 0
    assert capsys.readouterr().out == f"sigma = {sigma_of_t(law, 1.3)!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["--evolution", "exp_decay", "--beta", "0.1", "--t", "nan"],
     "t must be a nonnegative number"),
    (["--evolution", "exp_growth", "--beta", "0.1", "--sigma", "nan"],
     "sigma must be a nonnegative number"),
    (["--evolution", "logistic", "--beta", "0.1", "--t", "1.0"],
     "logistic requires m > 0 and m != 1"),
    (["--evolution", "exp_decay", "--beta", "0.4", "--dimension", "3", "--t", "1.0"],
     "exp_decay requires beta < 1/N"),
    (["--evolution", "exp_decay", "--beta", "0.1", "--t", "1e10"],
     "sigma at t = 10000000000.0 overflows a float"),
    # closed forms that would print nan or leak brentq's NaN message
    (["--evolution", "logistic", "--beta", "0.1", "--m", "1e-300", "--t", "1"],
     "logistic m=1e-300 is out of range"),
    (["--evolution", "logistic", "--beta", "0.1", "--m", "1e200", "--t", "inf"],
     "logistic m=1e+200 is out of range"),
    (["--evolution", "logistic", "--beta", "0.1", "--m", "1e-300", "--sigma", "1"],
     "logistic m=1e-300 is out of range"),
    # sigma = t/m^2 + O(1) overflows at a finite t
    (["--evolution", "logistic", "--beta", "0.1", "--m", "0.5", "--t", "1e308"],
     "sigma at t = 1e+308 overflows a float"),
    # t_of_sigma's bracket on t doubles past the largest double
    (["--evolution", "logistic", "--beta", "0.1", "--m", "1.5", "--sigma", "1e308"],
     "t at sigma = 1e+308 overflows a float"),
], ids=["t_nan", "sigma_nan", "logistic_without_m", "exp_decay_too_fast_in_3d",
        "exp_decay_sigma_overflows", "logistic_tiny_m", "logistic_huge_m_at_t_inf",
        "logistic_tiny_m_sigma", "logistic_sigma_overflows", "logistic_t_overflows"])
def test_cli_convert_time_rejects_bad_input(argv, message, capsys):
    assert main(["convert-time", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_is_valid_and_names_every_schema_key(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    # its ";" annotations are for the reader; the parser takes ";" as a
    # comment only at the start of a line
    path = tmp_path / "readme.ini"
    path.write_text(re.sub(r"\s+;.*", "", block))
    parse_config(str(path))
    sections = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.S | re.M))
    for k in cli._SCHEMA:
        assert re.search(rf"(^|[\s,]){re.escape(k.key)} = ", sections[k.section], re.M), \
            f"README's config block does not name [{k.section}] {k.key}"


def test_cli_bounds_verb(tmp_path, capsys):
    path = write(tmp_path, MINIMAL_STATIC)
    rc = main(["bounds", path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "omega = 2.33333" in out


def test_env_outdir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GMSHADOW_OUTDIR", str(tmp_path / "envruns"))
    path = write(tmp_path, MINIMAL_STATIC)
    rc = main(["run", path])
    assert rc == 0
    assert (tmp_path / "envruns" / "cfg" / "series.csv").exists()


def test_grid_override_on_config(tmp_path):
    path = write(tmp_path, MINIMAL_STATIC)
    for i, (flags, expected) in enumerate([
        (["--dt", "0.001"], ["dt = 0.001"]),
        (["--end-time", "0.02"], ["end_time = 0.02"]),
        (["--blowup-threshold", "1e5"], ["blowup_threshold = 100000.0"]),
        (["--quench-threshold", "1e-7"], ["quench_threshold = 1e-07"]),
        (["--dt-safety", "0.5"], ["dt_safety = 0.5"]),
        (["--nx", "5", "--ny", "7"], ["nx = 5", "ny = 7"]),
    ]):
        out = tmp_path / f"r{i}"
        assert main(["run", path, "--outdir", str(out), *flags]) == 0
        echo = (out / "cfg" / "config.ini").read_text().splitlines()
        assert all(line in echo for line in expected), flags


def test_radial_override_on_rect_config_is_an_error(tmp_path, capsys):
    path = write(tmp_path, MINIMAL_STATIC)
    rc = main(["run", path, "--outdir", str(tmp_path / "r"), "--M", "33"])
    assert rc == 2
    assert "error: M override" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_preset_smoke(tmp_path):
    rc = run_preset("exp2b", str(tmp_path),
                    overrides={"nx": 17, "ny": 17, "dt": 2e-3,
                               "blowup_threshold": 1e3, "end_time": 2.0})
    assert rc == 0
    base = tmp_path / "exp2b"
    assert (base / "summary.txt").exists()
    assert (base / "run" / "series.csv").exists()
    summary = (base / "summary.txt").read_text()
    assert "verdict=BlowUp" in summary
    header = (base / "run" / "series.csv").read_text().splitlines()[0]
    assert header == "t,sigma,sup_norm,mean_u,zeta,w_moment,eta_or_supv"


def test_summary_orders_only_the_runs_that_blow_up(tmp_path):
    # exp_growth (t = 0.2025) and logistic (t = 0.2300) blow up by t = 0.24;
    # static (t = 0.246) and exp_decay end HorizonReached and are left out
    rc = run_preset("exp1", str(tmp_path), overrides={
        "nx": 17, "ny": 17, "blowup_threshold": 10.0, "end_time": 0.24})
    assert rc == 0
    lines = (tmp_path / "exp1" / "summary.txt").read_text().splitlines()
    verdicts = {line.split()[0]: line.split()[1] for line in lines[1:-1]}
    assert verdicts == {
        "run=static": "verdict=HorizonReached", "run=exp_growth": "verdict=BlowUp",
        "run=exp_decay": "verdict=HorizonReached", "run=logistic": "verdict=BlowUp",
    }
    assert lines[-1] == "blowup_order_t: exp_growth < logistic"


# exp1 cut down to four steps on 17x17: four runs, more than two workers
SHORT_EXP1 = {"nx": 17, "ny": 17, "end_time": 0.002}


def _use_cpus(monkeypatch, n):
    """Make run_preset see n usable CPUs on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _pids_of_local_runs(monkeypatch):
    """Patch cli.advance to note the pid of each run made in this process;
    a run in a worker notes nothing here."""
    pids, real = [], cli.advance

    def noting(cfg):
        pids.append(os.getpid())
        return real(cfg)

    monkeypatch.setattr(cli, "advance", noting)
    return pids


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_pooled_preset_matches_the_one_process_path(tmp_path, capsys, monkeypatch):
    import multiprocessing

    pids = _pids_of_local_runs(monkeypatch)
    trees, stdouts, local = [], [], []
    for cpus in (2, 1):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run_preset("exp1", str(out), overrides=SHORT_EXP1) == 0
        assert multiprocessing.active_children() == []
        trees.append(_tree(out))
        stdouts.append(capsys.readouterr().out)
        local.append(pids[:])
        pids.clear()
    assert local == [[], [os.getpid()] * 4]
    assert trees[0] == trees[1]
    # four artifacts per run and the summary
    assert len(trees[0]) == 17
    assert stdouts[0] == stdouts[1] == "".join(
        f"[exp1/{name}] verdict=HorizonReached\n"
        for name in ("static", "exp_growth", "exp_decay", "logistic"))


def test_a_preset_with_a_full_rd_run_pools_like_any_other(tmp_path, monkeypatch):
    pids = _pids_of_local_runs(monkeypatch)
    small = {"nx": 17, "ny": 17, "end_time": 0.001}
    trees = []
    for cpus in (2, 1):
        _use_cpus(monkeypatch, cpus)
        run_preset("exp4", str(tmp_path / f"cpus{cpus}"), overrides=small)
        trees.append(_tree(tmp_path / f"cpus{cpus}"))
    assert pids == [os.getpid()] * 2
    assert trees[0] == trees[1]


def test_pooled_preset_rejected_in_a_worker_exits_2(tmp_path, capsys, monkeypatch):
    import multiprocessing

    _use_cpus(monkeypatch, 2)
    rc = main(["run", "exp1", "--blowup-threshold", "1.5", "--outdir", str(tmp_path / "r")])
    assert rc == 2
    assert "error: blowup_threshold 1.5 must exceed initial sup 3.0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    assert multiprocessing.active_children() == []


def test_pooled_preset_reraises_a_worker_error_as_itself(tmp_path, monkeypatch):
    import multiprocessing

    def broken(cfg):
        raise RuntimeError(f"no {cfg.law.kind.value} run")

    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "advance", broken)
    with pytest.raises(RuntimeError, match="^no static run$") as err:
        run_preset("exp1", str(tmp_path), overrides=SHORT_EXP1)
    assert err.type is RuntimeError
    assert multiprocessing.active_children() == []


def test_snapshot_rect_header(tmp_path):
    from gmshadow import RectGrid, Field, write_field_csv
    import numpy as np
    g = RectGrid(5, 7)
    write_field_csv(Field(g, np.ones(g.shape)), str(tmp_path / "f.csv"))
    assert (tmp_path / "f.csv").read_text().splitlines()[0] == "5,7"
