import os
from dataclasses import replace

import numpy as np
import pytest

from gmshadow import EvolutionLaw, Parameters, RadialGrid, SystemKind, Verdict, sigma_of_t
from gmshadow.cli import (
    PRESETS,
    ConfigError,
    bounds_report_text,
    main,
    parse_config,
    render_config,
    run_one,
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
], ids=["threshold_below_initial_sup", "cosine_on_radial"])
def test_cli_rejected_config_writes_nothing(tmp_path, capsys, text, message):
    # advance() rejects the config before any run directory is made
    rc = main(["run", write(tmp_path, text), "--outdir", str(tmp_path / "r")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_cli_run_unknown_preset(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "missing.ini")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


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
], ids=["exp_decay", "logistic"])
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
], ids=["t_nan", "sigma_nan", "logistic_without_m"])
def test_cli_convert_time_rejects_bad_input(argv, message, capsys):
    assert main(["convert-time", *argv]) == 2
    assert message in capsys.readouterr().err


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
    from gmshadow.cli import run_preset
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


def test_snapshot_rect_header(tmp_path):
    from gmshadow import RectGrid, Field, write_field_csv
    import numpy as np
    g = RectGrid(5, 7)
    write_field_csv(Field(g, np.ones(g.shape)), str(tmp_path / "f.csv"))
    assert (tmp_path / "f.csv").read_text().splitlines()[0] == "5,7"
