"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run each workload once end to end (about two minutes on two cores);
test_seed0_counts also replays the full presets under the tracer (about
two more minutes).
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import scipy.fft

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gmshadow  # noqa: E402
import workloads  # noqa: E402
from gmshadow import Verdict, cli  # noqa: E402
from tracer import GRID_SETUP, Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every name the tracer may rebind, with the object it holds now."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "gmshadow" or name.startswith("gmshadow.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out.update({(cls.__name__, n): vars(cls)[n] for cls, n in GRID_SETUP})
    out.update({("scipy.fft", n): getattr(scipy.fft, n) for n in ("dctn", "idctn")})
    return out


def _changed(before):
    after = _bindings()
    return sorted(str(k) for k in before if after.get(k) is not before[k])


def _bench(workload, trace, cwd=ROOT, seconds=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_tracer_restores_names_after_a_traced_run():
    before = _bindings()
    runs = workloads.build("shadow_step", 0)
    short = [replace(r, config=replace(r.config, end_time=0.01)) for r in runs]
    tracer = Tracer()
    with tracer:
        assert _changed(before), "install rebound nothing"
        assert gmshadow.RunState is not before[("gmshadow", "RunState")]
        workloads.execute("shadow_step", short, ROOT)
    assert _changed(before) == []
    metrics = tracer.layer_metrics()
    assert metrics["solver.steps"] > 0
    assert metrics["solver.step_calls"] > metrics["solver.steps"]


def test_tracer_restores_names_when_the_run_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _changed(before) == []


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("shadow_step", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_every_workload_prints_declared_metrics(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench(workload, trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def _traced(configs):
    tracer = Tracer()
    with tracer:
        for cfg in configs:
            gmshadow.advance(cfg)
    return tracer


def test_seed0_counts_match_the_presets():
    exp1 = cli.PRESETS["exp1"]()["static"]
    exp3 = cli.PRESETS["exp3"]()
    exp4 = cli.PRESETS["exp4"]()["full_rd"]
    expected = {  # steps, diffusion-capped steps
        id(exp1): (17587, 17549),
        id(exp3["static"]): (63891, 63766),
        # every step is capped but the last, which is cut to land on t=0.3
        id(exp3["exp_decay"]): (322937, 322936),
    }
    tracer = _traced([exp1, exp3["static"], exp3["exp_decay"]])
    for run in tracer.runs.values():
        counts = tracer.run_counts(run)
        assert (counts["steps"], counts["diffusion_capped"]) == expected[id(run.config)]
    rd = _traced([exp4])
    assert rd.layer_metrics()["solver.steps"] == 1585
    assert rd.layer_metrics()["fft.dct_calls"] == 3170
    # the step()-driven path: one RunTrace per run, every call a context rebuild
    runs, shadow = workloads.build("shadow_step", 0), Tracer()
    with shadow:
        workloads.execute("shadow_step", runs, ROOT)
    counts = sorted((c["steps"], c["diffusion_capped"])
                    for c in map(shadow.run_counts, shadow.runs.values()))
    assert counts == [(3276, 3252), (3286, 3262)]
    metrics = shadow.layer_metrics()
    assert metrics["solver.step_calls"] == metrics["mesh.grid_setup_calls"] == 6564


def test_seed_scales_only_the_initial_amplitude():
    for workload in workloads.WORKLOADS:
        base, other = workloads.build(workload, 0), workloads.build(workload, 7)
        for a, b in zip(base, other):
            amp = "lam" if a.config.init.kind is gmshadow.InitKind.SPIKY else "c"
            factor = getattr(b.config.init, amp) / getattr(a.config.init, amp)
            assert 0.99 <= factor <= 1.01 and factor != 1.0
            assert replace(b.config, init=a.config.init) == a.config
        assert [r.config for r in workloads.build(workload, 7)] == [r.config for r in other]


def test_wrong_verdict_counts_as_a_failure():
    run = workloads.build("shadow_step", 0)[0]
    out = workloads.Outcome(verdict=Verdict.QUENCH)
    assert workloads.check(run, out, 0, {})
    assert workloads.check(run, workloads.Outcome(verdict=Verdict.BLOW_UP), 1, {}) == []


def test_rect_blowup_flags_missing_artifacts(monkeypatch, tmp_path):
    runs = workloads.build("rect_blowup", 0)
    short = [replace(r, config=replace(r.config, blowup_threshold=4.0)) for r in runs]
    monkeypatch.setattr(cli, "write_field_csv", lambda f, path: None)
    _, outcomes = workloads.execute("rect_blowup", short, tmp_path)
    assert all("missing artifacts" in " ".join(o.problems) for o in outcomes)
