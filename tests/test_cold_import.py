"""Importing gmshadow and running the static and exponential laws loads no
scipy: only the logistic law's quadrature (analysis.threshold_integral) and
root-find (evolution.t_of_sigma) import it, when they are called.  Nor does
importing gmshadow.cli load the worker pool's modules, argparse or
configparser: only a pooled preset run, cli.main() and cli.parse_config()
import them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gmshadow

_PROBE = """
import json, sys
import gmshadow, gmshadow.cli
from gmshadow import (EvolutionLaw, InitKind, InitSpec, Parameters, RectGrid,
                      RunConfig, SystemKind, advance, derive_indices)
from gmshadow.analysis import threshold_integral
from gmshadow.cli import PRESETS, bounds_report_text
from gmshadow.evolution import t_of_sigma

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

presets = {pid: build() for pid, build in PRESETS.items()}
for system, law in ((SystemKind.NONLOCAL_T, EvolutionLaw.exp_growth(0.1, 2)),
                    (SystemKind.NONLOCAL_SIGMA, EvolutionLaw.exp_decay(0.1, 2))):
    cfg = RunConfig(system=system, params=Parameters(p=3, q=2, r=1, s=2, D1=1.0),
                    law=law, grid=RectGrid(9, 9), init=InitSpec(InitKind.CONSTANT, c=2.0),
                    dt=1e-3, end_time=0.02)
    advance(cfg)
for name in ("static", "exp_growth"):
    bounds_report_text(presets["exp1"][name])
before = scipy_modules()

logistic = presets["exp1"]["logistic"]
values = [t_of_sigma(logistic.law, 0.5),
          t_of_sigma(presets["exp3"]["logistic_decay"].law, 0.5),
          threshold_integral(logistic.law, derive_indices(logistic.params)),
          threshold_integral(logistic.law, derive_indices(logistic.params), 0.5)]
print(json.dumps({"before": before, "after": scipy_modules(),
                  "values": [repr(v) for v in values]}))
"""


def test_scipy_is_imported_only_by_the_logistic_law():
    src = str(Path(gmshadow.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _PROBE], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out["before"] == []
    # the values that the module-level scipy imports gave
    assert out["values"] == ["0.5084254942342611", "0.47723324509092535",
                             "0.7347412095425939", "0.3776924313896391"]
    assert {"scipy.optimize", "scipy.integrate"} <= set(out["after"])


def _modules_loaded_by_importing_gmshadow_cli(prefixes: tuple[str, ...]) -> list[str]:
    probe = ("import json, sys; import gmshadow, gmshadow.cli; print(json.dumps(sorted("
             f"m for m in sys.modules if m.startswith({prefixes!r}))))")
    src = str(Path(gmshadow.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_the_worker_pool_is_imported_only_by_a_pooled_preset():
    assert _modules_loaded_by_importing_gmshadow_cli(
        ("multiprocessing", "concurrent.futures")) == []


def test_the_argument_parsers_are_imported_only_by_main_and_parse_config():
    assert _modules_loaded_by_importing_gmshadow_cli(("argparse", "configparser")) == []
