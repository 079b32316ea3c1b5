"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the public names of each gmshadow layer, in
every gmshadow module that holds them, to timing wrappers; `restore()`
puts the originals back.  Nothing under `src/` is edited, and private
helpers are never touched, so the tracer keeps working when the solver's
internals are refactored.

A span opens when a wrapped name is entered from a different layer (a
call from a layer into itself, such as `t_of_sigma` calling `sigma_of_t`,
stays inside the open span).  A layer's self time is the duration of its
spans minus the part covered by the spans of other layers they call.

Steps are observed through a `RunState` subclass that replaces
`gmshadow.solver.RunState`: it records the clock at which each step
started and the dt it took, which is what the diffusion-cap share is
computed from after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import scipy.fft

from gmshadow import analysis, cli, evolution, initdata, mesh, params, solver

# Every public function of these modules is a layer entry point.
_WHOLE_MODULES = (params, evolution, mesh, initdata, analysis, cli)
# The solver's entry points.  fast_pow is left out: it is a per-step helper
# the solver calls from inside itself, so wrapping it would only add
# overhead.
_SOLVER_ENTRIES = ("advance", "step", "rhs")
# Grid set-up methods; the solver calls them whenever it builds its context.
GRID_SETUP = (
    (mesh.RectGrid, "quad_weights"),
    (mesh.RadialGrid, "quad_weights"),
    (mesh.RadialGrid, "face_areas"),
    (mesh.RadialGrid, "cell_volumes"),
)
DCT = ("dctn", "idctn")


def _gmshadow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gmshadow" or name.startswith("gmshadow."))]


def _public_functions(mod):
    return [name for name, obj in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__]


@dataclass
class RunTrace:
    """What the tracer saw of one run: its config, its state, its samples."""

    config: object
    state: object
    samples: int = 0


@dataclass
class Tracer:
    """Span totals per wrapped name, self time per layer, and traced runs."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    seconds: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    runs: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _new_states: list = field(default_factory=list)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        try:
            for mod in _WHOLE_MODULES:
                layer = mod.__name__.rsplit(".", 1)[-1]
                for name in _public_functions(mod):
                    fn = getattr(mod, name)
                    self._rebind(fn, self._span(f"{layer}.{name}", layer, fn))
            after = {"advance": self._after_advance, "step": self._after_step}
            for name in _SOLVER_ENTRIES:
                fn = getattr(solver, name)
                self._rebind(fn, self._span(f"solver.{name}", "solver", fn,
                                            after=after.get(name)))
            for cls, name in GRID_SETUP:
                fn = vars(cls)[name]
                self._set(cls, name, self._span(f"mesh.{name}", "mesh", fn))
            for name in DCT:
                fn = getattr(scipy.fft, name)
                wrapper = self._span(f"fft.{name}", "fft", fn)
                self._rebind(fn, wrapper)
                self._set(scipy.fft, name, wrapper)
            self._rebind(solver.RunState, self._state_class(solver.RunState))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Point every gmshadow module's binding of `original` at `replacement`."""
        for mod in _gmshadow_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, replacement)

    # -------------------------------------------------------------- spans

    def _span(self, span, layer, fn, after=None):
        stack, calls, seconds, self_s = self._stack, self.calls, self.seconds, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[span] += 1
                seconds[span] += dt
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_advance(self, args, kwargs, result) -> None:
        config = args[0] if args else kwargs["config"]
        for state in self._new_states:
            self.runs[id(state)] = RunTrace(config, state, samples=len(result[0]))
        self._new_states.clear()

    def _after_step(self, args, kwargs, result) -> None:
        config = args[0] if args else kwargs["config"]
        if id(result) not in self.runs:
            self.runs[id(result)] = RunTrace(config, result)
        self._new_states.clear()

    def _state_class(self, base):
        new_states = self._new_states

        class TracedRunState(base):
            """Records (clock at step start, dt) for every step taken."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.__dict__["dt_trace"] = []
                new_states.append(self)

            def __setattr__(self, name, value):
                trace = self.__dict__.get("dt_trace")
                if trace is not None:
                    if name == "clock":
                        self.__dict__["clock_at_step_start"] = self.clock
                    elif name == "dt_last":
                        trace.append((self.__dict__["clock_at_step_start"], value))
                super().__setattr__(name, value)

        return TracedRunState

    # ------------------------------------------------------------ results

    def run_counts(self, run: RunTrace) -> dict:
        """steps, samples and diffusion-capped steps of one traced run."""
        if self.installed:
            raise RuntimeError("restore the tracer before reading its results")
        cfg = run.config
        h2 = cfg.grid.h_min ** 2
        capped = 0
        for clock, dt in run.state.dt_trace:
            if cfg.system.t_native:
                d_eff = cfg.params.D1 / evolution.scale_factor(cfg.law, clock) ** 2
            else:
                d_eff = cfg.params.D1
            capped += dt == h2 / (4.0 * d_eff) * cfg.dt_safety
        return {"steps": run.state.steps, "samples": run.samples,
                "diffusion_capped": capped, "dt_records": len(run.state.dt_trace)}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of everything traced since construction."""
        counts = [self.run_counts(r) for r in self.runs.values()]
        steps = sum(c["steps"] for c in counts)
        records = sum(c["dt_records"] for c in counts)
        capped = sum(c["diffusion_capped"] for c in counts)

        def total(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        grid = {f"mesh.{name}" for _, name in GRID_SETUP}
        solver_self = self.self_s["solver"]
        return {
            "solver.steps": steps,
            "solver.samples": sum(c["samples"] for c in counts),
            "solver.dt_diffusion_cap_share": capped / records if records else 0.0,
            "solver.self_s": solver_self,
            "solver.self_us_per_step": 1e6 * solver_self / steps if steps else 0.0,
            "solver.step_calls": self.calls["solver.step"],
            "params.derive_indices_calls": self.calls["params.derive_indices"],
            "mesh.grid_setup_calls": sum(self.calls[k] for k in grid),
            "mesh.grid_setup_s": sum(self.seconds[k] for k in grid),
            "fft.dct_calls": total(self.calls, "fft."),
            "fft.dct_s": total(self.seconds, "fft."),
            "evolution.calls": total(self.calls, "evolution."),
            "evolution.s": total(self.seconds, "evolution."),
            "initdata.build_initial_s": self.seconds["initdata.build_initial"],
            "analysis.detect_blowup_s": self.seconds["analysis.detect_blowup"],
            "analysis.bernoulli_bound_s": self.seconds["analysis.bernoulli_bound"],
            "mesh.write_field_csv_s": self.seconds["mesh.write_field_csv"],
            "cli.self_s": self.self_s["cli"],
        }
