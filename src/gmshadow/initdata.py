"""Initial conditions: cosine-perturbed constant, spiky radial profile, constant."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mesh import Field, Grid, RadialGrid, RectGrid
from .params import _require_finite


class InitKind(Enum):
    COSINE_PLUS = "cosine"
    SPIKY = "spiky"
    CONSTANT = "constant"


@dataclass(frozen=True)
class InitSpec:
    """Which initial profile to build.

    COSINE_PLUS: cos(pi*y) + c on the square (c > 1 keeps it positive).
    SPIKY: lam * psi_delta(R) on the ball, where psi_delta = R^-a outside
    R=delta and a matching parabolic cap inside, a = 2/(p-1).
    CONSTANT: c everywhere.
    """

    kind: InitKind
    c: float = 2.0
    delta: float = 0.5
    lam: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self, ("c", "delta", "lam"))
        if self.kind is InitKind.COSINE_PLUS and self.c <= 1.0:
            raise ValueError(f"cosine profile needs c > 1 for positivity, got c={self.c}")
        if self.kind is InitKind.CONSTANT and self.c <= 0.0:
            raise ValueError(f"constant profile needs c > 0, got c={self.c}")
        if self.kind is InitKind.SPIKY:
            if not 0.0 < self.delta < 1.0:
                raise ValueError(f"spiky profile needs 0 < delta < 1, got {self.delta}")
            if self.lam <= 0.0:
                raise ValueError(f"spiky profile needs lambda > 0, got {self.lam}")


def _spike_exponent(p: float) -> float:
    """The spike's decay exponent a = 2/(p-1), which needs p > 1."""
    if p <= 1.0:
        raise ValueError(f"spike exponent a = 2/(p-1) needs p > 1, got p={p}")
    return 2.0 / (p - 1.0)


def spike_profile(R: np.ndarray, delta: float, p: float) -> np.ndarray:
    """psi_delta(R): R^-a for delta <= R <= 1, parabolic cap below, a = 2/(p-1).

    Continuous with continuous slope at R=delta; non-increasing on [0,1].
    """
    a = _spike_exponent(p)
    R = np.asarray(R, dtype=float)
    outer = np.power(np.maximum(R, delta), -a)
    inner = delta**-a * (1.0 + a / 2.0) - (a / 2.0) * delta ** -(a + 2.0) * R**2
    return np.where(R >= delta, outer, inner)


def _check_fits(spec: InitSpec, grid: Grid, p: float | None) -> None:
    """Reject a profile that the grid (or the exponent p) cannot hold."""
    if spec.kind is InitKind.COSINE_PLUS and not isinstance(grid, RectGrid):
        raise ValueError("cosine profile is defined on the unit square")
    if spec.kind is InitKind.SPIKY:
        if not isinstance(grid, RadialGrid):
            raise ValueError("spiky profile is defined on the radial ball")
        if p is None:
            raise ValueError("spiky profile needs the kinetic exponent p for a = 2/(p-1)")
        _spike_exponent(p)


def build_initial(spec: InitSpec, grid: Grid, p: float | None = None) -> Field:
    """Evaluate the profile nodally; result is strictly positive."""
    _check_fits(spec, grid, p)
    if spec.kind is InitKind.CONSTANT:
        return Field(grid, np.full(grid.shape, spec.c))
    if spec.kind is InitKind.COSINE_PLUS:
        vals = (np.cos(np.pi * grid.y) + spec.c)[:, None] * np.ones((1, grid.nx))
        return Field(grid, vals)
    return Field(grid, spec.lam * spike_profile(grid.R, spec.delta, p))
