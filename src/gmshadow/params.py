"""Kinetic parameters, derived interaction indices and regime predicates.

The activator-inhibitor kinetics u^p/v^q, u^r/v^s are summarised by three
indices: the net self-activation pi = (p-1)/r, the net cross-inhibition
gamma = q/(s+1), and omega = p - r*gamma.  omega < 1 is the Turing regime
(homogeneous states are ODE-stable, diffusion can destabilise); omega > 1
is the anti-Turing regime where the mean itself can blow up.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


def _check_integer(name: str, value, low: int | None = None) -> None:
    """A size, a dimension or a count is an integer, not a float or a bool,
    and at least `low` when one is given."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _require_finite(obj, names) -> None:
    """Raise ValueError naming the first attribute in `names` that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name}={value}")


@dataclass(frozen=True)
class Parameters:
    """Kinetic exponents and physical constants of the two-species model.

    p is allowed at or below 1 (some published experiments use p=1 or
    p=1.4); predicates that need p>1 check it themselves.
    """

    p: float
    q: float
    r: float
    s: float
    D1: float = 1.0
    D2: float = 1.0
    tau: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, (f.name for f in fields(self)))
        if self.s <= -1.0:
            raise ValueError(f"s must exceed -1 (gamma finite), got s={self.s}")
        if self.r <= 0.0:
            raise ValueError(f"r must be positive (pi finite), got r={self.r}")
        if self.q < 0.0:
            raise ValueError(f"q must be nonnegative, got q={self.q}")
        if self.D1 <= 0.0:
            raise ValueError(f"D1 must be positive, got D1={self.D1}")
        if self.D2 <= 0.0:
            raise ValueError(f"D2 must be positive, got D2={self.D2}")
        if self.tau < 0.0:
            raise ValueError(f"tau must be nonnegative, got tau={self.tau}")


@dataclass(frozen=True)
class DerivedIndices:
    """gamma = q/(s+1), omega = p - r*gamma, pi = (p-1)/r."""

    gamma: float
    omega: float
    pi: float


def derive_indices(params: Parameters) -> DerivedIndices:
    """Compute the interaction indices from the kinetic exponents."""
    gamma = params.q / (params.s + 1.0)
    omega = params.p - params.r * gamma
    pi = (params.p - 1.0) / params.r
    return DerivedIndices(gamma=gamma, omega=omega, pi=pi)


def turing_condition(idx: DerivedIndices) -> bool:
    """True iff p - r*gamma < 1, i.e. the Turing (diffusion-driven) regime."""
    return idx.omega < 1.0


def global_existence_condition(idx: DerivedIndices, params: Parameters, n_dim: int) -> bool:
    """Sufficient condition for global-in-time solutions of the non-local equation.

    Requires pi < min(1, 2/N, (1/2)(1 - 1/r)) and 0 < gamma < 1.  Raises
    ValueError unless n_dim is an integer >= 1.
    """
    _check_integer("dimension", n_dim)
    if n_dim < 1:
        raise ValueError(f"dimension must be >= 1, got {n_dim}")
    bound = min(1.0, 2.0 / n_dim, 0.5 * (1.0 - 1.0 / params.r))
    return idx.pi < bound and 0.0 < idx.gamma < 1.0


def diffusion_blowup_condition(idx: DerivedIndices, params: Parameters, n_dim: int) -> bool:
    """Hypotheses for diffusion-driven blow-up from spiky data on the unit ball.

    N >= 3, 1 <= r <= p, p > N/(N-2), 2/N < pi < gamma, gamma > 1.
    At N <= 2 the constraint p > N/(N-2) is treated as unsatisfiable.
    Raises ValueError unless n_dim is an integer >= 1.
    """
    _check_integer("dimension", n_dim, 1)
    if n_dim < 3:
        return False
    return (
        1.0 <= params.r <= params.p
        and params.p > n_dim / (n_dim - 2.0)
        and 2.0 / n_dim < idx.pi < idx.gamma
        and idx.gamma > 1.0
    )
