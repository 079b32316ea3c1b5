"""Structured grids on the unit square and the unit N-ball, with Neumann
Laplacians and quadrature for domain averages.

The rectangle uses the standard 5-point stencil with ghost-node reflection
(mirror across the boundary node), exact for even extensions, and offers
the exact implicit solve (I - nu*Lap)^-1 in its cosine eigenbasis.  The radial
operator u_RR + (N-1)/R * u_R is discretised in conservation form with
cell-face fluxes, which makes the discrete Green identity exact, reproduces
N*u_RR(0) at the origin, and is exact on quadratics.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .params import _check_integer

Stencil = Callable[[np.ndarray], np.ndarray]
Resolvent = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class RectGrid:
    """Uniform node-centred grid on [0,1]^2; node (i,j) at (i*hx, j*hy).

    Field values are stored as arrays of shape (ny, nx), axis 0 along y.
    """

    nx: int
    ny: int

    def __post_init__(self) -> None:
        _check_integer("nx", self.nx)
        _check_integer("ny", self.ny)
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"need nx, ny >= 3, got {self.nx}x{self.ny}")

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny - 1)

    @property
    def h_min(self) -> float:
        return min(self.hx, self.hy)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny)

    def quad_weights(self) -> np.ndarray:
        w = np.outer(_trapezoid(self.ny), _trapezoid(self.nx))
        return w / w.sum()

    def column_weights(self) -> np.ndarray:
        """The weights of a field constant along x on its column: the
        y-trapezoid weights, normalised to sum to 1 up to rounding."""
        wy = _trapezoid(self.ny)
        return wy / wy.sum()

    def average_operator(self) -> Callable[[np.ndarray], float]:
        """average(x) = the quadrature average of a float field x on the
        grid, or of the (ny, 1) column that stands for a field constant
        along x.  A column, and a field that passes _x_invariant, is
        averaged on its first column: _weighted_sum(column_weights(),
        column), one np.dot of ny entries.  Every other field is
        _weighted_sum(quad_weights(), x), flattened.  So a column has the
        mean of the field it stands for, bit for bit."""
        w, wy = self.quad_weights().ravel(), self.column_weights()

        def average(x: np.ndarray) -> float:
            if x.shape[1] == 1 or _x_invariant(x):
                return _weighted_sum(wy, np.ascontiguousarray(x[:, 0]))
            return _weighted_sum(w, x.ravel())

        return average

    def laplacian_operator(self) -> Stencil:
        """5-point Laplacian on (ny, nx) arrays, Neumann by ghost-node reflection.

        The ghost-framed copy of u lives in one flat buffer with row stride
        nx+2, so the four neighbours of every node in the ny interior rows
        are 1-D views shifted by +-1 and +-(nx+2).  The stencil runs over
        those contiguous views, ghost columns included (on 128x128 a pass
        takes about a third of its time on strided 2-D slices), and the
        interior is copied out.  The buffer is zeroed at build, so the never-written
        corners keep the ghost-column results finite.

        The operator owns the buffer and two scratch arrays that every call
        overwrites, so one operator must not be called from two threads at
        once.  Each call returns a fresh array.
        """
        nx, ny = self.nx, self.ny
        hx2, hy2 = self.hx**2, self.hy**2
        s = nx + 2
        n = ny * s
        flat = np.zeros((ny + 2) * s)
        e = flat.reshape(ny + 2, s)
        centre = flat[s : s + n]
        east, west = flat[s + 1 : s + 1 + n], flat[s - 1 : s - 1 + n]
        north, south = flat[2 * s : 2 * s + n], flat[:n]
        two_u = np.empty(n)
        acc = np.empty(n)
        interior = acc.reshape(ny, s)[:, 1:-1]

        def lap(u: np.ndarray) -> np.ndarray:
            # mirror across the boundary nodes; the corners are never written
            e[1:-1, 1:-1] = u
            e[1:-1, 0] = u[:, 1]
            e[1:-1, -1] = u[:, -2]
            e[0, 1:-1] = u[1]
            e[-1, 1:-1] = u[-2]
            # ((E - 2u) + W)/hx2 + ((N - 2u) + S)/hy2, N the next row and S
            # the previous one
            np.multiply(centre, 2.0, out=two_u)
            np.subtract(east, two_u, out=acc)
            np.add(acc, west, out=acc)
            np.divide(acc, hx2, out=acc)
            np.subtract(north, two_u, out=two_u)
            np.add(two_u, south, out=two_u)
            np.divide(two_u, hy2, out=two_u)
            np.add(acc, two_u, out=acc)
            return interior.copy()

        return lap

    def column_laplacian_operator(self) -> Stencil:
        """laplacian_operator() for a field constant along x, on its (ny, 1)
        column: lap(u[:, :1]) equals laplacian_operator()(u)[:, :1] bit for
        bit on a column without an infinity, and every column of that
        result is the same.

        A node's east and west neighbours are the node itself (the ghost
        columns mirror the constant rows too), so the 2-D stencil's x-term
        ((u - 2u) + u)/hx^2 is +0.0 for a finite u.  Where 2u overflows it
        is -inf, but then so is the y-term, and a NaN node makes both terms
        NaN.  So only the y-term ((N - 2u) + S)/hy^2 is formed, and +0.0
        added, which turns a -0.0 into the +0.0 of the 2-D sum.  A NaN
        result has the 2-D stencil's bits too, except at a NaN node next to
        a NaN of another payload or sign, where the two stencils may pick
        different NaNs.  The exception is a column holding +-inf: there
        the 2-D x-term (inf - inf) is NaN and the column's result an
        infinity; a step ends such a state NonFinite before its stencil
        either way.  The operator owns a ghost-framed buffer and a scratch
        array that every call overwrites, so one operator must not be
        called from two threads at once.  Each call returns a fresh array.
        """
        ny = self.ny
        hy2 = self.hy**2
        e = np.empty((ny + 2, 1))
        centre, north, south = e[1:-1], e[2:], e[:-2]
        two_u = np.empty((ny, 1))

        def lap(u: np.ndarray) -> np.ndarray:
            e[1:-1] = u
            e[0] = u[1]
            e[-1] = u[-2]
            np.multiply(centre, 2.0, out=two_u)
            out = np.subtract(north, two_u)
            np.add(out, south, out=out)
            np.divide(out, hy2, out=out)
            return np.add(out, 0.0, out=out)

        return lap

    def resolvent_operator(self) -> Resolvent:
        """solve(v, nu) = (I - nu*Lap)^-1 v for the 5-point Neumann Laplacian
        of laplacian_operator(), exact in its cosine eigenbasis.

        The type-I DCT matrix C of each axis (C @ C = 2(N-1) I) is built
        once, so a solve is four small matmuls: vhat = Cy v Cx^T, divided
        by 4(nx-1)(ny-1)(1 - nu*lam), then Cy vhat Cx^T.  A v that passes
        _x_invariant is solved by column_resolvent_operator() instead and
        the column widened by _widen, so the result is exactly constant
        along x too.  Each call returns a fresh array.
        """
        cx = _dct1_matrix(self.nx)
        cy = cx if self.ny == self.nx else _dct1_matrix(self.ny)
        cxt = cx.T
        ly = _dct1_eigenvalues(self.ny)
        lam = ly[:, None] + _dct1_eigenvalues(self.nx)[None, :]
        norm = 4.0 * (self.nx - 1) * (self.ny - 1)
        column = _column_solve(cy, ly)

        def solve(v: np.ndarray, nu: float) -> np.ndarray:
            if _x_invariant(v):
                return _widen(column(v[:, :1], nu), v.shape)
            vhat = cy @ v @ cxt
            vhat /= norm * (1.0 - nu * lam)
            return cy @ vhat @ cxt

        return solve

    def column_resolvent_operator(self) -> Resolvent:
        """resolvent_operator() for a field constant along x, on its (ny, 1)
        column: solve(v[:, :1], nu) equals resolvent_operator()(v, nu)[:, :1]
        bit for bit.

        On such a field Cx's first row sums to 2(nx-1), its other rows sum
        to 0, its first column is 1 and lx[0] = 0, so the solve is two
        matvecs, Cy ((Cy c) / (2(ny-1)(1 - nu*ly))).  Each call returns a
        fresh array.
        """
        return _column_solve(_dct1_matrix(self.ny), _dct1_eigenvalues(self.ny))


def _trapezoid(n: int) -> np.ndarray:
    """The trapezoid weights of n nodes spaced 1/(n-1) on [0, 1]."""
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


def _column_solve(cy: np.ndarray, ly: np.ndarray) -> Resolvent:
    norm = 2.0 * (len(ly) - 1)
    ly = ly[:, None]

    def solve(c: np.ndarray, nu: float) -> np.ndarray:
        # contiguous, so a strided column of a (ny, nx) array takes the same
        # BLAS path as a column array
        chat = cy @ np.ascontiguousarray(c)
        chat /= norm * (1.0 - nu * ly)
        return cy @ chat

    return solve


def _x_invariant(u: np.ndarray) -> bool:
    """Whether u, a (ny, nx) array of any memory order, is float64 and its
    every column equals its first bit for bit (signed zeros and NaN
    payloads included); other dtypes' bits do not view as int64.  Node
    (0, 1) is compared first, so a field that varies along x is usually
    told at one node; otherwise every column is compared with the first in
    one pass."""
    if u.dtype != np.float64:
        return False
    bits = u.view(np.int64)
    if bits.item(0, 0) != bits.item(0, 1):
        return False
    return bool((bits == bits[:, :1]).all())


def _widen(x: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """x itself when it has `shape`; otherwise the (ny, nx) float64 field, a
    fresh C-contiguous array, whose every column is the (ny, 1) column x:
    written into np.empty by slice assignment, which costs less than
    np.broadcast_to(x, shape).copy()."""
    if x.shape == shape:
        return x
    out = np.empty(shape)
    out[:] = x
    return out


def _dct1_eigenvalues(n: int) -> np.ndarray:
    """The eigenvalues (2cos(pi k/(n-1)) - 2)/h^2, h = 1/(n-1), of the 1-D
    Neumann 3-point Laplacian on n nodes, in the order of _dct1_matrix's
    rows; the first is exactly 0."""
    return (2.0 * np.cos(np.pi * np.arange(n) / (n - 1)) - 2.0) / (1.0 / (n - 1)) ** 2


def _dct1_matrix(n: int) -> np.ndarray:
    """Unnormalised type-I DCT as a matrix: y = C @ x matches
    scipy.fft.dct(x, type=1).  The phase k*n is reduced modulo 2(n-1) in
    integers so every cosine argument stays in [0, 2*pi)."""
    k = np.arange(n)
    c = 2.0 * np.cos(np.pi * (np.outer(k, k) % (2 * (n - 1))) / (n - 1))
    c[:, 0] /= 2.0
    c[:, -1] /= 2.0
    return c


@dataclass(frozen=True)
class RadialGrid:
    """Radial grid for the unit ball in R^N: M nodes on [0,1], node 0 at R=0.

    outer_bc selects the condition at R=1: "neumann" (default) or
    "dirichlet" (boundary node pinned by the solver; kept for side-by-side
    comparison only).
    """

    dim: int
    M: int
    outer_bc: str = "neumann"

    def __post_init__(self) -> None:
        _check_integer("dim", self.dim)
        if self.dim not in (1, 2, 3):
            raise ValueError(f"ambient dimension must be 1, 2 or 3, got {self.dim}")
        _check_integer("M", self.M)
        if self.M < 3:
            raise ValueError(f"need M >= 3 nodes, got {self.M}")
        if self.outer_bc not in ("neumann", "dirichlet"):
            raise ValueError(f"outer_bc must be neumann or dirichlet, got {self.outer_bc}")

    @property
    def h(self) -> float:
        return 1.0 / (self.M - 1)

    @property
    def h_min(self) -> float:
        return self.h

    @property
    def shape(self) -> tuple[int]:
        return (self.M,)

    @property
    def R(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.M)

    def cell_volumes(self) -> np.ndarray:
        """R^{N}-measure of the dual cells [R_i - h/2, R_i + h/2] ∩ [0,1].

        They sum to 1 up to rounding (0.9999999999999754 for N=3, M=512),
        so they are also the normalised quadrature weights for the ball
        average with weight N*R^(N-1).
        """
        rf = np.minimum(self.R + self.h / 2, 1.0)
        rb = np.maximum(self.R - self.h / 2, 0.0)
        return rf**self.dim - rb**self.dim

    def quad_weights(self) -> np.ndarray:
        return self.cell_volumes()

    def average_operator(self) -> Callable[[np.ndarray], float]:
        """average(x) = _weighted_sum(quad_weights(), x), the cell-volume
        average of a float field x for the measure N*R^(N-1) dR."""
        w = self.quad_weights()
        return lambda x: _weighted_sum(w, x)

    def face_areas(self) -> np.ndarray:
        """R^(N-1) at the M-1 interior cell faces R_i + h/2."""
        return (self.R[:-1] + self.h / 2) ** (self.dim - 1)

    def laplacian_operator(self) -> Stencil:
        """Conservative discretisation of u_RR + (N-1)/R * u_R on (M,) arrays.

        Flux form (1/R^(N-1)) d/dR (R^(N-1) u_R): zero flux at both ends by
        default.  At R=0 this reduces to the symmetry limit N*u_RR(0); interior
        rows agree with central differences to second order.  For a dirichlet
        outer boundary the last row is zeroed (the node is pinned elsewhere).

        The M-1 face fluxes face*(u[1:] - u[:-1])/h are written into a buffer
        padded with +0.0 before them and -0.0 after, so one difference of
        neighbouring entries and one divide by the cell volumes cover every
        row: f - (+0.0) and (-0.0) - f round to exactly f and -f, the end
        rows' one-sided values.  The operator owns that buffer, so one
        operator must not be called from two threads at once.  Each call
        returns a fresh array.
        """
        h = self.h
        face = self.face_areas()
        vol = self.cell_volumes() / self.dim
        dirichlet = self.outer_bc == "dirichlet"
        padded = np.zeros(self.M + 1)
        padded[-1] = -0.0
        flux, right, left = padded[1:-1], padded[1:], padded[:-1]

        def lap(u: np.ndarray) -> np.ndarray:
            np.subtract(u[1:], u[:-1], out=flux)
            np.multiply(face, flux, out=flux)
            np.divide(flux, h, out=flux)
            out = np.subtract(right, left)
            np.divide(out, vol, out=out)
            if dirichlet:
                out[-1] = 0.0
            return out

        return lap


Grid = RectGrid | RadialGrid


@dataclass
class Field:
    """Nodal values of one scalar concentration on a grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )


def laplacian_rect(f: Field) -> Field:
    """5-point Laplacian with Neumann boundaries via ghost-node reflection."""
    if not isinstance(f.grid, RectGrid):
        raise TypeError("laplacian_rect needs a Field on a RectGrid")
    return laplacian(f)


def laplacian_radial(f: Field) -> Field:
    """Conservative radial Laplacian; see RadialGrid.laplacian_operator."""
    if not isinstance(f.grid, RadialGrid):
        raise TypeError("laplacian_radial needs a Field on a RadialGrid")
    return laplacian(f)


def laplacian(f: Field) -> Field:
    """The grid's Laplacian applied to a field."""
    return Field(f.grid, f.grid.laplacian_operator()(f.values))


def mean(f: Field, power: float = 1.0) -> float:
    """Domain average (1/|Omega|) int f^power by the grid's quadrature.

    Rectangle: tensor trapezoid, or the normalised y-trapezoid on the first
    column when f^power is constant along x.  Ball: cell-volume weights for
    the measure N*R^(N-1) dR.  Every weight set is normalised to sum to 1
    up to rounding.  The kernel is the grid's average_operator(), the
    solver's too, so a field's mean here equals the solver's mean of it
    bit for bit.  Raises ValueError unless power is finite.
    """
    if not np.isfinite(power):
        raise ValueError(f"power must be finite, got {power}")
    if power < 0.0 and np.any(f.values <= 0.0):
        raise ValueError("negative power requires strictly positive values")
    return f.grid.average_operator()(_fast_pow(f.values, power))


# _weighted_sum's block length.  OpenBLAS splits a dot product over more
# than 10,000 entries across its thread pool, so the sum would depend on the
# thread count, and handing a 16,384-entry dot to a second thread can cost
# far more than the dot itself.  A block of 8,192 stays on the calling
# thread; on 128x128 the two blocks add up to what two threads compute.
_DOT_BLOCK = 8192


def _weighted_sum(w: np.ndarray, x: np.ndarray) -> float:
    """sum(w*x) of two flat arrays, the one weighted-mean kernel: dot
    products over blocks of _DOT_BLOCK entries, summed left to right (a
    single np.dot when there are at most _DOT_BLOCK entries)."""
    if w.size <= _DOT_BLOCK:
        return float(np.dot(w, x))
    m = float(np.dot(w[:_DOT_BLOCK], x[:_DOT_BLOCK]))
    for i in range(_DOT_BLOCK, w.size, _DOT_BLOCK):
        m += float(np.dot(w[i : i + _DOT_BLOCK], x[i : i + _DOT_BLOCK]))
    return m


def _fast_pow(u: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """u**e with multiply chains for small integer exponents (hot path).

    u itself when e = 1; otherwise the power is written into `out` when one
    is given, and into a fresh array when not."""
    if e == 1.0:
        return u
    if e == 2.0:
        return np.multiply(u, u, out=out)
    if e == 3.0:
        cube = np.multiply(u, u, out=out)
        return np.multiply(cube, u, out=cube)
    if e == 4.0:
        sq = np.multiply(u, u, out=out)
        return np.multiply(sq, sq, out=sq)
    return np.power(u, e, out=out)


def sup_norm(f: Field) -> float:
    """Maximum nodal value."""
    return float(f.values.max())


def write_field_csv(f: Field, path: str) -> None:
    """Rectangle: header "nx,ny" then row-major values, one per line.
    Radial: header "R,value" then two columns."""
    g = f.grid
    with open(path, "w") as fh:
        if isinstance(g, RectGrid):
            fh.write(f"{g.nx},{g.ny}\n")
            for v in f.values.ravel(order="C"):
                fh.write(f"{float(v)!r}\n")
        else:
            fh.write("R,value\n")
            for rr, v in zip(g.R, f.values):
                fh.write(f"{float(rr)!r},{float(v)!r}\n")


def _number(path: str, row: str, text: str) -> float:
    """float(text), a field of the data row `row`; ValueError naming the path
    and the row when it is not a number."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path} has a row {row!r}, whose {text!r} is not a number") from None


def read_field_csv(path: str, grid: Grid) -> Field:
    """Inverse of write_field_csv for a known grid.  ValueError, naming the
    path, for an empty file, for a rectangle file whose "nx,ny" header is
    not the grid's or that holds other than nx*ny values, for a radial file
    whose header is not "R,value", that has a row of other than two
    comma-separated fields, or whose R column is not the grid's R (compared
    exactly, as it was written by repr), and, naming the row too, for a
    value or R that is not a number.  The R column is the same on every
    ball dimension, so a file from a ball of another dimension with the
    same M cannot be told apart."""
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    if isinstance(grid, RectGrid):
        if lines[0] != f"{grid.nx},{grid.ny}":
            raise ValueError(
                f"{path} has header nx,ny = {lines[0]}, the grid is {grid.nx},{grid.ny}"
            )
        n = grid.nx * grid.ny
        if len(lines) - 1 != n:
            raise ValueError(f"{path} has {len(lines) - 1} values, not nx*ny = {n}")
        vals = np.array([_number(path, x, x) for x in lines[1:]])
        return Field(grid, vals.reshape(grid.shape))
    if lines[0] != "R,value":
        raise ValueError(f"{path} has header {lines[0]}, not the radial grid's R,value")
    for line in lines[1:]:
        if line.count(",") != 1:
            raise ValueError(f"{path} has a row {line!r}, not the two fields R,value")
    rows = [[_number(path, line, x) for x in line.split(",")] for line in lines[1:]]
    if [row[0] for row in rows] != grid.R.tolist():
        raise ValueError(
            f"{path} has an R column of {len(rows)} nodes that is not the grid's, "
            f"M = {grid.M}"
        )
    return Field(grid, np.array([row[1] for row in rows]))
