"""Uniform space-time lattices on [0, T] x the unit circle.

Discretization backbone shared by every solver in this package.  Fields live
on a uniform ``(nt, nx)`` lattice over ``[0, T] x [0, 1)`` with periodic wrap
in space.  Space derivatives are central circulant stencils; the time
derivative is central inside the interval with first-order one-sided closures
at ``t = 0`` and ``t = T``.

The closure order is deliberate: paired with trapezoid-in-time /
rectangle-in-space quadrature, this stencil satisfies a *discrete*
integration-by-parts identity exactly,

    sum_i w_i (a_i (Dt b)_i + (Dt a)_i b_i) = a_N b_N - a_0 b_0,

with no truncation remainder.  The monotonicity certificate of the congestion
solver reduces to a pointwise inequality only because this identity has no
error term, so do not "upgrade" the endpoint stencils to second order without
revisiting that proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "TimeSeries",
    "dx_periodic",
    "dxx_periodic",
    "dt_interior",
    "dt_transpose",
    "time_stencil_matrix",
    "integrate_x",
    "integrate_xt",
    "antiderivative_x",
    "antiderivative_t",
    "time_weights",
    "st_weights",
    "ModeBanded",
    "factor_tridiagonal",
]

# A Field is a real array of shape (nt, nx): row = time node, column = space
# node.  A TimeSeries is a real array of shape (nt,).  Plain ndarrays keep the
# solvers free of wrapper ceremony; every operator takes the owning grid
# explicitly and checks shapes.
Field = np.ndarray
TimeSeries = np.ndarray


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over ``[0, horizon] x [0, 1)`` with periodic space.

    Parameters
    ----------
    nt : int
        Number of time nodes including both endpoints, at least 3.
    nx : int
        Number of space nodes on the circle, at least 4.  Node ``nx`` is
        identified with node 0, so ``dx = 1 / nx`` and the rectangle rule
        integrates the constant 1 to exactly 1.
    horizon : float
        Final time ``T > 0``; ``dt = T / (nt - 1)``.
    """

    nt: int
    nx: int
    horizon: float

    def __post_init__(self) -> None:
        if self.nt < 3:
            raise ValueError(f"need at least 3 time nodes, got nt={self.nt}")
        if self.nx < 4:
            raise ValueError(f"need at least 4 space nodes, got nx={self.nx}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / (self.nt - 1)

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def t(self) -> TimeSeries:
        """Time nodes ``i * dt``, shape ``(nt,)``."""
        return np.linspace(0.0, self.horizon, self.nt)

    @property
    def x(self) -> np.ndarray:
        """Space nodes ``j * dx`` in ``[0, 1)``, shape ``(nx,)``."""
        return np.arange(self.nx) / self.nx

    def zeros(self) -> Field:
        return np.zeros((self.nt, self.nx))


def _as_field(grid: Grid, f: np.ndarray) -> Field:
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.nt, grid.nx):
        raise ValueError(
            f"field shape {f.shape} does not match grid ({grid.nt}, {grid.nx})"
        )
    return f


def dx_periodic(grid: Grid, f: Field) -> Field:
    """Central first x-derivative with periodic wrap.

    Exactly skew-adjoint under plain lattice sums (the circulant stencil's
    adjointness defect is zero), and its output has spatial mean exactly 0 by
    telescoping.
    """
    f = _as_field(grid, f)
    return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * grid.dx)


def dxx_periodic(grid: Grid, f: Field) -> Field:
    """Three-point periodic Laplacean in x; symmetric, annihilates constants.  Taken
    difference-first, ``(fwd - roll(fwd, 1)) / dx^2`` with ``fwd = roll(f, -1) - f``
    (increments of close neighbours are exact)."""
    f = _as_field(grid, f)
    fwd = np.roll(f, -1, axis=1) - f
    return (fwd - np.roll(fwd, 1, axis=1)) / grid.dx**2


def dt_interior(grid: Grid, f: Field) -> Field:
    """Time derivative: central in the interior, first-order one-sided at the ends.

    Parameters
    ----------
    f : Field
        Shape ``(nt, nx)``.

    Returns
    -------
    Field
        Row 0 is ``(f[1] - f[0]) / dt``, row ``nt - 1`` is
        ``(f[-1] - f[-2]) / dt``, interior rows are central differences.
        Exact for data affine in t; second-order accurate in the interior.

    Notes
    -----
    Keep the closures first order — see the module docstring for the
    summation-by-parts identity that depends on them.
    """
    f = _as_field(grid, f)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * grid.dt)
    out[0] = (f[1] - f[0]) / grid.dt
    out[-1] = (f[-1] - f[-2]) / grid.dt
    return out


def time_stencil_matrix(grid: Grid) -> np.ndarray:
    """Dense ``(nt, nt)`` matrix of :func:`dt_interior` acting on one column."""
    n, dt = grid.nt, grid.dt
    m = np.zeros((n, n))
    m[0, 0], m[0, 1] = -1.0 / dt, 1.0 / dt
    m[-1, -2], m[-1, -1] = -1.0 / dt, 1.0 / dt
    idx = np.arange(1, n - 1)
    m[idx, idx - 1] = -0.5 / dt
    m[idx, idx + 1] = 0.5 / dt
    return m


def dt_transpose(grid: Grid, f: Field) -> Field:
    """Apply the plain (unweighted) transpose of :func:`dt_interior` along time."""
    f = _as_field(grid, f)
    out = np.zeros_like(f)
    half = f[1:-1] / (2.0 * grid.dt)
    out[2:] += half
    out[:-2] -= half
    end0, end1 = f[0] / grid.dt, f[-1] / grid.dt
    out[0] -= end0
    out[1] += end0
    out[-2] -= end1
    out[-1] += end1
    return out


def time_weights(grid: Grid) -> TimeSeries:
    """Trapezoid quadrature weights on the time axis, shape ``(nt,)``."""
    w = np.full(grid.nt, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


def st_weights(grid: Grid) -> Field:
    """Space-time quadrature weights ``W[i, j] = w_i * dx``, shape ``(nt, nx)``."""
    return np.repeat(time_weights(grid)[:, None] * grid.dx, grid.nx, axis=1)


def integrate_x(grid: Grid, f: np.ndarray):
    """Integral over the circle by the rectangle rule.

    A field integrates to the length-``nt`` vector of its row integrals, a
    single ``(nx,)`` slice to a scalar.  On a uniform periodic mesh the
    rectangle rule coincides with the trapezoid rule and is exact for full
    trigonometric periods.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        if f.shape != (grid.nx,):
            raise ValueError(f"slice length {f.shape[0]} != nx={grid.nx}")
        return grid.dx * float(np.sum(f))
    return grid.dx * np.sum(_as_field(grid, f), axis=1)


def integrate_xt(grid: Grid, f: Field) -> float:
    """Space-time integral: trapezoid in t, rectangle in x.  Exact for affine-in-t data."""
    f = _as_field(grid, f)
    return float(np.sum(time_weights(grid)[:, None] * f) * grid.dx)


def antiderivative_x(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Cumulative spatial integral of one slice, anchored to 0 at ``x = 0``.

    Parameters
    ----------
    f : array, shape (nx,) or (nt, nx)
        Node values of the integrand on the circle; a full field is
        integrated slice by slice.

    Returns
    -------
    array, same shape as ``f``
        ``F[j] ~ int_0^{x_j} f``, with ``F[0] = 0``, by the cumulative
        trapezoid rule.  (``f = 1`` maps to the exact node values ``j * dx``;
        zero-mean integrands wrap up to an O(dx^2) closure defect.)
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != grid.nx or f.ndim > 2:
        raise ValueError(f"slice length {f.shape} != nx={grid.nx}")
    out = np.empty_like(f)
    out[..., 0] = 0.0
    np.cumsum(0.5 * grid.dx * (f[..., 1:] + f[..., :-1]), axis=-1, out=out[..., 1:])
    return out


def antiderivative_t(grid: Grid, c: TimeSeries) -> TimeSeries:
    """Cumulative trapezoid rule in t from 0 at ``t = 0``: scipy's ``cumulative_trapezoid``."""
    return np.concatenate(([0.0], np.cumsum(grid.dt * (c[1:] + c[:-1]) / 2.0)))


@dataclass(frozen=True, eq=False)
class ModeBanded:
    """Symmetric operator, periodic in x and banded in t, split over Fourier modes.

    ``bands[d, i, k] = A_k[i + d, i]`` (scipy's lower banded storage, shape
    ``(bandwidth + 1, nt, nx // 2 + 1)``) is the t-matrix acting on mode ``k``
    of the real FFT along x.  :meth:`factor`, the one solve path, inverts on
    the tangent space of :func:`mfgplan.planning.project_tangent`, which drops
    mode 0 and the end rows and leaves the interior of each ``A_k`` (one banded
    Cholesky each; the planning metric is factored once per ``minimize``, each
    congestion phi system once per level).
    """

    grid: Grid
    bands: np.ndarray

    def apply(self, f: Field) -> Field:
        """Operator image of ``f``: banded product per mode, all modes at once."""
        coef = np.fft.rfft(_as_field(self.grid, f), axis=1)
        out = self.bands[0] * coef
        for d in range(1, self.bands.shape[0]):
            b = self.bands[d, :-d]
            out[d:] += b * coef[:-d]
            out[:-d] += b * coef[d:]
        return np.fft.irfft(out, n=self.grid.nx, axis=1)

    def factor(self):
        """Factor each mode once (LAPACK ``zpbtrf``); return the solve ``rhs -> u``.

        ``u = P u`` solves ``P A u = P rhs`` (``P`` the tangent projection) by
        ``zpbtrs`` per mode: the halves of LAPACK's banded ``zpbsv``, bit for bit.
        Raises ``np.linalg.LinAlgError`` for a block that is not positive definite.
        Binds LAPACK on first use, as :func:`factor_tridiagonal` does: no scipy at import.
        """
        from scipy.linalg.lapack import zpbtrf, zpbtrs
        factors = []
        for k in range(1, self.bands.shape[2]):
            chol, info = zpbtrf(self.bands[:, 1:-1, k].astype(complex), lower=1)
            if info > 0:
                raise np.linalg.LinAlgError(f"mode {k}: leading minor {info} not positive definite")
            factors.append(chol)

        def solve(rhs: Field) -> Field:
            coef = np.fft.rfft(_as_field(self.grid, rhs), axis=1)
            out = np.zeros_like(coef)
            for k, chol in enumerate(factors, start=1):
                out[1:-1, k] = zpbtrs(chol, coef[1:-1, k], lower=1)[0]
            return np.fft.irfft(out, n=self.grid.nx, axis=1)

        return solve


def factor_tridiagonal(ab: np.ndarray):
    """Factor an SPD tridiagonal ``ab`` (lower banded, ``(2, n)``) once by LAPACK ``dpttrf``;
    the returned ``rhs -> x`` runs ``dpttrs``: the halves of the ``dptsv`` that ``solveh_banded(ab,
    rhs, lower=True)`` runs, bit for bit, and like it raises ``ValueError`` for a non-finite
    ``rhs`` and ``np.linalg.LinAlgError`` for a matrix that is not positive definite."""
    from scipy.linalg.lapack import dpttrf, dpttrs
    d, e, info = dpttrf(ab[0], ab[1, :-1])
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} not positive definite")
    return lambda rhs: dpttrs(d, e, np.asarray_chkfinite(rhs))[0]
