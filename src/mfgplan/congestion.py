"""First-order planning with a density-power congestion cost.

The congestion system is not variational in the potential pair, so instead
of minimizing one functional this module works with the nonlinear operator
``A = (F1, F2)`` built from the potential transformation.  ``A`` is
monotone (the pointwise certificate in :func:`pointwise_certificate` plus
the monotone power term), which is what gives meaning to the weak-solution
pairing test at the end.

The solver regularizes: at level ``eps`` the pair must satisfy

    eps * (phi + sixth-order form) + F1(pair) = 0      (constrained)
    eps * (q - q'')              + F2(pair) = 0      (Neumann ends)

whose self-map ``S`` (solve both with the operator frozen at the input)
has the regularized solutions as fixed points.  The driver solves the one
level ``eps = min(k0, 1e-4)`` from the time-linear interpolant.  A start
that already passes one sweep of ``S`` is accepted (the trivial instance
is exact in one sweep); otherwise Newton-Krylov solves the stationarity
system from the start.  Iterating
``S`` itself does not pay: its local Lipschitz constant is on the order of
``1/eps`` on any nontrivial instance.  The Krylov solves are
preconditioned by the level's system linearised at the uniform state,
which adds the planning metric (``L'' = 1``, ``g' = mu``) to the phi block
and ``M`` to the q block.

The sixth-order form uses *undivided* difference stencils: one factor of
``Delta_t^j0 Delta_x^j1`` per multi-index with ``j0 + j1 = 6``, windows
shrinking near the time ends (the natural boundary conditions are imposed
weakly through the quadratic form).  Undivided stencils keep the form
O(1) on the roughest grid modes instead of O(1/h^12), which is all the
regularization role requires; divided stencils would make the inner
systems numerically unsolvable at these grid sizes.  Circulant x factors
and row-constant weights split the phi inner system and the preconditioner's
phi block over spatial Fourier modes into banded matrices in t, each
factored once per level (:class:`~mfgplan.grid.ModeBanded`, :func:`_level`).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from importlib import import_module

import numpy as np
from scipy.linalg import solveh_banded

from .grid import (
    Field,
    Grid,
    ModeBanded,
    TimeSeries,
    antiderivative_t,
    antiderivative_x,
    dt_interior,
    dx_periodic,
    integrate_xt,
    st_weights,
    time_weights,
)
from .planning import (
    PotentialPair,
    SolveReport,
    _metric_bands,
    check_density,
    check_marginal,
    clip_to_floor,
    initial_guess,
    potential_fields,
    project_tangent,
    random_feasible_pair,
)
from .recovery import MFGSolution

__all__ = [
    "CongestionSpec",
    "OperatorImage",
    "apply_F",
    "monotonicity_gap",
    "pointwise_certificate",
    "inner_phi_solve",
    "inner_phi_objective",
    "inner_q_solve",
    "solve_congestion",
    "recover_congestion",
    "weak_certificate",
    "apriori_diagnostics",
    "young_sup",
]


def __getattr__(name: str):
    # the benchmark's pin: perfbench/tracing.py spans congestion.root and .cg by name.  Unused
    # here, they resolve on first look-up (PEP 562): start-up imports no scipy.optimize or .sparse
    if name not in ("root", "cg"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = "scipy.optimize" if name == "root" else "scipy.sparse.linalg"
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class CongestionSpec:
    """Instance description for the congestion planning solver.

    ``alpha`` weights the density in the kinetic term, ``mu`` is the
    congestion power; the solvable range is ``alpha in (0, 2)``, ``mu > 0``
    with ``alpha < mu + 1``.  Marginals default to uniform.
    """

    grid: Grid
    alpha: float = 0.5
    mu: float = 1.0
    m0: np.ndarray | None = None
    mT: np.ndarray | None = None
    tol_fp: float = 1e-6

    def __post_init__(self):
        g = self.grid
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha={self.alpha} outside (0, 2)")
        if self.mu <= 0.0:
            raise ValueError(f"mu={self.mu} must be positive")
        if not self.alpha < self.mu + 1.0:
            raise ValueError(f"need alpha < mu + 1, got {self.alpha} >= {self.mu + 1}")
        if g.nt < 7:
            raise ValueError("sixth differences in time need nt >= 7")
        for name in ("m0", "mT"):
            object.__setattr__(self, name, check_marginal(g, getattr(self, name), name))
        if not 0 < self.tol_fp < np.inf:
            raise ValueError("tolerance must be positive and finite")

    @property
    def k0(self) -> float:
        return float(min(np.min(self.m0), np.min(self.mT)))

    @property
    def eps(self) -> float:
        """The regularization level solved: ``1e-4``, capped at ``k0``."""
        return min(self.k0, 1e-4)

    @property
    def kappa(self) -> float:
        """Limiting integrability exponent, as stated with the existence result."""
        return min(2 * (self.mu + 1) / (self.mu + 2 - self.alpha), self.mu + 1)

    @property
    def kappa_alternate(self) -> float:
        """Variant exponent appearing in the a-priori estimate for alpha >= 1.

        The two published forms disagree for alpha in (1, 2); both are
        recorded for reporting and neither is asserted by tests.
        """
        return 2 * (self.mu + 1) / (self.mu + 3 - self.alpha)


@dataclass(frozen=True)
class OperatorImage:
    """Images of the two operator components at one pair."""

    f1: Field
    f2: TimeSeries


# ---------------------------------------------------------------------------
# undivided difference stencils for the sixth-order quadratic form


@lru_cache(maxsize=8)
def _regularizer_bands(grid: Grid) -> np.ndarray:
    """:class:`ModeBanded` bands of ``R = sum_j0 Dt^j0' Dt^j0 (x) Dx^j1' Dx^j1``.

    Mode ``k`` sees ``sum_j0 lambda_k^(6-j0) T_j0``: ``lambda_k = 4 sin^2(pi k/nx)``
    is the symbol of ``Dx' Dx`` and ``T_j0`` the normal matrix of ``Dt^j0``.
    Built once per grid and shared read-only.
    """
    nt = grid.nt
    lam = 4.0 * np.sin(np.pi * np.arange(grid.nx // 2 + 1) / grid.nx) ** 2
    bands = np.zeros((7, nt, lam.size))
    for j0 in range(7):
        diff = np.diff(np.eye(nt), n=j0, axis=0)
        normal = diff.T @ diff
        for d in range(j0 + 1):
            bands[d, : nt - d] += np.diagonal(normal, -d)[:, None] * lam ** (6 - j0)
    bands.flags.writeable = False
    return bands


def regularizer_apply(grid: Grid, phi: Field) -> Field:
    """Normal operator of the seven mixed sixth-difference stencils."""
    return ModeBanded(grid, _regularizer_bands(grid)).apply(phi)


def regularizer_quadratic(grid: Grid, phi: Field) -> float:
    """Value of the sixth-difference quadratic form (no measure factor)."""
    return float(np.sum(phi * regularizer_apply(grid, phi)))


# ---------------------------------------------------------------------------
# the operator


def _images(spec: CongestionSpec, y: Field, z: Field) -> OperatorImage:
    g = spec.grid
    rho = z * y ** (spec.alpha - 1.0)
    sigma = z * z * y ** (spec.alpha - 2.0)
    f1 = -dt_interior(g, rho) + 0.5 * dx_periodic(g, sigma) - dx_periodic(g, y**spec.mu)
    f2 = g.dx * np.sum(rho, axis=1)
    return OperatorImage(f1=f1, f2=f2)


def apply_F(spec: CongestionSpec, pp: PotentialPair, eps: float | None = None) -> OperatorImage:
    """Evaluate both operator components with the shared discrete stencils.

    Requires a strictly positive density; when ``eps`` is given the
    stricter bound ``phi_x + 1 >= eps`` is enforced (the precondition of
    the regularized inner problems).
    """
    z, y = potential_fields(spec.grid, pp, 0)
    check_density(y, 0.0 if eps is None else eps, "density below the feasible level")
    return _images(spec, y, z)


def monotonicity_gap(spec: CongestionSpec, a: PotentialPair, b: PotentialPair) -> float:
    """Space-time pairing of image differences with argument differences.

    With the shared stencils and pinned rows this equals the weighted sum
    of the pointwise certificate plus the monotone power term, so up to
    rounding it is nonnegative for strictly feasible pairs.
    """
    ia, ib = apply_F(spec, a), apply_F(spec, b)
    return _pairing(spec.grid, ia.f1 - ib.f1, ia.f2 - ib.f2, a.phi - b.phi, a.q - b.q)


def _pairing(g: Grid, f1: Field, f2: TimeSeries, dphi: Field, dq: TimeSeries) -> float:
    """``<f1, dphi>_W + <f2, dq>_wt``: an image paired with a difference of pairs."""
    return float(np.sum(st_weights(g) * f1 * dphi) + np.sum(time_weights(g) * f2 * dq))


def pointwise_certificate(ya, za, yb, zb, alpha: float):
    """Scalar inequality backing monotonicity, evaluated elementwise.

    For positive densities ``ya, yb`` and any ``za, zb`` the returned
    expression is nonnegative: the cross terms are dominated through the
    Cauchy inequality and the monotonicity of ``y -> y^(2-alpha)`` against
    ``y -> y^alpha``.
    """
    ya, za, yb, zb = np.broadcast_arrays(ya, za, yb, zb)
    rho_a = za * ya ** (alpha - 1.0)
    rho_b = zb * yb ** (alpha - 1.0)
    sig_a = za * za * ya ** (alpha - 2.0)
    sig_b = zb * zb * yb ** (alpha - 2.0)
    return (rho_a - rho_b) * (za - zb) - 0.5 * (sig_a - sig_b) * (ya - yb)


# ---------------------------------------------------------------------------
# inner solvers


def inner_phi_objective(spec: CongestionSpec, eps: float, f1: Field, phi: Field) -> float:
    """Quadratic inner objective: eps/2 (mass + sixth form) + <F1, phi>."""
    g = spec.grid
    w = st_weights(g)
    mass = float(np.sum(w * phi * phi))
    reg = g.dt * g.dx * regularizer_quadratic(g, phi)
    return 0.5 * eps * (mass + reg) + float(np.sum(w * f1 * phi))


@dataclass(frozen=True)
class _Level:
    """The systems of level ``eps``, built and factored once.

    ``lift`` is the zero field carrying the pinned rows, ``interp`` the
    time-linear interpolant (:func:`~mfgplan.planning.initial_guess`); ``op``
    is ``eps (W + dt dx R)`` with its factored tangent-space ``solve``, ``ab``
    the SPD tridiagonal q-block ``eps (M + K)`` (lower banded), ``wt`` is ``M``.
    ``precondition`` applies the inverse of the Newton-Krylov Jacobian at the
    uniform state (:func:`_newton_polish`).
    """

    eps: float
    lift: Field
    interp: Field
    op: ModeBanded
    solve: Callable[[Field], Field]
    ab: np.ndarray
    wt: TimeSeries
    precondition: Callable[[np.ndarray], np.ndarray]


def _level(spec: CongestionSpec, eps: float) -> _Level:
    g = spec.grid
    interp = initial_guess(spec).phi
    lift = g.zeros()
    lift[0], lift[-1] = interp[0], interp[-1]
    wt = time_weights(g)
    bands = eps * g.dt * g.dx * _regularizer_bands(g)
    bands[0] += eps * g.dx * wt[:, None]
    op = ModeBanded(g, bands)
    diag = wt.copy()  # eps (M + K): trapezoid mass plus Neumann stiffness, lower banded
    diag[:-1] += 1.0 / g.dt
    diag[1:] += 1.0 / g.dt
    ab = np.zeros((2, g.nt))
    ab[0] = eps * diag
    ab[1, :-1] = eps * (-1.0 / g.dt)
    lin = bands.copy()  # W F1 linearised at y = 1, z = 0: the planning metric, L'' = 1, g' = mu
    lin[:3] += _metric_bands(g, 0, 1.0, spec.mu)
    phi_block, q_block = ModeBanded(g, lin).factor(), np.vstack([ab[0] + wt, ab[1]])

    def precondition(r: np.ndarray) -> np.ndarray:
        phi = phi_block(g.dt * g.dx * r[: g.nt * g.nx].reshape(g.nt, g.nx))
        return np.append(phi, solveh_banded(q_block, g.dt * r[phi.size :], lower=True))

    return _Level(eps, lift, interp, op, op.factor(), ab, wt, precondition)


def _sweep(spec: CongestionSpec, lvl: _Level, pp: PotentialPair) -> tuple[Field, TimeSeries]:
    """One sweep ``S(pp)`` of both inner solvers with the operator frozen at ``pp``.

    phi: exact solve on the pinned/mean-free subspace, then a density repair if
    the floor ``phi_x + 1 >= eps`` is violated; the interpolant replaces the
    result if its objective is lower.  q: the tridiagonal solve, its residual
    guarded.
    """
    g, eps = spec.grid, lvl.eps
    img = apply_F(spec, pp, eps=eps)
    f1 = img.f1
    phi = lvl.lift + lvl.solve(-(st_weights(g) * f1 + lvl.op.apply(lvl.lift)))
    if np.min(dx_periodic(g, phi) + 1.0) < eps:
        phi = clip_to_floor(g, eps, phi)
    # the interpolant is always feasible; keep the better of the two so the
    # published descent property holds even when the repair was engaged
    if inner_phi_objective(spec, eps, f1, phi) > inner_phi_objective(spec, eps, f1, lvl.interp):
        phi = lvl.interp
    rhs = -lvl.wt * img.f2
    q = solveh_banded(lvl.ab, rhs, lower=True)
    # direct solve on an SPD tridiagonal system; guard the residual anyway
    resid = _tridiag_apply(lvl.ab, q) - rhs
    if float(np.max(np.abs(resid))) > 1e-10 * max(float(np.max(np.abs(rhs))), 1.0):
        raise RuntimeError("tridiagonal solve residual above tolerance")
    return phi, q


def inner_phi_solve(spec: CongestionSpec, eps: float, pp0: PotentialPair) -> Field:
    """Minimize the frozen-operator quadratic over the constraint set.

    The phi half of :func:`_sweep` on the level's system ``eps (W + dt dx R)``.
    The returned field never has a larger objective than the time-linear
    interpolant of the boundary slices (which is the fallback candidate).
    """
    return _sweep(spec, _level(spec, eps), pp0)[0]


def inner_q_solve(spec: CongestionSpec, eps: float, pp0: PotentialPair) -> TimeSeries:
    """Solve eps (q - q'') = -F2(pp0) with natural (Neumann) ends: the q half of :func:`_sweep`."""
    return _sweep(spec, _level(spec, eps), pp0)[1]


def _tridiag_apply(ab: np.ndarray, q: TimeSeries) -> TimeSeries:
    out = ab[0] * q
    out[:-1] += ab[1, :-1] * q[1:]
    out[1:] += ab[1, :-1] * q[:-1]
    return out


def _sweep_residual(spec: CongestionSpec, lvl: _Level, pp: PotentialPair) -> float:
    """Sup-norm distance of ``pp`` from its sweep ``S(pp)``."""
    phi, q = _sweep(spec, lvl, pp)
    return max(float(np.max(np.abs(phi - pp.phi))), float(np.max(np.abs(q - pp.q))))


# ---------------------------------------------------------------------------
# a-priori diagnostics


def young_sup(a: float, p: float, mu: float) -> float:
    """sup over y >= 0 of a*y^p - y^(mu+1)/4, finite for p < mu+1."""
    if a <= 0.0:
        return 0.0
    if p <= 0.0:
        return a
    ystar = (4.0 * a * p / (mu + 1.0)) ** (1.0 / (mu + 1.0 - p))
    return a * ystar**p * (mu + 1.0 - p) / (mu + 1.0)


def _apriori_constants(spec: CongestionSpec, pp0: PotentialPair) -> tuple[float, float, float]:
    """The Young suprema ``c1``, ``c2`` and the energy ``r0`` of the interpolant ``pp0``."""
    g = spec.grid
    z0, y0 = potential_fields(g, pp0, 0)
    c1 = young_sup(float(np.max(y0)), spec.mu, spec.mu)
    c2 = young_sup(float(np.max(np.abs(z0))) ** 2 / spec.k0, spec.alpha, spec.mu)
    w = st_weights(g)
    r0 = float(np.sum(w * pp0.phi * pp0.phi)) + g.dt * g.dx * regularizer_quadratic(g, pp0.phi)
    return c1, c2, r0


def apriori_diagnostics(spec: CongestionSpec, eps: float, pp: PotentialPair,
                        constants: tuple | None = None) -> dict:
    """Evaluate the three energy integrals bounded at regularized solutions.

    Reported integrals: the congestion energy of the density, the
    eps-weighted quadratic energy of the pair, and the integrability-order
    integral of the time derivative and ``q`` at the exponent of the
    matching alpha branch.  The constant compared against comes from the
    interpolant's data alone: test the stationarity relation with the
    interpolant, integrate by parts (the shared pinned rows cancel the
    boundary terms exactly), and absorb the cross terms by two Young
    inequalities with closed-form suprema.  Only the first two integrals
    are covered by that constant; the third is reported without a bound.
    ``constants``: :func:`_apriori_constants`, of the interpolant if not given.
    """
    g = spec.grid
    w = st_weights(g)
    c1, c2, r0 = constants or _apriori_constants(spec, initial_guess(spec))
    bound = 2.0 * (0.5 * eps * r0 + g.horizon * (c1 + c2))

    y = potential_fields(g, pp, 0)[1]
    mu_energy = float(integrate_xt(g, y ** (spec.mu + 1.0)))
    e_phi = float(np.sum(w * pp.phi**2)) + g.dt * g.dx * regularizer_quadratic(g, pp.phi)
    dq = np.diff(pp.q) / g.dt
    e_q = float(np.sum(time_weights(g) * pp.q**2)) + g.dt * float(np.sum(dq * dq))
    eps_energy = eps * (e_phi + e_q)
    p = spec.kappa if spec.alpha <= 1.0 else spec.kappa_alternate
    zt = dt_interior(g, pp.phi)
    deriv_energy = float(
        integrate_xt(g, np.abs(zt) ** p)
        + float(np.sum(time_weights(g) * np.abs(pp.q) ** p))
    )
    return {
        "mu_energy": mu_energy,
        "eps_energy": eps_energy,
        "deriv_energy": deriv_energy,
        "deriv_exponent": p,
        "bound": bound,
        "satisfied": bool(mu_energy <= bound and eps_energy <= bound),
    }


# ---------------------------------------------------------------------------
# driver

_NEWTON_MAX_STEPS, _GMRES_MAX_ITERS = 200, 40  # Newton steps a solve, GMRES iterations a step


def _gmres(matvec, b, precondition, rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """GMRES from 0 for ``matvec(x) = b != 0``, right-preconditioned (Saad & Schultz 1986).

    Arnoldi with modified Gram-Schmidt and a Hessenberg least-squares solve, until
    ``|b - matvec(x)| <= rtol |b|``, breakdown or ``maxiter`` steps; returns ``(x, iterations)``."""
    beta = np.linalg.norm(b)
    basis, steps, hess = [b / beta], [], np.zeros((maxiter + 1, maxiter))
    for j in range(maxiter):
        steps.append(precondition(basis[j]))
        w = matvec(steps[j])
        for i, v in enumerate(basis):
            hess[i, j] = v @ w
            w = w - hess[i, j] * v
        hess[j + 1, j] = np.linalg.norm(w)
        h, r = hess[: j + 2, : j + 1], np.append(beta, np.zeros(j + 1))
        y = np.linalg.lstsq(h, r, rcond=None)[0]
        if hess[j + 1, j] == 0.0 or np.linalg.norm(r - h @ y) <= rtol * beta:
            break
        basis.append(w / hess[j + 1, j])
    return np.array(steps).T @ y, j + 1


def _newton_krylov(fun: Callable, x: np.ndarray, precondition: Callable,
                   ftol: float) -> tuple[np.ndarray, str, int, int]:
    """Inexact Newton for ``fun(x) = 0`` until ``max|fun(x)| <= ftol``: Kelley's ``nsoli``.

    As in Kelley, *Solving Nonlinear Equations with Newton's Method* (SIAM 2003, ch. 3),
    :func:`_gmres` on forward differences ``J v`` (steps ``sqrt(u) max(1, |x|)`` long) solves
    ``J d = -f`` to the Eisenstat-Walker forcing tolerance (SIAM J. Sci. Comput. 17, 1996);
    Armijo backtracking on ``|f|`` takes the step.  Returns ``(x, status, nit, krylov_iters)``,
    ``status`` ``"converged"``, ``"max_iters"`` or ``"line_search_failure"``."""
    f = fun(x)
    fnorm, eta, nit, krylov_iters = np.linalg.norm(f), 0.1, 0, 0
    while np.max(np.abs(f)) > ftol and nit < _NEWTON_MAX_STEPS:
        h = np.sqrt(np.finfo(float).eps) * max(1.0, float(np.max(np.abs(x))))
        d, k = _gmres(lambda v: (fun(x + h / np.linalg.norm(v) * v) - f) * np.linalg.norm(v) / h,
                      -f, precondition, eta, _GMRES_MAX_ITERS)
        krylov_iters += k
        for lam in 0.5 ** np.arange(20):
            trial = x + lam * d
            f_trial = fun(trial)
            if np.linalg.norm(f_trial) <= (1.0 - 1e-4 * lam) * fnorm:
                break
        else:
            return x, "line_search_failure", nit, krylov_iters
        trial_norm = np.linalg.norm(f_trial)
        ratio, x, f, fnorm, nit = trial_norm / fnorm, trial, f_trial, trial_norm, nit + 1
        # Eisenstat-Walker choice 2, gamma 0.9 and eta_max 0.1 (so its gamma eta^2 > 0.1
        # safeguard never applies), no tighter than reaching ftol needs (Kelley's safeguard)
        eta = min(0.1, max(0.9 * ratio**2, 0.5 * ftol / np.max(np.abs(f))))
    return x, "converged" if np.max(np.abs(f)) <= ftol else "max_iters", nit, krylov_iters


def _newton_polish(
    spec: CongestionSpec, lvl: _Level, pp: PotentialPair, counts: dict
) -> tuple[PotentialPair, str]:
    """Preconditioned Newton-Krylov on the stationarity system of the level.

    The fixed points of the inner-solver sweep are exactly the zeros of

        P [ eps (W phi + dtdx R phi) + W F1(phi, q) ] = 0 ,
        eps (M + K) q + M F2(phi, q) = 0 ,

    with phi = lift + P psi parametrized over the unconstrained field psi
    (P the tangent projection, lift the pinned rows), provided the density
    floor is inactive at the solution.  :func:`_newton_krylov` solves it, preconditioned by
    ``lvl.precondition`` (physics-based, Knoll & Keyes 2004, see :func:`_level`).  Trial
    points may dip below the floor, so the power fields are evaluated with their bases
    floored at eps.  Returns the candidate and a status: the solver's, or the error a bad
    trial point raised or why a non-finite result was discarded, ``pp`` then being
    returned.  ``counts`` receives ``newton_nit`` and ``krylov_iters`` (``None`` if the
    solve raised), ``newton_residual_evals`` and ``newton_floored_nodes``, the trial nodes
    whose density was floored.  The caller re-verifies with a sweep."""
    g, eps = spec.grid, lvl.eps
    n_phi = g.nt * g.nx
    w = st_weights(g)
    scale = g.dt * g.dx
    counts.update(newton_nit=None, krylov_iters=None, newton_residual_evals=0,
                  newton_floored_nodes=0)

    def unpack(v: np.ndarray) -> PotentialPair:
        phi = lvl.lift + project_tangent(g, v[:n_phi].reshape(g.nt, g.nx))
        return PotentialPair(phi, v[n_phi:])

    def residual(v: np.ndarray) -> np.ndarray:
        counts["newton_residual_evals"] += 1
        p = unpack(v)
        z, y = potential_fields(g, p, 0)
        low = y < eps
        counts["newton_floored_nodes"] += int(np.count_nonzero(low))
        img = _images(spec, np.where(low, eps, y), z)
        r_phi = project_tangent(g, lvl.op.apply(p.phi) + w * img.f1) / scale
        r_q = (_tridiag_apply(lvl.ab, p.q) + lvl.wt * img.f2) / g.dt
        return np.concatenate([r_phi.ravel(), r_q])

    x0 = np.concatenate([project_tangent(g, pp.phi).ravel(), pp.q])
    # a sweep maps a residual r to a fixed-point defect near 0.4 max|r| / eps: eps tol_fp / 100
    # keeps Newton's share under 1% of tol_fp.  r rounds at 0.05-0.26 u / (dt dx), up to 193x384
    ftol = max(eps * spec.tol_fp / 100, np.finfo(float).eps / scale)
    try:
        x, status, nit, krylov_iters = _newton_krylov(residual, x0, lvl.precondition, ftol)
    except (ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return pp, f"{type(exc).__name__}: {exc}"
    counts.update(newton_nit=nit, krylov_iters=krylov_iters)
    if not np.all(np.isfinite(x)):
        return pp, f"non-finite result discarded: {status}"
    cand = unpack(x)
    if np.min(dx_periodic(g, cand.phi) + 1.0) < eps:
        cand = PotentialPair(clip_to_floor(g, eps, cand.phi), cand.q)
    return cand, status


def recover_congestion(spec: CongestionSpec, pp: PotentialPair) -> MFGSolution:
    """Reconstruct (u, m) and the congestion-form PDE diagnostics.

    Mirrors the quadratic-cost recovery: the slope field is exact from the
    transformation, the stored residuals re-differentiate the stored ``u``
    so they measure discretization error honestly.
    """
    g = spec.grid
    z, m = potential_fields(g, pp, 0)
    check_density(m, 0.0, "degenerate density")
    u = antiderivative_x(g, m ** (spec.alpha - 1.0) * z)
    ux = dx_periodic(g, u)
    hj = -dt_interior(g, u) + ux**2 / (2.0 * m**spec.alpha) - m**spec.mu
    c = hj.mean(axis=1)
    theta = antiderivative_t(g, c)
    fp = dt_interior(g, m) - dx_periodic(g, ux * m ** (1.0 - spec.alpha))
    return MFGSolution(u=u, m=m, theta=theta, residual_hj=hj - c[:, None], residual_fp=fp)


def weak_certificate(
    spec: CongestionSpec,
    pp: PotentialPair,
    rng: np.random.Generator,
    n_tests: int = 50,
    amplitude: float = 0.3,
) -> np.ndarray:
    """Pairings <A[test], test - pp> for random smooth feasible test pairs.

    Nonnegativity (up to discretization slack) for every test pair is the
    discrete counterpart of the weak-solution property of ``pp``.
    """
    g = spec.grid
    out = np.empty(n_tests)
    for k in range(n_tests):
        test = random_feasible_pair(spec, rng, amplitude=amplitude)
        img = apply_F(spec, test)
        out[k] = _pairing(g, img.f1, img.f2, test.phi - pp.phi, test.q - pp.q)
    return out


def solve_congestion(spec: CongestionSpec) -> SolveReport:
    """Regularized fixed-point driver; returns the report with the solution.

    Solves the one level ``spec.eps`` from the (floor-clipped) time-linear
    interpolant: one sweep of ``S`` from the start; if its residual is above
    ``tol_fp``, a Newton-Krylov solve of the same fixed-point equation runs
    from the start and its result is verified by one more sweep.  The solve
    keeps whichever of the start and the candidate has the lower verified
    residual.  The report's trace carries every verified residual (at most
    two); ``diagnostics.per_eps`` holds the level's a-priori integrals and
    its Newton-Krylov counts (see :func:`_newton_polish`; ``None`` and zeros
    when no solve ran) as its one entry.
    """
    t_start = time.perf_counter()
    eps = spec.eps
    lvl = _level(spec, eps)
    pp = PotentialPair(lvl.interp, np.zeros(spec.grid.nt))
    constants = _apriori_constants(spec, pp)
    pp = PotentialPair(clip_to_floor(spec.grid, eps, pp.phi), pp.q)
    resid = _sweep_residual(spec, lvl, pp)
    trace = [resid]
    newton_status = None
    counts = {"newton_nit": None, "krylov_iters": None, "newton_residual_evals": 0,
              "newton_floored_nodes": 0}
    if resid > spec.tol_fp:
        cand, newton_status = _newton_polish(spec, lvl, pp, counts)
        trace.append(_sweep_residual(spec, lvl, cand))
        if trace[-1] < resid:
            pp, resid = cand, trace[-1]
    level = apriori_diagnostics(spec, eps, pp, constants)
    level.update(
        **counts,
        eps=eps,
        iterations=len(trace),
        fp_residual=resid,
        converged=resid <= spec.tol_fp,
        used_newton=newton_status is not None,
        newton_status=newton_status,
    )

    solution = recover_congestion(spec, pp)
    diagnostics = {
        "per_eps": [level],
        "fp_residual_sup": resid,
        "floored_nodes": counts["newton_floored_nodes"],
        "kappa": spec.kappa,
        "kappa_alternate": spec.kappa_alternate,
        "min_density": float(np.min(solution.m)),
    }
    return SolveReport(
        pair=pp,
        objective_trace=np.asarray(trace),
        grad_norm=resid,
        iterations=len(trace),
        converged=level["converged"],
        wall_time=time.perf_counter() - t_start,
        diagnostics=diagnostics,
        solution=solution,
    )
