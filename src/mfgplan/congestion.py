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
has the regularized solutions as fixed points.  The driver continues in a
decreasing ``eps`` schedule, warm-starting each level.  A level whose start
already passes one sweep of ``S`` is accepted (the trivial instance is
exact in one sweep); otherwise Newton-Krylov solves the stationarity system
from the start.  Iterating ``S`` itself does not pay: its local Lipschitz
constant is on the order of ``1/eps`` on any nontrivial instance.

The sixth-order form uses *undivided* difference stencils: one factor of
``Delta_t^j0 Delta_x^j1`` per multi-index with ``j0 + j1 = 6``, windows
shrinking near the time ends (the natural boundary conditions are imposed
weakly through the quadratic form).  Undivided stencils keep the form
O(1) on the roughest grid modes instead of O(1/h^12), which is all the
regularization role requires; divided stencils would make the inner
systems numerically unsolvable at these grid sizes.  Circulant x factors
and row-constant weights split the phi inner system over spatial Fourier
modes into banded matrices in t, solved exactly (:class:`~mfgplan.grid.ModeBanded`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import solveh_banded
from scipy.optimize import root
from scipy.sparse.linalg import cg  # noqa: F401  (perfbench/tracing.py spans congestion.cg by name)

from .grid import (
    Field,
    Grid,
    ModeBanded,
    TimeSeries,
    antiderivative_x,
    dt_interior,
    dx_periodic,
    integrate_xt,
    st_weights,
    time_weights,
)
from .planning import (
    PlanningSpec,
    PotentialPair,
    SolveReport,
    boundary_slices,
    clip_to_floor,
    initial_guess,
    project_tangent,
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


def _default_schedule(k0: float) -> tuple[float, ...]:
    """Geometric continuation levels from min(k0, 0.1) down to 1e-4."""
    eps = min(k0, 1e-1)
    out = []
    while eps > 1e-4:
        out.append(eps)
        eps *= 0.5
    out.append(1e-4)
    return tuple(out)


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
    eps_schedule: tuple[float, ...] | None = None
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
            m = getattr(self, name)
            if m is None:
                object.__setattr__(self, name, np.ones(g.nx))
                continue
            m = np.asarray(m, dtype=float)
            if m.shape != (g.nx,):
                raise ValueError(f"{name} has shape {m.shape}, expected ({g.nx},)")
            if np.min(m) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
            if abs(g.dx * np.sum(m) - 1.0) > 1e-8:
                raise ValueError(f"{name} must integrate to 1")
            object.__setattr__(self, name, m)
        if self.eps_schedule is None:
            object.__setattr__(self, "eps_schedule", _default_schedule(self.k0))
        sched = tuple(float(e) for e in self.eps_schedule)
        if not sched or any(e <= 0 for e in sched):
            raise ValueError("eps schedule must be nonempty and positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("eps schedule must be strictly decreasing")
        if sched[0] > self.k0:
            raise ValueError(f"eps schedule starts above k0={self.k0:.3e}")
        object.__setattr__(self, "eps_schedule", sched)
        if self.tol_fp <= 0:
            raise ValueError("tolerance must be positive")

    @property
    def k0(self) -> float:
        return float(min(np.min(self.m0), np.min(self.mT)))

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

    def planning_view(self, floor: float) -> PlanningSpec:
        # reuse the planning module's slice pinning, interpolant and
        # density-floor repair machinery on this instance's marginals; the
        # cap keeps the view constructible when a schedule level equals k0
        floor = min(floor, (1.0 - 1e-9) * self.k0)
        return PlanningSpec(grid=self.grid, m0=self.m0, mT=self.mT, floor=floor)


@dataclass(frozen=True)
class OperatorImage:
    """Images of the two operator components at one pair."""

    f1: Field
    f2: TimeSeries


# ---------------------------------------------------------------------------
# undivided difference stencils for the sixth-order quadratic form


def _regularizer_bands(grid: Grid) -> np.ndarray:
    """:class:`ModeBanded` bands of ``R = sum_j0 Dt^j0' Dt^j0 (x) Dx^j1' Dx^j1``.

    Mode ``k`` sees ``sum_j0 lambda_k^(6-j0) T_j0``: ``lambda_k = 4 sin^2(pi k/nx)``
    is the symbol of ``Dx' Dx`` and ``T_j0`` the normal matrix of ``Dt^j0``.
    """
    nt = grid.nt
    lam = 4.0 * np.sin(np.pi * np.arange(grid.nx // 2 + 1) / grid.nx) ** 2
    bands = np.zeros((7, nt, lam.size))
    for j0 in range(7):
        diff = np.diff(np.eye(nt), n=j0, axis=0)
        normal = diff.T @ diff
        for d in range(j0 + 1):
            bands[d, : nt - d] += np.diagonal(normal, -d)[:, None] * lam ** (6 - j0)
    return bands


def regularizer_apply(grid: Grid, phi: Field) -> Field:
    """Normal operator of the seven mixed sixth-difference stencils."""
    return ModeBanded(grid, _regularizer_bands(grid)).apply(phi)


def regularizer_quadratic(grid: Grid, phi: Field) -> float:
    """Value of the sixth-difference quadratic form (no measure factor)."""
    return float(np.sum(phi * regularizer_apply(grid, phi)))


def _inner_operator(spec: CongestionSpec, eps: float) -> ModeBanded:
    """``eps (W + dt dx R)``: the row-constant weights keep the mode structure."""
    g = spec.grid
    bands = eps * g.dt * g.dx * _regularizer_bands(g)
    bands[0] += eps * g.dx * time_weights(g)[:, None]
    return ModeBanded(g, bands)


# ---------------------------------------------------------------------------
# the operator


def _fields(spec: CongestionSpec, pp: PotentialPair) -> tuple[Field, Field]:
    g = spec.grid
    y = dx_periodic(g, pp.phi) + 1.0
    z = dt_interior(g, pp.phi) + pp.q[:, None]
    return y, z


def _images(spec: CongestionSpec, y: Field, z: Field) -> OperatorImage:
    g = spec.grid
    rho = z * y ** (spec.alpha - 1.0)
    sigma = z * z * y ** (spec.alpha - 2.0)
    f1 = (
        -dt_interior(g, rho)
        + 0.5 * dx_periodic(g, sigma)
        - dx_periodic(g, y**spec.mu)
    )
    f2 = g.dx * np.sum(rho, axis=1)
    return OperatorImage(f1=f1, f2=f2)


def apply_F(spec: CongestionSpec, pp: PotentialPair, eps: float | None = None) -> OperatorImage:
    """Evaluate both operator components with the shared discrete stencils.

    Requires a strictly positive density; when ``eps`` is given the
    stricter bound ``phi_x + 1 >= eps`` is enforced (the precondition of
    the regularized inner problems).
    """
    y, z = _fields(spec, pp)
    lower = 0.0 if eps is None else eps
    if np.min(y) < lower or (eps is None and np.min(y) <= 0.0):
        i, j = np.unravel_index(int(np.argmin(y)), y.shape)
        raise ValueError(
            f"density below the feasible level at node (t_index={i}, x_index={j}): "
            f"{y[i, j]:.6e} < {max(lower, 0.0):.6e}"
        )
    return _images(spec, y, z)


def monotonicity_gap(spec: CongestionSpec, a: PotentialPair, b: PotentialPair) -> float:
    """Space-time pairing of image differences with argument differences.

    With the shared stencils and pinned rows this equals the weighted sum
    of the pointwise certificate plus the monotone power term, so up to
    rounding it is nonnegative for strictly feasible pairs.
    """
    g = spec.grid
    ia = apply_F(spec, a)
    ib = apply_F(spec, b)
    w = st_weights(g)
    wt = time_weights(g)
    return float(
        np.sum(w * (ia.f1 - ib.f1) * (a.phi - b.phi))
        + np.sum(wt * (ia.f2 - ib.f2) * (a.q - b.q))
    )


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


def inner_phi_solve(spec: CongestionSpec, eps: float, pp0: PotentialPair) -> Field:
    """Minimize the frozen-operator quadratic over the constraint set.

    Exact solve on the pinned/mean-free subspace (``eps (W + dt dx R)``
    factored once per call), then a density repair if the floor
    ``phi_x + 1 >= eps`` is violated.  The returned field never has a
    larger objective than the time-linear interpolant of the boundary
    slices (which is the fallback candidate).
    """
    g = spec.grid
    f1 = apply_F(spec, pp0, eps=eps).f1
    pview = spec.planning_view(floor=eps)
    lift = _lift(spec)
    interp = initial_guess(pview).phi

    op = _inner_operator(spec, eps)
    phi = lift + op.solve(-(st_weights(g) * f1 + op.apply(lift)))

    if np.min(dx_periodic(g, phi) + 1.0) < eps:
        phi = clip_to_floor(pview, phi)
    # the interpolant is always feasible; keep the better of the two so the
    # published descent property holds even when the repair was engaged
    if inner_phi_objective(spec, eps, f1, phi) > inner_phi_objective(spec, eps, f1, interp):
        phi = interp
    return phi


def _q_system(spec: CongestionSpec, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """SPD tridiagonal matrix eps*(mass + stiffness) in banded storage."""
    g = spec.grid
    wt = time_weights(g)
    diag = wt.copy()
    diag[:-1] += 1.0 / g.dt
    diag[1:] += 1.0 / g.dt
    off = np.full(g.nt - 1, -1.0 / g.dt)
    ab = np.zeros((2, g.nt))
    ab[0] = eps * diag
    ab[1, :-1] = eps * off
    return ab, wt


def inner_q_solve(spec: CongestionSpec, eps: float, pp0: PotentialPair) -> TimeSeries:
    """Solve eps (q - q'') = -F2(pp0) with natural (Neumann) ends."""
    g = spec.grid
    f2 = apply_F(spec, pp0, eps=eps).f2
    ab, wt = _q_system(spec, eps)
    rhs = -wt * f2
    q = solveh_banded(ab, rhs, lower=True)
    # direct solve on an SPD tridiagonal system; guard the residual anyway
    resid = _tridiag_apply(ab, q) - rhs
    denom = max(float(np.max(np.abs(rhs))), 1.0)
    if float(np.max(np.abs(resid))) > 1e-10 * denom:
        raise RuntimeError("tridiagonal solve residual above tolerance")
    return q


def _tridiag_apply(ab: np.ndarray, q: TimeSeries) -> TimeSeries:
    d = ab[0]
    o = ab[1, :-1]
    out = d * q
    out[:-1] += o * q[1:]
    out[1:] += o * q[:-1]
    return out


def _sweep_residual(spec: CongestionSpec, eps: float, pp: PotentialPair) -> float:
    """Sup-norm distance of ``pp`` from its inner-solver sweep ``S(pp)``."""
    phi, q = inner_phi_solve(spec, eps, pp), inner_q_solve(spec, eps, pp)
    return max(float(np.max(np.abs(phi - pp.phi))), float(np.max(np.abs(q - pp.q))))


def _lift(spec: CongestionSpec) -> Field:
    """Zero field carrying the two pinned boundary rows."""
    g = spec.grid
    s0, sT = boundary_slices(g, spec.m0, spec.mT)
    out = np.zeros((g.nt, g.nx))
    out[0], out[-1] = s0, sT
    return out


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


def apriori_diagnostics(spec: CongestionSpec, eps: float, pp: PotentialPair) -> dict:
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
    """
    g = spec.grid
    phi0 = initial_guess(spec.planning_view(floor=min(eps, spec.k0 * 0.5))).phi
    y0 = dx_periodic(g, phi0) + 1.0
    z0 = dt_interior(g, phi0)

    k1 = float(np.max(y0))
    m_sq = float(np.max(np.abs(z0))) ** 2
    c1 = young_sup(k1, spec.mu, spec.mu)
    c2 = young_sup(m_sq / spec.k0, spec.alpha, spec.mu)
    w = st_weights(g)
    r0 = float(np.sum(w * phi0 * phi0)) + g.dt * g.dx * regularizer_quadratic(g, phi0)
    bound = 2.0 * (0.5 * eps * r0 + g.horizon * (c1 + c2))

    y, z = _fields(spec, pp)
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


def _newton_polish(
    spec: CongestionSpec, eps: float, pp: PotentialPair
) -> tuple[PotentialPair, str, int]:
    """Newton-Krylov on the stationarity system of the regularized problem.

    The fixed points of the inner-solver sweep are exactly the zeros of

        P [ eps (W phi + dtdx R phi) + W F1(phi, q) ] = 0 ,
        eps (M + K) q + M F2(phi, q) = 0 ,

    with phi = lift + P psi parametrized over the unconstrained field psi
    (P the tangent projection, lift the pinned rows), provided the density
    floor is inactive at the solution.  Solving this directly makes each
    Krylov evaluation one operator application instead of one full inner
    sweep.  Trial points may dip below the floor, so the power fields
    are evaluated with their bases floored at eps and every floored node
    is counted; the count is returned for reporting, with a status:
    ``"converged"``, scipy's message, or the error a bad trial point raised
    (``pp`` is then returned).  The caller always re-verifies the result
    with a genuine inner-solver sweep.
    """
    g = spec.grid
    n_phi = g.nt * g.nx
    lift = _lift(spec)
    w = st_weights(g)
    scale = g.dt * g.dx
    op = _inner_operator(spec, eps)
    ab, wt = _q_system(spec, eps)
    floored = [0]

    def unpack(v: np.ndarray) -> PotentialPair:
        phi = lift + project_tangent(g, v[:n_phi].reshape(g.nt, g.nx))
        return PotentialPair(phi, v[n_phi:])

    def residual(v: np.ndarray) -> np.ndarray:
        p = unpack(v)
        y, z = _fields(spec, p)
        low = y < eps
        floored[0] += int(np.count_nonzero(low))
        img = _images(spec, np.where(low, eps, y), z)
        r_phi = project_tangent(g, op.apply(p.phi) + w * img.f1) / scale
        r_q = (_tridiag_apply(ab, p.q) + wt * img.f2) / g.dt
        return np.concatenate([r_phi.ravel(), r_q])

    x0 = np.concatenate([project_tangent(g, pp.phi).ravel(), pp.q])
    try:
        sol = root(
            residual,
            x0,
            method="krylov",
            options={
                "fatol": 1e-10,
                "maxiter": 200,
                "disp": False,
                "jac_options": {"inner_maxiter": 40},
            },
        )
    except (ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return pp, f"{type(exc).__name__}: {exc}", floored[0]
    cand = unpack(sol.x)
    if np.min(dx_periodic(g, cand.phi) + 1.0) < eps:
        cand = PotentialPair(clip_to_floor(spec.planning_view(floor=eps), cand.phi), cand.q)
    return cand, "converged" if sol.success else str(sol.message), floored[0]


def recover_congestion(spec: CongestionSpec, pp: PotentialPair) -> MFGSolution:
    """Reconstruct (u, m) and the congestion-form PDE diagnostics.

    Mirrors the quadratic-cost recovery: the slope field is exact from the
    transformation, the stored residuals re-differentiate the stored ``u``
    so they measure discretization error honestly.
    """
    g = spec.grid
    y, z = _fields(spec, pp)
    if np.min(y) <= 0.0:
        i, j = np.unravel_index(int(np.argmin(y)), y.shape)
        raise ValueError(
            f"degenerate density at node (t_index={i}, x_index={j}): "
            f"density {y[i, j]:.6e} is not positive"
        )
    m = y
    u = antiderivative_x(g, y ** (spec.alpha - 1.0) * z)
    ux = dx_periodic(g, u)
    hj = -dt_interior(g, u) + ux**2 / (2.0 * m**spec.alpha) - m**spec.mu
    c = hj.mean(axis=1)
    theta = cumulative_trapezoid(c, dx=g.dt, initial=0.0)
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
    from .planning import random_feasible_pair

    g = spec.grid
    pview = spec.planning_view(floor=min(1e-8, spec.k0 / 4))
    w = st_weights(g)
    wt = time_weights(g)
    out = np.empty(n_tests)
    for k in range(n_tests):
        test = random_feasible_pair(pview, rng, amplitude=amplitude)
        img = apply_F(spec, test)
        out[k] = float(
            np.sum(w * img.f1 * (test.phi - pp.phi))
            + np.sum(wt * img.f2 * (test.q - pp.q))
        )
    return out


def solve_congestion(spec: CongestionSpec) -> SolveReport:
    """Continuation fixed-point driver; returns the report with the solution.

    Per level: one sweep of ``S`` from the (floor-clipped) start; if its
    residual is above ``tol_fp``, a Newton-Krylov solve of the same
    fixed-point equation runs from the start and its result is verified by
    one more sweep.  The level keeps whichever of the start and the
    candidate has the lower verified residual, so a failed solve never
    poisons the continuation.  The report's trace carries every verified
    residual (at most two per level); ``converged`` means every level met
    ``tol_fp``.
    """
    g = spec.grid
    t_start = time.perf_counter()
    pp = PotentialPair(initial_guess(spec.planning_view(floor=spec.k0 * 0.5)).phi,
                       np.zeros(g.nt))

    trace: list[float] = []
    per_eps: list[dict] = []
    floored_total = 0

    for eps in spec.eps_schedule:
        pp = PotentialPair(clip_to_floor(spec.planning_view(floor=eps), pp.phi), pp.q)
        resid = _sweep_residual(spec, eps, pp)
        residuals = [resid]
        newton_status = None
        if resid > spec.tol_fp:
            cand, newton_status, floored = _newton_polish(spec, eps, pp)
            floored_total += floored
            residuals.append(_sweep_residual(spec, eps, cand))
            if residuals[-1] < resid:
                pp, resid = cand, residuals[-1]
        trace.extend(residuals)
        level_diag = apriori_diagnostics(spec, eps, pp)
        level_diag.update(
            eps=eps,
            iterations=len(residuals),
            fp_residual=resid,
            converged=resid <= spec.tol_fp,
            used_newton=newton_status is not None,
            newton_status=newton_status,
        )
        per_eps.append(level_diag)

    fp_residual = per_eps[-1]["fp_residual"]
    solution = recover_congestion(spec, pp)
    diagnostics = {
        "per_eps": per_eps,
        "fp_residual_sup": fp_residual,
        "floored_nodes": floored_total,
        "kappa": spec.kappa,
        "kappa_alternate": spec.kappa_alternate,
        "min_density": float(np.min(solution.m)),
    }
    return SolveReport(
        pair=pp,
        objective_trace=np.asarray(trace),
        grad_norm=fp_residual,
        iterations=len(trace),
        converged=all(level["converged"] for level in per_eps),
        wall_time=time.perf_counter() - t_start,
        diagnostics=diagnostics,
        solution=solution,
    )
