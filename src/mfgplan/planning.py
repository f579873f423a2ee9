"""Convex variational solver for the planning problem in potential form.

The planning problem between two prescribed densities is solved here as a
convex minimization over a potential pair ``(phi, q)``: ``phi`` is a
space-time field pinned to prescribed slices at ``t = 0`` and ``t = T`` and
constrained to zero spatial mean at every time, ``q`` is one free value per
time node.  The objective couples the perspective integrand

    L0(phi_t + q - order * phi_xx, phi_x + 1)

with the spatial cost ``-V phi_x`` and the coupling ``G(phi_x + 1)``; the
density is ``m = phi_x + 1`` throughout.

Gradients are returned as quadrature-weighted (L2) Riesz representatives
rather than raw partial derivatives: the q-component of the gradient is then
literally the integral ``int_T dL/dq dx`` whose vanishing characterizes
stationarity in q, so the optimizer's termination test doubles as the
stationarity certificate.  The minimizer is projected gradient descent with
monotone Armijo backtracking, run in a fixed elliptic metric: descent
directions come from inverting the constant-coefficient part of the Hessian
at the uniform state (a banded Cholesky solve in time per x-mode), which
keeps the iteration count essentially grid-independent where a raw gradient
loop stalls on the stiff fine grids.  Every accepted iterate is feasible
(pinned rows exact, slice means zero, density at or above the configured
floor).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Field,
    Grid,
    ModeBanded,
    TimeSeries,
    antiderivative_x,
    dt_interior,
    dt_transpose,
    dx_periodic,
    dxx_periodic,
    integrate_x,
    integrate_xt,
    st_weights,
    time_stencil_matrix,
    time_weights,
)
from .model import MFGModel, build_model

__all__ = [
    "PlanningSpec",
    "PotentialPair",
    "SolveReport",
    "boundary_slices",
    "initial_guess",
    "objective",
    "gradient",
    "minimize",
    "project_tangent",
    "pair_inner",
    "clip_to_floor",
    "random_feasible_pair",
]


@dataclass(frozen=True)
class PlanningSpec:
    """Full description of one planning run.

    Parameters
    ----------
    grid : Grid
        Discretization; the horizon lives here.
    model : MFGModel
        Hamiltonian/Lagrangian/coupling/potential bundle.
    m0, mT : array, shape (nx,)
        Boundary densities.  Both must be strictly positive probability
        densities (unit integral within 1e-8).
    order : int
        0 for the first-order problem, 1 to include the ``-phi_xx`` shift
        in the perspective argument.
    max_iters, tol : optimizer budget and target sup-norm of the projected
        gradient.
    floor : float
        Strict interior floor for the density ``phi_x + 1``; keeps the
        perspective and its partials finite along the iteration.
    step0 : float
        First trial step of the line search.
    """

    grid: Grid
    model: MFGModel = field(default_factory=build_model)
    m0: np.ndarray = None
    mT: np.ndarray = None
    order: int = 0
    max_iters: int = 20000
    tol: float = 1e-8
    floor: float = 1e-8
    step0: float = 1.0

    def __post_init__(self) -> None:
        nx = self.grid.nx
        m0 = np.ones(nx) if self.m0 is None else np.asarray(self.m0, dtype=float)
        mT = np.ones(nx) if self.mT is None else np.asarray(self.mT, dtype=float)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "mT", mT)
        if self.order not in (0, 1):
            raise ValueError(f"order must be 0 or 1, got {self.order}")
        for name, m in (("m0", m0), ("mT", mT)):
            if m.shape != (nx,):
                raise ValueError(f"{name} must have shape ({nx},), got {m.shape}")
            if np.min(m) <= 0:
                raise ValueError(f"{name} must be strictly positive (min {np.min(m):.3e})")
            total = integrate_x(self.grid, m)
            if abs(total - 1.0) > 1e-8:
                raise ValueError(f"{name} must integrate to 1, got {total:.10f}")
        if not 0.0 <= self.floor < self.k0:
            raise ValueError(
                f"floor must satisfy 0 <= floor < min density {self.k0:.3e}, got {self.floor}"
            )
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters at least 1")

    @property
    def k0(self) -> float:
        """Uniform lower bound of the boundary densities."""
        return float(min(np.min(self.m0), np.min(self.mT)))


@dataclass(frozen=True)
class PotentialPair:
    """The unknown of the variational problem: a field plus a time series."""

    phi: Field
    q: TimeSeries


@dataclass
class SolveReport:
    """Outcome of one :func:`minimize` call."""

    pair: PotentialPair
    objective_trace: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    wall_time: float
    diagnostics: dict
    solution: object | None = None


def boundary_slices(grid: Grid, m0: np.ndarray, mT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinned potential slices at t = 0 and t = T.

    Each slice is the cumulative spatial integral of ``m - 1`` shifted to zero
    mean, so that its periodic difference recovers the density and the slice
    is gauge-consistent with the zero-mean constraint.

    Raises
    ------
    ValueError
        If either density does not integrate to 1 within 1e-8.
    """
    out = []
    for m in (np.asarray(m0, dtype=float), np.asarray(mT, dtype=float)):
        total = integrate_x(grid, m)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"density integrates to {total:.10f}, expected 1")
        s = antiderivative_x(grid, m - 1.0)
        out.append(s - integrate_x(grid, s))
    return out[0], out[1]


def initial_guess(spec: PlanningSpec) -> PotentialPair:
    """Linear-in-time interpolation of the pinned slices, with ``q = 0``.

    Feasible by construction: its density is the same convex combination of
    the (smoothed) boundary densities, hence bounded below by their common
    floor up to stencil error.
    """
    g = spec.grid
    s0, sT = boundary_slices(g, spec.m0, spec.mT)
    tau = (g.t / g.horizon)[:, None]
    phi = (1.0 - tau) * s0[None, :] + tau * sT[None, :]
    return PotentialPair(phi=phi, q=np.zeros(g.nt))


def _shifted_fields(spec: PlanningSpec, pp: PotentialPair) -> tuple[Field, Field]:
    """(z, y): the perspective arguments at the current pair."""
    g = spec.grid
    z = dt_interior(g, pp.phi) + pp.q[:, None]
    if spec.order == 1:
        z = z - dxx_periodic(g, pp.phi)
    y = dx_periodic(g, pp.phi) + 1.0
    return z, y


def objective(spec: PlanningSpec, pp: PotentialPair) -> float:
    """Extended-real value of the planning functional at ``pp``.

    Returns ``+inf`` when any node has negative density or hits the
    infeasible branch of the perspective (zero density with nonzero flux).
    """
    g = spec.grid
    z, y = _shifted_fields(spec, pp)
    if np.min(y) < 0.0:
        return np.inf
    l0 = spec.model.perspective.value(z, y)
    if not np.all(np.isfinite(l0)):
        return np.inf
    v = spec.model.potential.sample(g)[None, :]
    integrand = l0 - v * (y - 1.0) + spec.model.coupling.G(y)
    return integrate_xt(g, integrand)


def project_tangent(grid: Grid, dphi: Field) -> Field:
    """Project a phi-direction onto the feasible tangent space.

    Zeroes the pinned boundary rows and removes the spatial mean of every
    time slice.  With constant-per-row quadrature weights this is the
    orthogonal projection in both the plain and the weighted inner product.
    """
    out = dphi.copy()
    out[0] = 0.0
    out[-1] = 0.0
    out -= out.mean(axis=1, keepdims=True)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def gradient(spec: PlanningSpec, pp: PotentialPair) -> tuple[Field, TimeSeries]:
    """Weighted-L2 gradient of :func:`objective`, projected onto the tangent space.

    The pair ``(dphi, dq)`` satisfies, for any tangent direction ``d`` (zero
    boundary rows, zero slice means),

        d/dh objective(pp + h d) |_{h=0} = <dphi, d_phi>_W + sum_i w_i dq_i d_q_i ,

    where ``W`` is the trapezoid-in-t / rectangle-in-x quadrature weight.  In
    particular ``dq[i]`` is exactly the spatial integral of the q-derivative
    of the integrand at time node i, whose decay certifies stationarity in q.

    Raises
    ------
    ValueError
        If the density is below the configured floor anywhere (the partials
        of the perspective would be evaluated outside their domain).
    """
    g = spec.grid
    z, y = _shifted_fields(spec, pp)
    ymin = float(np.min(y))
    if ymin + 1e-13 < spec.floor:
        raise ValueError(
            f"gradient evaluated at infeasible pair: min density {ymin:.3e} "
            f"below floor {spec.floor:.3e}"
        )
    dz, dy = spec.model.perspective.partials(z, np.maximum(y, spec.floor))
    v = spec.model.potential.sample(g)[None, :]
    b = dy - v + spec.model.coupling.g(y)

    w = st_weights(g)
    wa = w * dz
    wb = w * b
    dphi = dt_transpose(g, wa) - dx_periodic(g, wb)
    if spec.order == 1:
        dphi -= dxx_periodic(g, wa)
    dphi = project_tangent(g, dphi / w)
    dq = g.dx * np.sum(dz, axis=1)
    return dphi, dq


def pair_inner(grid: Grid, a: tuple[Field, TimeSeries], b: tuple[Field, TimeSeries]) -> float:
    """Weighted inner product of two (phi, q) directions."""
    w = time_weights(grid)
    return float(
        np.sum(st_weights(grid) * a[0] * b[0]) + np.sum(w * a[1] * b[1])
    )


def clip_to_floor(spec: PlanningSpec, phi: Field) -> Field:
    """Restore the density floor by repairing forward x-increments.

    Works row by row on the forward increments ``s_j = phi[j+1] - phi[j]``
    (periodic): violating increments are raised to the floor level and the
    surplus is removed from the remaining increments in proportion to their
    slack, which always succeeds because the slacks sum to ``1 - floor > 0``.
    The row is then rebuilt with zero mean.  Since the central difference is
    the average of two adjacent forward increments, the central-difference
    density inherits the floor.  Pinned rows are never touched (they are
    feasible by construction).
    """
    g = spec.grid
    # tiny padding so the rebuilt row still clears the floor after rounding
    lo = (spec.floor * (1.0 + 1e-6) + 1e-15 - 1.0) * g.dx
    s = np.roll(phi, -1, axis=1) - phi
    bad = s.min(axis=1) < lo
    bad[0] = bad[-1] = False
    if not bad.any():
        return phi
    phi = phi.copy()
    for i in np.nonzero(bad)[0]:
        si = s[i]
        viol = si < lo
        surplus = float(np.sum(lo - si[viol]))
        slack = np.where(viol, 0.0, si - lo)
        total = float(slack.sum())
        si = np.where(viol, lo, si - surplus * slack / total)
        row = np.concatenate(([0.0], np.cumsum(si[:-1])))
        phi[i] = row - row.mean()
    return phi


def random_feasible_pair(
    spec: PlanningSpec, rng: np.random.Generator, amplitude: float = 0.3
) -> PotentialPair:
    """A strictly feasible pair: smoothed noise around the initial guess.

    The perturbation is zeroed on the pinned rows, mean-free per slice, and
    scaled so the density stays at least ``(1 - amplitude)`` times the
    boundary floor away from zero.
    """
    g = spec.grid
    base = initial_guess(spec)
    noise = rng.standard_normal((g.nt, g.nx))
    for _ in range(2):
        noise = 0.25 * np.roll(noise, 1, axis=1) + 0.5 * noise + 0.25 * np.roll(noise, -1, axis=1)
        noise[1:-1] = 0.25 * noise[:-2] + 0.5 * noise[1:-1] + 0.25 * noise[2:]
    noise = project_tangent(g, noise)
    dy = dx_periodic(g, noise)
    scale = amplitude * spec.k0 / (np.max(np.abs(dy)) + 1e-300)
    q = 0.5 * rng.standard_normal(g.nt)
    return PotentialPair(phi=base.phi + scale * noise, q=q)


def _build_preconditioner(spec: PlanningSpec):
    """Inverse of the constant-coefficient Hessian block at the uniform state.

    At the uniform density the phi-Hessian diagonalizes over spatial Fourier
    modes into banded time matrices

        A_k = dx * (L''(0) * S_k^T W_t S_k + g'(1) * s_k^2 * W_t) ,

    where ``S_k = M + lap_k I`` is the time stencil ``M`` shifted by the
    Laplacean symbol ``lap_k`` (zero when ``order = 0``) and ``s_k`` the
    central-difference symbol.  ``S_k^T W_t S_k`` expands into three
    k-independent matrices of bandwidth at most 2, weighted by 1, ``lap_k``
    and ``lap_k^2``, so the ``A_k`` are stored as :class:`ModeBanded` bands
    and solved per mode by banded Cholesky; the solve drops the pinned rows
    and the zero mode (both outside the feasible tangent space).  Returns a
    callable mapping a plain l2 phi-gradient to a descent direction.
    """
    g = spec.grid
    wt = time_weights(g)
    mt = time_stencil_matrix(g)
    h = 1e-4
    lag = spec.model.lagrangian
    lpp = max(float((lag.eval(np.asarray(h)) - 2 * lag.eval(np.asarray(0.0))
                     + lag.eval(np.asarray(-h))) / h**2), 1e-8)
    cpl = spec.model.coupling
    gp1 = max(float((cpl.g(np.asarray(1.0 + h)) - cpl.g(np.asarray(1.0 - h))) / (2 * h)), 0.0)

    ks = np.arange(g.nx // 2 + 1)
    s2 = (np.sin(2.0 * np.pi * ks / g.nx) / g.dx) ** 2
    lap = spec.order * 4.0 * np.sin(np.pi * ks / g.nx) ** 2 / g.dx**2

    mw = mt.T * wt  # M^T W_t
    terms = (mw @ mt, mw + mw.T, np.diag(wt))  # weights 1, lap_k, lap_k^2
    bands = np.zeros((3, g.nt, ks.size))
    for d in range(3):
        for power, term in enumerate(terms):
            bands[d, : g.nt - d] += lpp * np.diagonal(term, -d)[:, None] * lap**power
    bands[0] += gp1 * wt[:, None] * s2
    return ModeBanded(g, g.dx * bands).solve


def minimize(spec: PlanningSpec, start: PotentialPair | None = None) -> SolveReport:
    """Projected descent with Armijo backtracking in a fixed elliptic metric.

    Starts from :func:`initial_guess` unless ``start`` is given.  Every
    accepted iterate is feasible; the objective trace is nonincreasing.
    Terminates when the sup-norm of the projected gradient pair drops to
    ``spec.tol`` or the iteration budget runs out.

    The line search runs in two phases.  While the predicted decrease
    ``-alpha * slope`` is resolvable in double precision, steps must pass a
    monotone Armijo test.  Once it falls below the floating-point resolution
    of the objective, comparisons of ``f`` can no longer arbitrate steps
    (they differ by at most an ulp), so full steps are accepted whenever
    they contract the gradient sup-norm; the recorded trace then carries
    the running best value, which equals the per-iterate objective to
    machine precision.  If neither phase can make progress the solver
    returns early with ``diagnostics["stalled"]`` set.

    Raises
    ------
    RuntimeError
        If a full Armijo sweep cannot find any decrease even though the
        predicted decrease was resolvable ("line-search failure").
    """
    t_start = time.perf_counter()
    g = spec.grid
    pp = initial_guess(spec) if start is None else start
    phi, q = pp.phi.copy(), pp.q.copy()
    phi = clip_to_floor(spec, phi)

    f = objective(spec, PotentialPair(phi, q))
    if not np.isfinite(f):
        raise ValueError("starting pair is infeasible (objective is not finite)")
    trace = [f]
    dens_trace = [float(np.min(dx_periodic(g, phi) + 1.0))]

    precondition = _build_preconditioner(spec)
    w_field = st_weights(g)
    wt = time_weights(g)

    gphi, gq = gradient(spec, PotentialPair(phi, q))
    gnorm = max(float(np.max(np.abs(gphi))), float(np.max(np.abs(gq))))
    converged = gnorm <= spec.tol
    iters = 0
    backtracks = 0
    alpha = spec.step0

    stalled = False
    while not converged and not stalled and iters < spec.max_iters:
        iters += 1
        dphi_dir = -precondition(w_field * gphi)
        dq_dir = -gq
        slope = float(np.sum(w_field * gphi * dphi_dir) + np.sum(wt * gq * dq_dir))
        if not slope < 0:
            # fall back to the raw projected gradient direction
            dphi_dir, dq_dir = -gphi, -gq
            slope = -pair_inner(g, (gphi, gq), (gphi, gq))

        resolution = 64.0 * np.finfo(float).eps * (1.0 + abs(f))
        if -slope > resolution:
            # descent phase: monotone Armijo backtracking
            alpha = min(1.0, 4.0 * alpha)
            accepted = False
            for _ in range(80):
                phi_t = clip_to_floor(spec, phi + alpha * dphi_dir)
                q_t = q + alpha * dq_dir
                f_t = objective(spec, PotentialPair(phi_t, q_t))
                if f_t <= f + 1e-4 * alpha * slope or f_t < f:
                    accepted = True
                    break
                alpha *= 0.5
                backtracks += 1
            if not accepted:
                raise RuntimeError(
                    "line-search failure: no descent over a full backtracking "
                    f"sweep (iter {iters}, objective {f:.12e}, grad sup-norm "
                    f"{gnorm:.3e})"
                )
            phi, q, f = phi_t, q_t, f_t
            gphi, gq = gradient(spec, PotentialPair(phi, q))
        else:
            # polish phase: the predicted decrease is below the objective's
            # floating-point resolution, so the objective can no longer
            # arbitrate steps; accept on gradient contraction instead
            alpha = 1.0
            accepted = False
            for _ in range(24):
                phi_t = clip_to_floor(spec, phi + alpha * dphi_dir)
                q_t = q + alpha * dq_dir
                f_t = objective(spec, PotentialPair(phi_t, q_t))
                if f_t <= f + resolution:
                    gphi_t, gq_t = gradient(spec, PotentialPair(phi_t, q_t))
                    gnorm_t = max(
                        float(np.max(np.abs(gphi_t))), float(np.max(np.abs(gq_t)))
                    )
                    if gnorm_t < gnorm:
                        accepted = True
                        break
                alpha *= 0.5
                backtracks += 1
            if not accepted:
                stalled = True  # no numerical progress left at this precision
                break
            phi, q = phi_t, q_t
            f = min(f, f_t)
            gphi, gq = gphi_t, gq_t

        trace.append(f)
        dens_trace.append(float(np.min(dx_periodic(g, phi) + 1.0)))
        gnorm = max(float(np.max(np.abs(gphi))), float(np.max(np.abs(gq))))
        converged = gnorm <= spec.tol

    pair = PotentialPair(phi, q)
    mass = integrate_x(g, dx_periodic(g, phi) + 1.0)
    diagnostics = {
        "min_density": dens_trace[-1],
        "min_density_trace": np.asarray(dens_trace),
        "mass_defect": float(np.max(np.abs(mass - 1.0))),
        "slice_mean_defect": float(np.max(np.abs(phi.mean(axis=1)))),
        "q_residual_sup": float(np.max(np.abs(gq))),
        "backtracks": backtracks,
        "stalled": stalled,
    }
    return SolveReport(
        pair=pair,
        objective_trace=np.asarray(trace),
        grad_norm=gnorm,
        iterations=iters,
        converged=converged,
        wall_time=time.perf_counter() - t_start,
        diagnostics=diagnostics,
    )
