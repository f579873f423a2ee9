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
stationarity certificate.  The minimizer is projected L-BFGS (Liu & Nocedal
1989) with monotone Armijo backtracking whose initial inverse Hessian is a
fixed elliptic metric: the inverse of the constant-coefficient part of the
Hessian at the uniform state (banded in time per x-mode, Cholesky-factored
once per solve), which keeps the iteration count essentially grid-independent
where a raw gradient loop stalls on the stiff fine grids; a few curvature
pairs add what the constant coefficients miss.  Every accepted iterate is
feasible (pinned rows exact, slice means zero, density at or above the
configured floor).  The slope inversion ``p = L'(z / y)`` behind a trial
point's objective starts from the accepted point's slopes and also gives
the partials of its gradient, if accepted.
"""

from __future__ import annotations

from collections import deque
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
from .model import LegendreError, MFGModel, build_model

__all__ = [
    "PlanningSpec",
    "PotentialPair",
    "SolveReport",
    "potential_fields",
    "check_density",
    "check_marginal",
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
    m0, mT : array, shape (nx,), optional
        Boundary densities, uniform when omitted.  Both must be strictly
        positive probability densities (:func:`check_marginal`).
    order : int
        0 for the first-order problem, 1 to include the ``-phi_xx`` shift
        in the perspective argument.
    max_iters, tol : optimizer budget and target sup-norm of the projected
        gradient.
    floor : float
        Strict interior floor for the density ``phi_x + 1``
        (:func:`potential_fields`); keeps the perspective and its partials
        finite along the iteration.
    """

    grid: Grid
    model: MFGModel = field(default_factory=build_model)
    m0: np.ndarray = None
    mT: np.ndarray = None
    order: int = 0
    max_iters: int = 20000
    tol: float = 1e-8
    floor: float = 1e-8

    def __post_init__(self) -> None:
        if self.order not in (0, 1):
            raise ValueError(f"order must be 0 or 1, got {self.order}")
        for name in ("m0", "mT"):
            object.__setattr__(self, name, check_marginal(self.grid, getattr(self, name), name))
        if not 0.0 <= self.floor < self.k0:
            raise ValueError(
                f"floor must satisfy 0 <= floor < min density {self.k0:.3e}, got {self.floor}"
            )
        if not 0 < self.tol < np.inf or self.max_iters < 1:
            raise ValueError("tol must be positive and finite, and max_iters at least 1")

    @property
    def k0(self) -> float:
        """Uniform lower bound of the boundary densities."""
        return float(min(np.min(self.m0), np.min(self.mT)))


@dataclass(frozen=True)
class PotentialPair:
    """The unknown of the variational problem: a field plus a time series, and for a
    :func:`minimize` iterate ``lo``, the low part of the double-double field ``phi + lo``."""

    phi: Field
    q: TimeSeries
    lo: Field | None = None


def potential_fields(grid: Grid, pp: PotentialPair, order: int) -> tuple[Field, Field]:
    """``(flux, density)`` of the potential transformation at ``pp``.

    The density is ``m = phi_x + 1`` and the flux ``phi_t + q - order * phi_xx``;
    written through the potential, the discrete continuity equation between
    them holds at every pair, which is why no solver enforces it.  Every term is a
    :mod:`~mfgplan.grid` stencil.  With a low part the field is ``phi + lo``: the
    stencils of ``lo`` are added before ``q`` and the 1, so a zero ``lo`` moves no bit.
    """
    phi, lo = pp.phi, pp.lo
    flux, dens = dt_interior(grid, phi), dx_periodic(grid, phi)
    if lo is not None:
        flux, dens = flux + dt_interior(grid, lo), dens + dx_periodic(grid, lo)
    flux += pp.q[:, None]
    if order == 1:
        lap = dxx_periodic(grid, phi)
        flux -= lap if lo is None else lap + dxx_periodic(grid, lo)
    return flux, dens + 1.0


def check_density(m: Field, lower: float, problem: str) -> None:
    """Raise ``ValueError`` unless every node of ``m`` is positive and at least ``lower``.

    A NaN node fails.  The message starts with ``problem`` and names the
    (first) worst node as ``(t_index=i, x_index=j)``.
    """
    ymin = float(np.min(m))
    if not ymin > 0.0 or ymin < lower:
        i, j = np.unravel_index(int(np.argmin(m)), m.shape)
        raise ValueError(
            f"{problem} at node (t_index={i}, x_index={j}): density {m[i, j]:.6e} "
            f"must be positive and at least {lower:.6e}"
        )


def check_marginal(grid: Grid, m, name: str) -> np.ndarray:
    """Endpoint density ``m`` as a float array (uniform if ``None``), checked.

    Raises ``ValueError`` naming ``name`` unless ``m`` has shape ``(nx,)``,
    is finite and strictly positive, and integrates to 1 within 1e-8.
    """
    if m is None:
        return np.ones(grid.nx)
    m = np.asarray(m, dtype=float)
    if m.shape != (grid.nx,):
        raise ValueError(f"{name} must have shape ({grid.nx},), got {m.shape}")
    if not (np.all(np.isfinite(m)) and np.min(m) > 0.0):
        raise ValueError(f"{name} must be finite and strictly positive (min {np.min(m):.3e})")
    total = integrate_x(grid, m)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"{name} must integrate to 1, got {total:.10f}")
    return m


@dataclass
class SolveReport:
    """Outcome of one solve; ``slopes`` is ``L'(flux / density)`` at ``pair``.  No timing:
    the CLI measures the ``wall_time`` of ``report.json``."""

    pair: PotentialPair
    objective_trace: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    diagnostics: dict
    solution: object | None = None
    slopes: Field | None = None


def boundary_slices(grid: Grid, m0: np.ndarray, mT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinned potential slices at t = 0 and t = T.

    Each slice is the cumulative spatial integral of ``m - 1`` shifted to zero
    mean, so that its periodic difference recovers the density and the slice
    is gauge-consistent with the zero-mean constraint.

    Raises
    ------
    ValueError
        If either density fails :func:`check_marginal` (e.g. does not integrate to 1).
    """
    out = []
    for name, m in (("m0", m0), ("mT", mT)):
        s = antiderivative_x(grid, check_marginal(grid, m, name) - 1.0)
        out.append(s - integrate_x(grid, s))
    return out[0], out[1]


def initial_guess(spec) -> PotentialPair:
    """Linear-in-time interpolation of the pinned slices, with ``q = 0``.

    ``spec`` is any instance with ``grid``, ``m0`` and ``mT`` (a :class:`PlanningSpec` or a
    congestion spec).  Feasible by construction: its density is the same convex
    combination of the (smoothed) boundary densities, hence bounded below by their
    common floor up to stencil error.
    """
    g = spec.grid
    s0, sT = boundary_slices(g, spec.m0, spec.mT)
    tau = (g.t / g.horizon)[:, None]
    phi = (1.0 - tau) * s0[None, :] + tau * sT[None, :]
    return PotentialPair(phi=phi, q=np.zeros(g.nt))


def _evaluate(spec: PlanningSpec, pp: PotentialPair, start: Field | None = None):
    """:func:`objective` and the terms ``(z, y, (p, -H(p)))`` of its one slope inversion,
    started from ``start`` (:meth:`PerspectiveL0._value_and_partials`).  A point whose
    inversion fails (:class:`~mfgplan.model.LegendreError`) is infeasible, as at ``y < 0``."""
    g = spec.grid
    z, y = potential_fields(g, pp, spec.order)
    if np.min(y) < 0.0:
        return np.inf, None
    try:
        l0, p, minus_h = spec.model.perspective._value_and_partials(z, y, start)
    except LegendreError:
        return np.inf, None
    if not np.all(np.isfinite(l0)):
        return np.inf, None
    v = spec.model.potential.sample(g)[None, :]
    integrand = l0 - v * (y - 1.0) + spec.model.coupling.G(y)
    return integrate_xt(g, integrand), (z, y, (p, minus_h))


def objective(spec: PlanningSpec, pp: PotentialPair) -> float:
    """Extended-real value of the planning functional at ``pp``.

    Returns ``+inf`` when any node has negative density or hits the
    infeasible branch of the perspective (zero density with nonzero flux).
    """
    return _evaluate(spec, pp)[0]


def project_tangent(grid: Grid, dphi: Field) -> Field:
    """Project a phi-direction onto the feasible tangent space.

    Zeroes the pinned boundary rows and removes the spatial mean of every
    time slice.  With constant-per-row quadrature weights this is the
    orthogonal projection in both the plain and the weighted inner product.
    """
    out = dphi.copy()
    out[[0, -1]] = 0.0
    out -= out.mean(axis=1, keepdims=True)  # zero on the pinned rows, which stay 0
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
    return _gradient(spec, *potential_fields(spec.grid, pp, spec.order))


def _gradient(spec: PlanningSpec, z: Field, y: Field, partials=None) -> tuple[Field, TimeSeries]:
    """:func:`gradient` from ``(z, y)``, reusing ``partials = (p, -H(p))`` known at ``z / y``."""
    g = spec.grid
    ymin = float(np.min(y))
    if ymin + 1e-13 < spec.floor:
        raise ValueError(
            f"gradient evaluated at infeasible pair: min density {ymin:.3e} "
            f"below floor {spec.floor:.3e}"
        )
    if partials is None or ymin < spec.floor or ymin <= 0.0:  # evaluate at max(y, floor)
        partials = spec.model.perspective.partials(z, np.maximum(y, spec.floor))
    dz, dy = partials
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
    """Weighted inner product of two (phi, q) directions, row sums first."""
    w = time_weights(grid)
    return float(grid.dx * (w @ np.einsum("ij,ij->i", a[0], b[0])) + w @ (a[1] * b[1]))


def clip_to_floor(grid: Grid, floor: float, phi: Field, lo: Field | None = None) -> Field | tuple:
    """Restore the density floor ``phi_x + 1 >= floor`` by repairing forward x-increments.

    Works row by row on the forward increments ``s_j = phi[j+1] - phi[j]``
    (periodic): violating increments are raised to the floor level and the
    surplus is removed from the remaining increments in proportion to their
    slack, which always succeeds for ``floor < 1`` because the slacks sum to ``1 - floor``.
    The row is then rebuilt with zero mean.  Since the central difference is
    the average of two adjacent forward increments, the central-difference
    density inherits the floor.  Pinned rows are never touched (they are
    feasible by construction).  Given the low part ``lo`` of ``phi + lo``, returns
    ``(phi, lo)`` with ``lo`` zeroed on the repaired rows.
    """
    # tiny padding so the rebuilt row still clears the floor after rounding
    least = (floor * (1.0 + 1e-6) + 1e-15 - 1.0) * grid.dx
    s = np.roll(phi, -1, axis=1) - phi
    bad = s.min(axis=1) < least
    bad[0] = bad[-1] = False
    if not bad.any():
        return phi if lo is None else (phi, lo)
    phi = phi.copy()
    for i in np.nonzero(bad)[0]:
        si = s[i]
        viol = si < least
        surplus = float(np.sum(least - si[viol]))
        slack = np.where(viol, 0.0, si - least)
        total = float(slack.sum())
        si = np.where(viol, least, si - surplus * slack / total)
        row = np.concatenate(([0.0], np.cumsum(si[:-1])))
        phi[i] = row - row.mean()
    return phi if lo is None else (phi, np.where(bad[:, None], 0.0, lo))


def random_feasible_pair(spec, rng: np.random.Generator, amplitude: float = 0.3) -> PotentialPair:
    """A strictly feasible pair: smoothed noise around the initial guess.

    ``spec`` is any instance with ``grid``, ``m0``, ``mT`` and ``k0`` (a :class:`PlanningSpec`
    or a congestion spec).  The perturbation is zeroed on the pinned rows, mean-free per
    slice, and scaled so the density stays at least ``(1 - amplitude)`` times the
    boundary floor ``k0`` away from zero.
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


def _metric_bands(g: Grid, order: int, lpp: float, gp1: float) -> np.ndarray:
    """Bands of the constant-coefficient Hessian block at the uniform state, unfactored.

    At the uniform density the phi-Hessian diagonalizes over spatial Fourier
    modes into banded time matrices

        A_k = dx * (L''(0) * S_k^T W_t S_k + g'(1) * s_k^2 * W_t) ,

    where ``S_k = M + lap_k I`` is the time stencil ``M`` shifted by the
    Laplacean symbol ``lap_k`` (zero when ``order = 0``) and ``s_k`` the
    central-difference symbol.  ``S_k^T W_t S_k`` expands into three
    k-independent matrices of bandwidth at most 2, weighted by 1, ``lap_k``
    and ``lap_k^2``, so the ``A_k`` are stored as :class:`ModeBanded` bands;
    ``minimize`` factors them once per solve (:meth:`ModeBanded.factor`, which
    drops the pinned rows and the zero mode, both outside the feasible tangent
    space) into the metric mapping a plain l2 phi-gradient to a descent
    direction.  ``(lpp, gp1)`` are :func:`_curvatures`.
    """
    wt = time_weights(g)
    mt = time_stencil_matrix(g)

    ks = np.arange(g.nx // 2 + 1)
    s2 = (np.sin(2.0 * np.pi * ks / g.nx) / g.dx) ** 2
    lap = order * 4.0 * np.sin(np.pi * ks / g.nx) ** 2 / g.dx**2

    mw = mt.T * wt  # M^T W_t
    terms = (mw @ mt, mw + mw.T, np.diag(wt))  # weights 1, lap_k, lap_k^2
    bands = np.zeros((3, g.nt, ks.size))
    for d in range(3):
        for power, term in enumerate(terms):
            bands[d, : g.nt - d] += lpp * np.diagonal(term, -d)[:, None] * lap**power
    bands[0] += gp1 * wt[:, None] * s2
    return g.dx * bands


def _curvatures(spec: PlanningSpec) -> tuple[float, float]:
    """Central-difference ``L''(0)`` (at least 1e-8) and ``g'(1)`` (at least 0)."""
    h = 1e-4
    lag = spec.model.lagrangian
    lpp = max(float((lag.eval(np.asarray(h)) - 2 * lag.eval(np.asarray(0.0))
                     + lag.eval(np.asarray(-h))) / h**2), 1e-8)
    cpl = spec.model.coupling
    gp1 = max(float((cpl.g(np.asarray(1.0 + h)) - cpl.g(np.asarray(1.0 - h))) / (2 * h)), 0.0)
    return lpp, gp1


def _two_sum(hi: Field, lo: Field, step: Field) -> tuple[Field, Field]:
    """``hi + lo + step`` as a renormalised pair: TwoSum of ``hi + step``, its
    error added to ``lo``, then FastTwoSum (Dekker 1971; Ogita, Rump, Oishi 2005)."""
    s = hi + step
    v = s - hi
    lo = lo + ((hi - (s - v)) + (step - v))
    hi = s + lo
    return hi, lo - (hi - s)


def _sup_norm(gphi: Field, gq: TimeSeries) -> float:
    return max(float(np.max(np.abs(gphi))), float(np.max(np.abs(gq))))


_LBFGS_MEMORY = 4  # curvature pairs kept by :func:`minimize`, two fields each


def _two_loop(grid: Grid, pairs, grad, metric) -> tuple[Field, TimeSeries]:
    """L-BFGS direction ``-H grad`` (Nocedal & Wright, Alg. 7.4) in :func:`pair_inner`
    from the pairs ``(s, y, 1 / <s, y>)`` of ``(phi, q)`` directions, oldest first,
    with ``H0 = metric``."""
    r, coefs = grad, []
    for s, y, rho in reversed(pairs):
        coefs.append(rho * pair_inner(grid, s, r))
        r = (r[0] - coefs[-1] * y[0], r[1] - coefs[-1] * y[1])
    r = metric(r)
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        b = a - rho * pair_inner(grid, y, r)
        r = (r[0] + b * s[0], r[1] + b * s[1])
    return -r[0], -r[1]


def minimize(spec: PlanningSpec, start: PotentialPair | None = None) -> SolveReport:
    """Projected L-BFGS descent with Armijo backtracking in a fixed elliptic metric.

    Starts from :func:`initial_guess` unless ``start`` is given.  Every
    accepted iterate is feasible; the objective trace is nonincreasing.
    Terminates when the sup-norm of the projected gradient pair drops to
    ``spec.tol`` or the iteration budget runs out.

    Directions come from L-BFGS (:func:`_two_loop`) with ``H0`` the factored metric
    for ``phi`` and the identity for ``q``, on the last ``_LBFGS_MEMORY`` pairs ``(s, y)``
    of an accepted step as taken (floor repairs included) and its change of gradient,
    kept when ``<s, y> > 0`` (the others count as ``diagnostics["lbfgs_skipped_pairs"]``).  An
    uphill direction or a failed line search clears the pairs
    (``diagnostics["lbfgs_resets"]``) and reruns the iteration in the metric alone,
    whose direction ``-H0 grad`` descends for every nonzero gradient (``H0`` is SPD).

    The line search runs in two phases.  While the predicted decrease
    ``-alpha * slope`` is resolvable in double precision, steps must pass a
    monotone Armijo test.  Once it falls below the floating-point resolution
    of the objective, comparisons of ``f`` can no longer arbitrate steps
    (they differ by at most an ulp), so full steps are accepted whenever
    they contract the gradient sup-norm; the recorded trace then carries
    the running best value, which equals the per-iterate objective to
    machine precision.  If neither phase can make progress the solver
    returns early with ``diagnostics["stalled"]`` set.

    The iterate is the double-double field ``phi + lo``: each trial point is the
    TwoSum of ``phi`` and the step (:func:`_two_sum`); model, gradient, metric and
    ``q`` stay in double.  ``grad_norm`` certifies ``phi + lo`` (``slopes`` is its
    ``L'(z / y)``); the CSV holds ``phi``, within ``diagnostics["lo_sup"]`` of it.

    ``diagnostics["exit_reason"]`` is ``"converged"``, ``"rounding_floor"``
    (stalled at a gradient sup-norm at most ``diagnostics["grad_floor_estimate"]``),
    ``"stalled"`` (above it) or ``"max_iters"``.  That floor is the stored pair's
    ``u^2 max|phi| (a^2 L''(0) + g'(1) / dx^2)`` plus ``2 u (a L''(0) max|z| + g'(1)
    max|y| / dx)`` for the double fields ``(z, y)``, rounded there and in the gradient's
    assembly; ``a`` is ``4 / dx^2`` (``Dxx``) for order 1 and ``2 / dt`` (``Dt``) for
    order 0, and for order 1 ``max|z|`` gains ``max|y - 1| / dx``, the rounding of the
    difference-first Laplacean's increments.

    Raises
    ------
    RuntimeError
        If a full Armijo sweep along the metric direction cannot find any
        decrease even though the predicted decrease was resolvable
        ("line-search failure").
    """
    g = spec.grid
    pp = initial_guess(spec) if start is None else start
    phi, q = pp.phi.copy(), pp.q.copy()
    lo = np.zeros_like(phi) if pp.lo is None else pp.lo.copy()
    phi, lo = clip_to_floor(g, spec.floor, phi, lo)

    f, terms = _evaluate(spec, PotentialPair(phi, q, lo))
    if not np.isfinite(f):
        raise ValueError("starting pair is infeasible (objective is not finite)")
    trace = [f]
    dens_trace = [float(np.min(terms[1]))]

    lpp, gp1 = _curvatures(spec)
    precondition = ModeBanded(g, _metric_bands(g, spec.order, lpp, gp1)).factor()
    w_field = st_weights(g)

    def metric(r):  # H0: the factored metric for phi, the identity for q
        return precondition(w_field * r[0]), r[1]

    gphi, gq = _gradient(spec, *terms)
    gnorm = _sup_norm(gphi, gq)
    converged = gnorm <= spec.tol
    iters = 0
    backtracks = 0
    alpha = 1.0
    pairs = deque(maxlen=_LBFGS_MEMORY)
    resets = skipped = 0

    stalled = False
    while not converged and not stalled and iters < spec.max_iters:
        iters += 1
        dphi_dir, dq_dir = _two_loop(g, pairs, (gphi, gq), metric)
        slope = pair_inner(g, (gphi, gq), (dphi_dir, dq_dir))

        # descent phase while the predicted decrease is resolvable: monotone
        # Armijo backtracking; polish phase below the objective's floating-point
        # resolution, where f can no longer arbitrate steps: accept on gradient
        # contraction instead
        resolution = 64.0 * np.finfo(float).eps * (1.0 + abs(f))
        descent = -slope > resolution
        alpha = min(1.0, 4.0 * alpha) if descent else 1.0
        accepted = False
        for _ in range(0 if not slope < 0 else 80 if descent else 24):
            phi_t, lo_t = clip_to_floor(g, spec.floor, *_two_sum(phi, lo, alpha * dphi_dir))
            q_t = q + alpha * dq_dir
            f_t, terms_t = _evaluate(spec, PotentialPair(phi_t, q_t, lo_t), terms[2][0])
            if descent:
                accepted = f_t <= f + 1e-4 * alpha * slope or f_t < f
            elif f_t <= f + resolution:
                grad_t = _gradient(spec, *terms_t)
                accepted = _sup_norm(*grad_t) < gnorm
            if accepted:
                break
            alpha *= 0.5
            backtracks += 1
        if not accepted:
            if pairs:  # uphill or no progress along the pairs' direction: retry in the metric
                pairs.clear()
                resets, iters, alpha = resets + 1, iters - 1, 1.0
                continue
            if descent:
                raise RuntimeError(
                    "line-search failure: no descent over a full backtracking "
                    f"sweep (iter {iters}, objective {f:.12e}, grad sup-norm {gnorm:.3e})"
                )
            stalled = True  # no numerical progress left at this precision
            break
        # the step taken: alpha d except on rows clip_to_floor repaired
        step = ((phi_t - phi) + (lo_t - lo), q_t - q)
        phi, lo, q, terms = phi_t, lo_t, q_t, terms_t
        f = f_t if descent else min(f, f_t)
        new = _gradient(spec, *terms) if descent else grad_t
        change, (gphi, gq) = (new[0] - gphi, new[1] - gq), new
        sy = pair_inner(g, step, change)
        if sy > 0:
            pairs.append((step, change, 1.0 / sy))
        else:
            skipped += 1

        trace.append(f)
        dens_trace.append(float(np.min(terms[1])))
        gnorm = _sup_norm(gphi, gq)
        converged = gnorm <= spec.tol

    u, lead = np.finfo(float).eps, (4.0 / g.dx**2 if spec.order else 2.0 / g.dt)
    z = np.max(np.abs(terms[0])) + spec.order * np.max(np.abs(terms[1] - 1.0)) / g.dx
    floor_estimate = float(u * u * np.max(np.abs(phi)) * (lead**2 * lpp + gp1 / g.dx**2)
                           + 2 * u * (lead * lpp * z + gp1 * np.max(np.abs(terms[1])) / g.dx))
    stall_reason = "rounding_floor" if gnorm <= floor_estimate else "stalled"
    exit_reason = "converged" if converged else stall_reason if stalled else "max_iters"
    pair = PotentialPair(phi, q, lo)
    mass = integrate_x(g, terms[1])
    diagnostics = {
        "min_density": dens_trace[-1],
        "min_density_trace": np.asarray(dens_trace),
        "mass_defect": float(np.max(np.abs(mass - 1.0))),
        "slice_mean_defect": float(np.max(np.abs(phi.mean(axis=1)))),
        "q_residual_sup": float(np.max(np.abs(gq))),
        "backtracks": backtracks,
        "stalled": stalled,
        "exit_reason": exit_reason,
        "grad_floor_estimate": floor_estimate,
        "grad_norm_iterate": "phi + lo; solution_phi.csv holds phi",
        "lo_sup": float(np.max(np.abs(lo))),
        "lbfgs_resets": resets,
        "lbfgs_skipped_pairs": skipped,
    }
    return SolveReport(
        pair=pair,
        objective_trace=np.asarray(trace),
        grad_norm=gnorm,
        iterations=iters,
        converged=converged,
        diagnostics=diagnostics,
        slopes=terms[2][0],
    )
