"""Congestion operator, inner solvers, fixed-point driver, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgplan.congestion as congestion
from mfgplan.congestion import (
    CongestionSpec,
    _gmres,
    _level,
    _newton_krylov,
    _newton_polish,
    apply_F,
    apriori_diagnostics,
    inner_phi_objective,
    inner_phi_solve,
    inner_q_solve,
    monotonicity_gap,
    pointwise_certificate,
    regularizer_apply,
    solve_congestion,
    weak_certificate,
    young_sup,
)
from mfgplan.grid import Grid, ModeBanded, dx_periodic, st_weights, time_weights
from mfgplan.planning import (
    PotentialPair,
    initial_guess,
    project_tangent,
    random_feasible_pair,
)


def sine_density(nx: int, amplitude: float = 0.1) -> np.ndarray:
    x = np.arange(nx) / nx
    return 1.0 + amplitude * np.sin(2 * np.pi * x)


def sine_spec(nt=13, nx=24, **kw) -> CongestionSpec:
    g = Grid(nt=nt, nx=nx, horizon=1.0)
    return CongestionSpec(grid=g, m0=sine_density(nx), **kw)


@pytest.fixture(scope="module")
def sine_report():
    """One full default solve, shared by the slow-path assertions."""
    spec = sine_spec(alpha=0.5, mu=1.0)
    return spec, solve_congestion(spec)


def test_spec_validation():
    g = Grid(nt=13, nx=16, horizon=1.0)
    with pytest.raises(ValueError):
        CongestionSpec(grid=g, alpha=2.0)
    with pytest.raises(ValueError):
        CongestionSpec(grid=g, mu=0.0)
    with pytest.raises(ValueError):
        CongestionSpec(grid=g, alpha=1.9, mu=0.5)  # alpha >= mu + 1
    with pytest.raises(ValueError):
        CongestionSpec(grid=Grid(nt=5, nx=16, horizon=1.0))  # too few time nodes
    with pytest.raises(ValueError):
        CongestionSpec(grid=g, m0=np.full(16, 1.5))  # not normalized
    with pytest.raises(ValueError, match="m0 must be finite and strictly positive"):
        CongestionSpec(grid=g, m0=np.where(np.arange(16) == 5, np.nan, 1.0))
    for tol_fp in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            CongestionSpec(grid=g, tol_fp=tol_fp)
    with pytest.raises(TypeError):
        CongestionSpec(grid=g, eps_schedule=(0.1,))  # the level is derived, not set


def test_exponent_metadata():
    spec = sine_spec(alpha=0.5, mu=1.0)
    assert spec.kappa == pytest.approx(min(2 * 2.0 / 2.5, 2.0))
    assert spec.kappa_alternate == pytest.approx(2 * 2.0 / 3.5)
    # for alpha > 1 the two recorded forms genuinely differ
    spec_hi = sine_spec(alpha=1.5, mu=1.5)
    assert spec_hi.kappa != pytest.approx(spec_hi.kappa_alternate)


def test_default_schedule_geometry():
    spec = sine_spec()  # k0 = 0.9
    assert spec.eps == 1e-4
    with pytest.raises(AttributeError):
        spec.eps = 0.1
    g = Grid(nt=13, nx=24, horizon=1.0)
    thin = CongestionSpec(grid=g, m0=sine_density(g.nx, amplitude=0.99995))
    assert thin.k0 == pytest.approx(5e-5)
    assert thin.eps == thin.k0


@pytest.mark.parametrize("amplitude", [0.99995, 0.9999])
def test_default_schedule_solves_instances_thinner_than_the_target(amplitude):
    # k0 = 5e-5, and k0 = 1e-4 less one rounding: the target level is capped at k0
    g = Grid(nt=13, nx=24, horizon=1.0)
    spec = CongestionSpec(grid=g, m0=sine_density(g.nx, amplitude=amplitude))
    assert spec.k0 < 1e-4
    report = solve_congestion(spec)
    assert report.converged and len(report.diagnostics["per_eps"]) == 1
    assert report.diagnostics["fp_residual_sup"] <= spec.tol_fp


def test_apply_F_zero_pair_is_exactly_zero():
    g = Grid(nt=13, nx=16, horizon=1.0)
    spec = CongestionSpec(grid=g)
    img = apply_F(spec, PotentialPair(np.zeros((g.nt, g.nx)), np.zeros(g.nt)))
    assert np.array_equal(img.f1, np.zeros((g.nt, g.nx)))
    assert np.array_equal(img.f2, np.zeros(g.nt))


def test_apply_F_constant_q_uniform_density():
    g = Grid(nt=13, nx=16, horizon=1.0)
    spec = CongestionSpec(grid=g)
    img = apply_F(spec, PotentialPair(np.zeros((g.nt, g.nx)), np.full(g.nt, 0.7)))
    assert np.max(np.abs(img.f1)) == 0.0
    assert img.f2 == pytest.approx(np.full(g.nt, 0.7), abs=1e-15)


def test_apply_F_rejects_thin_density_with_node():
    spec = sine_spec()
    g = spec.grid
    phi = np.zeros((g.nt, g.nx))
    phi[4] = -1.5 * g.x  # derivative jump drives phi_x + 1 negative somewhere
    phi[4] -= phi[4].mean()
    with pytest.raises(ValueError, match="t_index=4"):
        apply_F(spec, PotentialPair(phi, np.zeros(g.nt)))


def test_apply_F_rejects_nan_field():
    spec = sine_spec()
    g = spec.grid
    phi = np.zeros((g.nt, g.nx))
    phi[5, 7] = np.nan
    for eps in (None, 1e-3):
        with pytest.raises(ValueError, match=r"below the feasible level at node \(t_index=5"):
            apply_F(spec, PotentialPair(phi, np.zeros(g.nt)), eps=eps)


def test_apply_F_matches_scalar_loop_path():
    """Redundant-path oracle: quotient fields first, explicit index stencils."""
    spec = sine_spec(alpha=0.7, mu=1.3)
    g = spec.grid
    nt, nx, dt, dx = g.nt, g.nx, g.dt, g.dx
    rng = np.random.default_rng(11)
    pp = random_feasible_pair(spec, rng, amplitude=0.2)
    phi, q = pp.phi, pp.q

    def z_at(i, j):
        if i == 0:
            zt = (phi[1, j] - phi[0, j]) / dt
        elif i == nt - 1:
            zt = (phi[nt - 1, j] - phi[nt - 2, j]) / dt
        else:
            zt = (phi[i + 1, j] - phi[i - 1, j]) / (2 * dt)
        return zt + q[i]

    def y_at(i, j):
        return (phi[i, (j + 1) % nx] - phi[i, (j - 1) % nx]) / (2 * dx) + 1.0

    rho = [[z_at(i, j) / y_at(i, j) ** (1 - spec.alpha) for j in range(nx)] for i in range(nt)]
    sig = [[z_at(i, j) ** 2 / y_at(i, j) ** (2 - spec.alpha) for j in range(nx)] for i in range(nt)]
    pw = [[y_at(i, j) ** spec.mu for j in range(nx)] for i in range(nt)]

    f1 = np.empty((nt, nx))
    f2 = np.empty(nt)
    for i in range(nt):
        for j in range(nx):
            if i == 0:
                dr = (rho[1][j] - rho[0][j]) / dt
            elif i == nt - 1:
                dr = (rho[nt - 1][j] - rho[nt - 2][j]) / dt
            else:
                dr = (rho[i + 1][j] - rho[i - 1][j]) / (2 * dt)
            ds = (sig[i][(j + 1) % nx] - sig[i][(j - 1) % nx]) / (2 * dx)
            dp = (pw[i][(j + 1) % nx] - pw[i][(j - 1) % nx]) / (2 * dx)
            f1[i, j] = -dr + 0.5 * ds - dp
        f2[i] = dx * sum(rho[i])

    img = apply_F(spec, pp)
    assert np.max(np.abs(img.f1 - f1)) <= 1e-6
    assert np.max(np.abs(img.f2 - f2)) <= 1e-6


def test_monotonicity_gap_vanishes_on_equal_pairs():
    spec = sine_spec()
    rng = np.random.default_rng(0)
    a = random_feasible_pair(spec, rng, amplitude=0.3)
    assert monotonicity_gap(spec, a, a) == 0.0


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 1.9])
def test_monotonicity_gap_nonnegative(alpha):
    spec = sine_spec(alpha=alpha, mu=alpha)
    pview = spec
    rng = np.random.default_rng(int(alpha * 100))
    for _ in range(40):
        a = random_feasible_pair(pview, rng, amplitude=0.3)
        b = random_feasible_pair(pview, rng, amplitude=0.3)
        assert monotonicity_gap(spec, a, b) >= -1e-8


def test_pointwise_certificate_bulk_sample():
    rng = np.random.default_rng(5)
    n = 10**5
    ya, yb = rng.uniform(0.05, 3.0, n), rng.uniform(0.05, 3.0, n)
    za, zb = rng.normal(0.0, 2.0, n), rng.normal(0.0, 2.0, n)
    for alpha in (0.25, 0.5, 1.0, 1.5, 1.9):
        assert np.min(pointwise_certificate(ya, za, yb, zb, alpha)) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(
    ya=st.floats(0.1, 3.0),
    yb=st.floats(0.1, 3.0),
    za=st.floats(-3.0, 3.0),
    zb=st.floats(-3.0, 3.0),
    alpha=st.floats(0.1, 1.9),
)
def test_pointwise_certificate_property(ya, yb, za, zb, alpha):
    assert pointwise_certificate(ya, za, yb, zb, alpha) >= -1e-12


def test_inner_q_constant_forcing_has_analytic_solution():
    g = Grid(nt=13, nx=16, horizon=1.0)
    spec = CongestionSpec(grid=g)
    eps = 0.01
    pp0 = PotentialPair(np.zeros((g.nt, g.nx)), np.full(g.nt, 0.7))  # F2 = 0.7
    qbar = inner_q_solve(spec, eps, pp0)
    assert qbar == pytest.approx(np.full(g.nt, -0.7 / eps), abs=1e-9)


def test_q_solve_guards_the_tridiagonal_residual(monkeypatch):
    spec = sine_spec()
    eps = 0.01
    pp = PotentialPair(initial_guess(spec).phi, np.zeros(spec.grid.nt))
    inner_q_solve(spec, eps, pp)  # the exact banded solve passes the guard
    solve = congestion.solveh_banded
    monkeypatch.setattr(congestion, "solveh_banded", lambda *a, **kw: solve(*a, **kw) + 1.0)
    with pytest.raises(RuntimeError, match="tridiagonal solve residual above tolerance"):
        inner_q_solve(spec, eps, pp)


def test_inner_q_solution_satisfies_assembled_system():
    spec = sine_spec()
    g = spec.grid
    rng = np.random.default_rng(2)
    pp0 = random_feasible_pair(spec, rng, amplitude=0.25)
    eps = 3e-3
    qbar = inner_q_solve(spec, eps, pp0)

    # independent dense assembly of eps * (mass + stiffness)
    wt = time_weights(g)
    m = np.diag(wt)
    k = np.zeros((g.nt, g.nt))
    for i in range(g.nt - 1):
        k[i, i] += 1.0 / g.dt
        k[i + 1, i + 1] += 1.0 / g.dt
        k[i, i + 1] -= 1.0 / g.dt
        k[i + 1, i] -= 1.0 / g.dt
    f2 = apply_F(spec, pp0).f2
    resid = eps * (m + k) @ qbar + wt * f2
    assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.max(np.abs(wt * f2)))


def test_inner_phi_trivial_quadratic_returns_zero():
    g = Grid(nt=13, nx=16, horizon=1.0)
    spec = CongestionSpec(grid=g)  # uniform marginals -> zero slices, F1 = 0
    phi = inner_phi_solve(spec, 0.05, PotentialPair(np.zeros((g.nt, g.nx)), np.zeros(g.nt)))
    assert np.array_equal(phi, np.zeros((g.nt, g.nx)))


def test_inner_phi_descends_below_interpolant():
    spec = sine_spec(alpha=0.5, mu=1.0)
    eps = 0.01
    pp0 = PotentialPair(initial_guess(spec).phi, np.zeros(spec.grid.nt))
    f1 = apply_F(spec, pp0, eps=eps).f1
    phi_star = inner_phi_solve(spec, eps, pp0)
    interp = initial_guess(spec).phi
    assert inner_phi_objective(spec, eps, f1, phi_star) <= inner_phi_objective(
        spec, eps, f1, interp
    )
    assert np.min(dx_periodic(spec.grid, phi_star) + 1.0) >= eps


def roll_regularizer(phi):
    """Reference sixth-difference normal operator by undivided shifts.

    ``sum_j0 (Dt^j0)^T (Dx^j1)^T Dx^j1 Dt^j0`` with ``j1 = 6 - j0``, forward
    differences as rolls in x and unpadded diffs in t; independent of the
    Fourier/banded form under test.
    """
    def dt_T(v, n):
        for _ in range(n):
            v = np.concatenate([-v[:1], v[:-1] - v[1:], v[-1:]])
        return v

    def dx(v, n, shift):
        for _ in range(n):
            v = np.roll(v, shift, axis=1) - v
        return v

    out = np.zeros_like(phi)
    for j0 in range(7):
        v = dx(np.diff(phi, n=j0, axis=0), 6 - j0, -1)
        out += dt_T(dx(v, 6 - j0, 1), j0)
    return out


@pytest.mark.parametrize("nt,nx", [(7, 8), (9, 15), (13, 24), (25, 48)])
def test_regularizer_apply_matches_roll_stencils(nt, nx):
    g = Grid(nt=nt, nx=nx, horizon=1.0)
    phi = np.random.default_rng(nt * nx).standard_normal((nt, nx))
    ref = roll_regularizer(phi)
    assert np.max(np.abs(regularizer_apply(g, phi) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("nt,nx", [(9, 15), (13, 24)])
def test_regularizer_apply_is_symmetric(nt, nx):
    g = Grid(nt=nt, nx=nx, horizon=1.0)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, nt, nx))
    ab = np.sum(a * regularizer_apply(g, b))
    ba = np.sum(b * regularizer_apply(g, a))
    assert abs(ab - ba) <= 1e-13 * np.sum(np.abs(a * regularizer_apply(g, b)))


@pytest.mark.parametrize("nt,nx", [(13, 24), (9, 15)])  # with and without a Nyquist mode
def test_inner_phi_solves_projected_system(nt, nx):
    # a faint marginal keeps the frozen-operator step (~1/eps) off the density
    # floor, so no repair replaces the linear solve; the rough base point puts
    # every Fourier mode, Nyquist included, in F1
    g = Grid(nt=nt, nx=nx, horizon=1.0)
    spec = CongestionSpec(grid=g, m0=sine_density(nx, amplitude=1e-3))
    eps = 0.1
    rng = np.random.default_rng(nx)
    phi0 = initial_guess(spec).phi
    phi0 += 1e-5 * project_tangent(g, rng.standard_normal((nt, nx)))
    pp0 = PotentialPair(phi0, 1e-5 * rng.standard_normal(nt))
    f1 = apply_F(spec, pp0, eps=eps).f1
    w = st_weights(g)

    def op(v):
        return eps * (w * v + g.dt * g.dx * roll_regularizer(v))

    lift = _level(spec, eps).lift
    u = inner_phi_solve(spec, eps, pp0) - lift
    assert np.max(np.abs(u - project_tangent(g, u))) <= 1e-14
    rhs = -project_tangent(g, w * f1 + op(lift))
    resid = project_tangent(g, op(project_tangent(g, u))) - rhs
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(rhs))


def test_inner_phi_rejects_infeasible_base_point():
    spec = sine_spec()
    g = spec.grid
    pp0 = PotentialPair(initial_guess(spec).phi, np.zeros(g.nt))
    with pytest.raises(ValueError, match="below the feasible level"):
        inner_phi_solve(spec, 0.95, pp0)  # eps above the instance's density dip


def test_young_sup_matches_numeric_maximum():
    for a, p, mu in [(1.3, 1.0, 1.0), (0.4, 0.5, 1.0), (2.0, 1.5, 1.5)]:
        y = np.linspace(0.0, 50.0, 400001)
        numeric = np.max(a * y**p - y ** (mu + 1.0) / 4.0)
        assert young_sup(a, p, mu) == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_trivial_instance_exact_at_every_level():
    g = Grid(nt=13, nx=16, horizon=1.0)
    spec = CongestionSpec(grid=g)
    report = solve_congestion(spec)
    assert report.converged
    assert np.array_equal(report.pair.phi, np.zeros((g.nt, g.nx)))
    assert np.array_equal(report.pair.q, np.zeros(g.nt))
    assert report.diagnostics["fp_residual_sup"] == 0.0
    assert np.array_equal(report.solution.m, np.ones((g.nt, g.nx)))
    assert np.array_equal(report.solution.u, np.zeros((g.nt, g.nx)))
    for level in report.diagnostics["per_eps"]:
        assert level["converged"] and level["iterations"] == 1
        assert not level["used_newton"]


def test_sine_instance_converges_through_schedule(sine_report):
    spec, report = sine_report
    assert report.converged
    assert report.diagnostics["fp_residual_sup"] <= spec.tol_fp
    assert report.grad_norm == report.diagnostics["fp_residual_sup"]
    assert len(report.objective_trace) == report.iterations
    for level in report.diagnostics["per_eps"]:
        assert level["converged"]
        assert level["fp_residual"] <= spec.tol_fp
    assert report.diagnostics["floored_nodes"] == 0


def test_newton_status_recorded_per_level(sine_report):
    _, report = sine_report
    for level in report.diagnostics["per_eps"]:
        if level["used_newton"]:
            assert isinstance(level["newton_status"], str) and level["newton_status"]
        else:
            assert level["newton_status"] is None


def test_solve_factors_once_per_level_and_builds_bands_once(monkeypatch):
    factors = []
    factor = ModeBanded.factor

    def counted(op):
        factors.append(1)
        return factor(op)

    monkeypatch.setattr(ModeBanded, "factor", counted)
    congestion._regularizer_bands.cache_clear()
    report = solve_congestion(sine_spec(alpha=0.5, mu=1.0))
    levels = report.diagnostics["per_eps"]
    assert len(levels) == 1 and any(level["used_newton"] for level in levels)
    # both sweeps of a level, its Newton-Krylov solve and its floor clip share
    # one factored system, and its Newton-Krylov preconditioner is factored
    # once beside it; the sixth-difference bands depend on the grid alone
    assert len(factors) == 2 * len(levels)
    assert congestion._regularizer_bands.cache_info().misses == 1


def test_inner_solves_are_the_halves_of_one_sweep():
    # a rough feasible base point at the solved level: F1 and F2 are nonzero, and
    # the linear solve dips below the floor, so the repair runs inside the sweep
    spec = sine_spec(alpha=0.5, mu=1.0)
    g = spec.grid
    eps = spec.eps
    rng = np.random.default_rng(11)
    pp0 = random_feasible_pair(spec, rng, amplitude=0.25)
    lvl = _level(spec, eps)
    phi, q = congestion._sweep(spec, lvl, pp0)
    assert np.max(np.abs(q)) > 0 and not np.array_equal(phi, lvl.interp)
    assert np.min(dx_periodic(g, phi) + 1.0) >= eps
    assert np.array_equal(inner_phi_solve(spec, eps, pp0), phi)
    assert np.array_equal(inner_q_solve(spec, eps, pp0), q)


def test_default_solve_builds_one_level(monkeypatch):
    built = []
    build = congestion._level

    def counted(spec, eps):
        built.append(eps)
        return build(spec, eps)

    monkeypatch.setattr(congestion, "_level", counted)
    report = solve_congestion(sine_spec(alpha=0.5, mu=1.0))
    assert built == [1e-4]
    assert [level["eps"] for level in report.diagnostics["per_eps"]] == built


# alpha = 1.5 with mu = 0.5 is outside the solvable range alpha < mu + 1
@pytest.mark.parametrize("alpha,mu", [(0.5, 0.5), (0.5, 2.0), (1.5, 2.0)])
@pytest.mark.parametrize("nt,nx", [(7, 8), (49, 96)])
def test_preconditioner_phi_block_factors_positive_definite(nt, nx, alpha, mu):
    spec = CongestionSpec(grid=Grid(nt=nt, nx=nx, horizon=1.0), alpha=alpha, mu=mu)
    for eps in (0.1, spec.eps):
        # ModeBanded.factor raises LinAlgError on a mode that is not positive definite
        assert callable(_level(spec, eps).precondition)


def test_preconditioner_inverts_linearisation_at_uniform_state():
    # independent of the band assembly: the Jacobian of the level's weighted
    # stationarity system at phi = 0, q = 0 (density 1, flux 0) by central
    # differences of apply_F, which are exact up to O(h^2) there
    g = Grid(nt=13, nx=16, horizon=1.0)
    spec = CongestionSpec(grid=g, alpha=0.7, mu=1.3)
    eps, h = 0.01, 1e-4
    lvl = _level(spec, eps)
    w, wt = st_weights(g), time_weights(g)
    rng = np.random.default_rng(4)
    r = rng.standard_normal(g.nt * g.nx + g.nt)
    u = lvl.precondition(r)
    u_phi, u_q = u[: g.nt * g.nx].reshape(g.nt, g.nx), u[g.nt * g.nx :]
    assert np.max(np.abs(u_phi - project_tangent(g, u_phi))) <= 1e-14 * np.max(np.abs(u_phi))

    zero_q = np.zeros(g.nt)
    jac_phi = (
        w * apply_F(spec, PotentialPair(h * u_phi, zero_q)).f1
        - w * apply_F(spec, PotentialPair(-h * u_phi, zero_q)).f1
    ) / (2 * h)
    lhs = project_tangent(g, lvl.op.apply(u_phi) + jac_phi)
    rhs = project_tangent(g, g.dt * g.dx * r[: g.nt * g.nx].reshape(g.nt, g.nx))
    assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(np.abs(rhs))

    jac_q = wt * apply_F(spec, PotentialPair(g.zeros(), u_q)).f2
    stiff_q = -np.diff(np.diff(u_q), prepend=0.0, append=0.0) / g.dt  # K u_q, Neumann ends
    lhs_q = eps * (wt * u_q + stiff_q) + jac_q
    assert np.max(np.abs(lhs_q - g.dt * r[g.nt * g.nx :])) <= 1e-12 * np.max(np.abs(lhs_q))


def test_preconditioned_solve_matches_unpreconditioned_with_fewer_evaluations(
    monkeypatch, sine_report
):
    spec, report = sine_report
    plain_solve = congestion._newton_krylov

    def unpreconditioned(fun, x0, precondition, ftol):
        return plain_solve(fun, x0, lambda v: v, ftol)

    monkeypatch.setattr(congestion, "_newton_krylov", unpreconditioned)
    plain = solve_congestion(spec)
    assert plain.converged
    assert np.max(np.abs(report.pair.phi - plain.pair.phi)) <= 10 * spec.tol_fp
    assert np.max(np.abs(report.pair.q - plain.pair.q)) <= 10 * spec.tol_fp

    def evals(rep):
        return sum(level["newton_residual_evals"] for level in rep.diagnostics["per_eps"])

    assert evals(report) < evals(plain)


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("rtol", [0.5, 1e-3, 1e-10])
def test_gmres_meets_its_forcing_tolerance(preconditioned, rtol):
    rng = np.random.default_rng(8)
    n = 12
    a = 3.0 * np.eye(n) + rng.standard_normal((n, n))  # nonsymmetric
    b = rng.standard_normal(n)
    approx = np.linalg.inv(a + 0.3 * rng.standard_normal((n, n)))
    precondition = (lambda v: approx @ v) if preconditioned else (lambda v: v)
    x, k = _gmres(lambda v: a @ v, b, precondition, rtol, n)
    assert type(k) is int and 1 <= k <= n
    assert np.linalg.norm(b - a @ x) <= (rtol + 1e-12) * np.linalg.norm(b)


def _broyden_tridiagonal(x):
    """Kelley's test residual ``(3 - 2 x_i) x_i - x_(i-1) - 2 x_(i+1) + 1`` with zero ends."""
    padded = np.concatenate([[0.0], x, [0.0]])
    return (3.0 - 2.0 * x) * x - padded[:-2] - 2.0 * padded[2:] + 1.0


@pytest.mark.parametrize("preconditioned", [False, True])
def test_newton_krylov_converges_on_a_small_nonlinear_system(preconditioned):
    x0 = -np.ones(10)
    jac0 = np.diag(3.0 - 4.0 * x0) - np.eye(10, k=-1) - 2.0 * np.eye(10, k=1)
    inv0 = np.linalg.inv(jac0)
    precondition = (lambda v: inv0 @ v) if preconditioned else (lambda v: v)
    x, status, nit, krylov_iters = _newton_krylov(_broyden_tridiagonal, x0, precondition, 1e-12)
    assert status == "converged" and np.max(np.abs(_broyden_tridiagonal(x))) <= 1e-12
    assert type(nit) is int and type(krylov_iters) is int and 0 < nit <= krylov_iters


def test_newton_krylov_step_cap_reports_max_iters(monkeypatch):
    monkeypatch.setattr(congestion, "_NEWTON_MAX_STEPS", 1)
    x0 = -np.ones(10)
    x, status, nit, krylov_iters = _newton_krylov(_broyden_tridiagonal, x0, lambda v: v, 1e-12)
    assert status == "max_iters" and nit == 1 and type(krylov_iters) is int
    assert np.max(np.abs(_broyden_tridiagonal(x))) < np.max(np.abs(_broyden_tridiagonal(x0)))


def test_newton_krylov_without_descent_reports_line_search_failure():
    # x^2 + 1 has no root and a flat Jacobian at 0: no step decreases |f|
    x0 = np.zeros(3)
    x, status, nit, krylov_iters = _newton_krylov(lambda x: x * x + 1.0, x0, lambda v: v, 1e-12)
    assert status == "line_search_failure" and nit == 0 and type(krylov_iters) is int
    assert np.array_equal(x, x0)


def test_newton_counters_per_level(sine_report):
    _, report = sine_report
    levels = report.diagnostics["per_eps"]
    assert all(level["used_newton"] for level in levels)
    for level in levels:
        for key in ("newton_nit", "krylov_iters", "newton_residual_evals"):
            assert type(level[key]) is int and level[key] > 0, key
        assert level["newton_status"] == "converged"
    g = Grid(nt=13, nx=16, horizon=1.0)
    for level in solve_congestion(CongestionSpec(grid=g)).diagnostics["per_eps"]:
        assert not level["used_newton"]
        assert level["newton_nit"] is None and level["krylov_iters"] is None
        assert level["newton_residual_evals"] == 0


def test_fine_sine_rung_converges_at_every_level():
    spec = sine_spec(nt=49, nx=96, alpha=0.5, mu=1.0)
    report = solve_congestion(spec)
    assert report.converged
    for level in report.diagnostics["per_eps"]:
        assert level["fp_residual"] <= spec.tol_fp


@pytest.mark.parametrize("exc", [ValueError("nan in trial"), np.linalg.LinAlgError("singular")])
def test_newton_polish_reports_bad_trial_errors(monkeypatch, exc):
    spec = sine_spec()
    eps = 0.01
    pp = PotentialPair(initial_guess(spec).phi, np.zeros(spec.grid.nt))

    def failing_solve(*args, **kwargs):
        raise exc

    monkeypatch.setattr(congestion, "_newton_krylov", failing_solve)
    counts = {}
    cand, status = _newton_polish(spec, _level(spec, eps), pp, counts)
    assert cand is pp and counts["newton_floored_nodes"] == 0 and counts["newton_nit"] is None
    assert counts["krylov_iters"] is None
    assert status == f"{type(exc).__name__}: {exc}"


def test_newton_polish_propagates_unexpected_errors(monkeypatch):
    spec = sine_spec()
    eps = 0.01
    pp = PotentialPair(initial_guess(spec).phi, np.zeros(spec.grid.nt))

    def broken_solve(*args, **kwargs):
        raise KeyError("programming error")

    monkeypatch.setattr(congestion, "_newton_krylov", broken_solve)
    with pytest.raises(KeyError):
        _newton_polish(spec, _level(spec, eps), pp, {})


def test_failed_newton_candidate_is_rejected(monkeypatch):
    # a far-off, unconverged Newton-Krylov result must never replace the
    # level start: every level keeps the residual of its first sweep
    def far_solve(fun, x0, precondition, ftol):
        return x0 + 0.3 * np.cos(np.arange(x0.size)), "max_iters", 200, 400

    monkeypatch.setattr(congestion, "_newton_krylov", far_solve)
    report = solve_congestion(sine_spec())
    assert not report.converged
    levels = report.diagnostics["per_eps"]
    assert report.iterations == 2 * len(levels)
    for i, level in enumerate(levels):
        assert level["newton_status"] == "max_iters"
        assert level["iterations"] == 2
        assert level["fp_residual"] == report.objective_trace[2 * i]
        assert report.objective_trace[2 * i + 1] > level["fp_residual"]


def test_nan_newton_candidate_is_rejected(monkeypatch):
    # an all-NaN Newton-Krylov result is discarded inside the polish, so the
    # verifying sweep sees the level start and the solve runs to the end
    def nan_solve(fun, x0, precondition, ftol):
        return np.full_like(x0, np.nan), "line_search_failure", 1, 2

    monkeypatch.setattr(congestion, "_newton_krylov", nan_solve)
    report = solve_congestion(sine_spec())
    levels = report.diagnostics["per_eps"]
    assert report.iterations == 2 * len(levels)
    assert np.all(np.isfinite(report.objective_trace))
    for i, level in enumerate(levels):
        assert level["newton_status"] == "non-finite result discarded: line_search_failure"
        assert level["fp_residual"] == report.objective_trace[2 * i]
        assert report.objective_trace[2 * i + 1] == level["fp_residual"]


def test_sine_instance_apriori_bounds_hold(sine_report):
    spec, report = sine_report
    for level in report.diagnostics["per_eps"]:
        assert level["satisfied"]
        assert level["mu_energy"] <= level["bound"]
        assert level["eps_energy"] <= level["bound"]
        assert np.isfinite(level["deriv_energy"])
        assert level["deriv_exponent"] == pytest.approx(spec.kappa)


def test_apriori_diagnostics_matches_the_solve_record(sine_report):
    # the solve records the public entry's value at each level's accepted pair
    spec, report = sine_report
    final = report.diagnostics["per_eps"][-1]
    public = apriori_diagnostics(spec, final["eps"], report.pair)
    assert public == {key: final[key] for key in public}


def test_sine_instance_density_and_mass(sine_report):
    spec, report = sine_report
    m = report.solution.m
    g = spec.grid
    # central-difference densities telescope: mass is exact per slice
    mass = g.dx * m.sum(axis=1)
    assert np.max(np.abs(mass - 1.0)) <= 1e-13
    assert m.min() >= 0.85 and m.max() <= 1.15
    # pinned rows: uniform terminal is exact, initial differs from the
    # marginal only by the one-mode smoothing defect of the stencil
    assert np.array_equal(m[-1], np.ones(g.nx))
    assert np.max(np.abs(m[0] - sine_density(g.nx))) <= 0.1 * np.sin(np.pi / g.nx) ** 2 + 1e-12


def test_sine_instance_pde_residuals_are_truncation_scale(sine_report):
    _, report = sine_report
    sol = report.solution
    assert np.max(np.abs(sol.residual_hj)) <= 0.2
    assert np.max(np.abs(sol.residual_fp)) <= 0.05
    assert np.array_equal(sol.u[:, 0], np.zeros(sol.u.shape[0]))


def test_weak_certificate_nonnegative_at_solution(sine_report):
    spec, report = sine_report
    slacks = weak_certificate(spec, report.pair, np.random.default_rng(3), n_tests=50)
    assert slacks.shape == (50,)
    assert slacks.min() >= -1e-6
