"""Congestion operator, inner solvers, fixed-point driver, certificates."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfgplan.congestion as congestion
from mfgplan.congestion import (
    CongestionSpec,
    _lift,
    _newton_polish,
    apply_F,
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
from mfgplan.grid import Grid, dx_periodic, st_weights, time_weights
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
    """One full continuation solve, shared by the slow-path assertions."""
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
        CongestionSpec(grid=g, eps_schedule=(1e-2, 1e-2))  # not decreasing
    with pytest.raises(ValueError):
        CongestionSpec(grid=g, eps_schedule=(2.0, 1.0))  # starts above k0
    with pytest.raises(ValueError):
        CongestionSpec(grid=g, m0=np.full(16, 1.5))  # not normalized


def test_exponent_metadata():
    spec = sine_spec(alpha=0.5, mu=1.0)
    assert spec.kappa == pytest.approx(min(2 * 2.0 / 2.5, 2.0))
    assert spec.kappa_alternate == pytest.approx(2 * 2.0 / 3.5)
    # for alpha > 1 the two recorded forms genuinely differ
    spec_hi = sine_spec(alpha=1.5, mu=1.5)
    assert spec_hi.kappa != pytest.approx(spec_hi.kappa_alternate)


def test_default_schedule_geometry():
    spec = sine_spec()  # k0 = 0.9 -> levels start at 0.1
    sched = spec.eps_schedule
    assert sched[0] == pytest.approx(0.1)
    assert sched[-1] == pytest.approx(1e-4)
    for a, b in zip(sched[:-2], sched[1:-1]):
        assert b == pytest.approx(0.5 * a)
    assert all(e <= spec.k0 for e in sched)


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


def test_apply_F_matches_scalar_loop_path():
    """Redundant-path oracle: quotient fields first, explicit index stencils."""
    spec = sine_spec(alpha=0.7, mu=1.3)
    g = spec.grid
    nt, nx, dt, dx = g.nt, g.nx, g.dt, g.dx
    rng = np.random.default_rng(11)
    pp = random_feasible_pair(spec.planning_view(floor=1e-6), rng, amplitude=0.2)
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
    a = random_feasible_pair(spec.planning_view(floor=1e-6), rng, amplitude=0.3)
    assert monotonicity_gap(spec, a, a) == 0.0


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 1.9])
def test_monotonicity_gap_nonnegative(alpha):
    spec = sine_spec(alpha=alpha, mu=alpha)
    pview = spec.planning_view(floor=1e-6)
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


def test_inner_q_solution_satisfies_assembled_system():
    spec = sine_spec()
    g = spec.grid
    rng = np.random.default_rng(2)
    pp0 = random_feasible_pair(spec.planning_view(floor=1e-6), rng, amplitude=0.25)
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
    pp0 = PotentialPair(initial_guess(spec.planning_view(floor=eps)).phi, np.zeros(spec.grid.nt))
    f1 = apply_F(spec, pp0, eps=eps).f1
    phi_star = inner_phi_solve(spec, eps, pp0)
    interp = initial_guess(spec.planning_view(floor=eps)).phi
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
    phi0 = initial_guess(spec.planning_view(floor=eps)).phi
    phi0 += 1e-5 * project_tangent(g, rng.standard_normal((nt, nx)))
    pp0 = PotentialPair(phi0, 1e-5 * rng.standard_normal(nt))
    f1 = apply_F(spec, pp0, eps=eps).f1
    w = st_weights(g)

    def op(v):
        return eps * (w * v + g.dt * g.dx * roll_regularizer(v))

    lift = _lift(spec)
    u = inner_phi_solve(spec, eps, pp0) - lift
    assert np.max(np.abs(u - project_tangent(g, u))) <= 1e-14
    rhs = -project_tangent(g, w * f1 + op(lift))
    resid = project_tangent(g, op(project_tangent(g, u))) - rhs
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(rhs))


def test_inner_phi_rejects_infeasible_base_point():
    spec = sine_spec()
    g = spec.grid
    pp0 = PotentialPair(initial_guess(spec.planning_view(floor=1e-6)).phi, np.zeros(g.nt))
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


@pytest.mark.parametrize("exc", [ValueError("nan in trial"), np.linalg.LinAlgError("singular")])
def test_newton_polish_reports_bad_trial_errors(monkeypatch, exc):
    spec = sine_spec()
    eps = 0.01
    pp = PotentialPair(initial_guess(spec.planning_view(floor=eps)).phi, np.zeros(spec.grid.nt))

    def failing_root(*args, **kwargs):
        raise exc

    monkeypatch.setattr(congestion, "root", failing_root)
    cand, status, floored = _newton_polish(spec, eps, pp)
    assert cand is pp and floored == 0
    assert status == f"{type(exc).__name__}: {exc}"


def test_newton_polish_propagates_unexpected_errors(monkeypatch):
    spec = sine_spec()
    eps = 0.01
    pp = PotentialPair(initial_guess(spec.planning_view(floor=eps)).phi, np.zeros(spec.grid.nt))

    def broken_root(*args, **kwargs):
        raise KeyError("programming error")

    monkeypatch.setattr(congestion, "root", broken_root)
    with pytest.raises(KeyError):
        _newton_polish(spec, eps, pp)


def test_failed_newton_candidate_is_rejected(monkeypatch):
    # a far-off, unconverged Newton-Krylov result must never replace the
    # level start: every level keeps the residual of its first sweep
    def far_root(fun, x0, **kwargs):
        x = x0 + 0.3 * np.cos(np.arange(x0.size))
        return SimpleNamespace(x=x, success=False, message="patched: far off")

    monkeypatch.setattr(congestion, "root", far_root)
    report = solve_congestion(sine_spec())
    assert not report.converged
    levels = report.diagnostics["per_eps"]
    assert report.iterations == 2 * len(levels)
    for i, level in enumerate(levels):
        assert level["newton_status"] == "patched: far off"
        assert level["iterations"] == 2
        assert level["fp_residual"] == report.objective_trace[2 * i]
        assert report.objective_trace[2 * i + 1] > level["fp_residual"]


def test_sine_instance_apriori_bounds_hold(sine_report):
    spec, report = sine_report
    for level in report.diagnostics["per_eps"]:
        assert level["satisfied"]
        assert level["mu_energy"] <= level["bound"]
        assert level["eps_energy"] <= level["bound"]
        assert np.isfinite(level["deriv_energy"])
        assert level["deriv_exponent"] == pytest.approx(spec.kappa)


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
