"""Variational-core checks: feasible set plumbing, objective, gradient, solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgplan.grid import Grid, dt_interior, dx_periodic, dxx_periodic, integrate_x
from mfgplan.model import build_model, cosine_potential
from mfgplan.planning import (
    PlanningSpec,
    PotentialPair,
    boundary_slices,
    clip_to_floor,
    gradient,
    initial_guess,
    minimize,
    objective,
    pair_inner,
    project_tangent,
    random_feasible_pair,
)


def sine_density(nx: int, amplitude: float = 0.1) -> np.ndarray:
    x = np.arange(nx) / nx
    return 1.0 + amplitude * np.sin(2 * np.pi * x)


def sine_spec(nt=9, nx=16, horizon=1.0, **kw) -> PlanningSpec:
    g = Grid(nt=nt, nx=nx, horizon=horizon)
    return PlanningSpec(grid=g, m0=sine_density(nx), mT=np.ones(nx), **kw)


def test_spec_validation():
    g = Grid(nt=5, nx=8, horizon=1.0)
    with pytest.raises(ValueError):
        PlanningSpec(grid=g, order=2)
    with pytest.raises(ValueError):
        PlanningSpec(grid=g, m0=np.full(8, 1.2))  # not normalized
    with pytest.raises(ValueError):
        PlanningSpec(grid=g, m0=np.linspace(-0.1, 2.1, 8))  # negative nodes
    with pytest.raises(ValueError):
        PlanningSpec(grid=g, floor=2.0)  # floor above density minimum
    spec = PlanningSpec(grid=g)
    assert spec.k0 == pytest.approx(1.0)
    assert spec.sigma == pytest.approx(4.0 / 3.0)  # beta = gamma = 2


def test_boundary_slices_uniform_and_sine():
    g = Grid(nt=5, nx=64, horizon=1.0)
    s0, sT = boundary_slices(g, np.ones(64), np.ones(64))
    assert np.max(np.abs(s0)) == 0.0 and np.max(np.abs(sT)) == 0.0

    m0 = sine_density(64)
    s0, _ = boundary_slices(g, m0, np.ones(64))
    exact = -0.1 * np.cos(2 * np.pi * g.x) / (2 * np.pi)
    assert np.max(np.abs(s0 - exact)) <= 10 * g.dx
    assert abs(integrate_x(g, s0)) < 1e-12

    with pytest.raises(ValueError):
        boundary_slices(g, np.full(64, 1.3), np.ones(64))


def test_initial_guess_structure():
    spec = sine_spec(nt=9, nx=32)
    pp = initial_guess(spec)
    s0, sT = boundary_slices(spec.grid, spec.m0, spec.mT)
    assert np.array_equal(pp.phi[0], s0)
    assert np.array_equal(pp.phi[-1], sT)
    assert np.all(pp.q == 0.0)
    dens = dx_periodic(spec.grid, pp.phi) + 1.0
    assert np.min(dens) >= spec.k0 - 10 * spec.grid.dx**2

    trivial = PlanningSpec(grid=Grid(5, 8, 1.0))
    pp = initial_guess(trivial)
    assert np.all(pp.phi == 0.0) and np.all(pp.q == 0.0)


def test_objective_trivial_values():
    g = Grid(nt=9, nx=16, horizon=2.5)
    spec = PlanningSpec(grid=g)
    zero = PotentialPair(phi=g.zeros(), q=np.zeros(g.nt))
    assert objective(spec, zero) == pytest.approx(2.5 * 0.5, abs=1e-12)

    c = 0.7
    shifted = PotentialPair(phi=g.zeros(), q=np.full(g.nt, c))
    assert objective(spec, shifted) == pytest.approx(2.5 * (c * c / 2 + 0.5), abs=1e-12)

    # order 1 adds a -phi_xx shift that vanishes on the flat pair
    spec1 = PlanningSpec(grid=g, order=1)
    assert objective(spec1, zero) == pytest.approx(2.5 * 0.5, abs=1e-12)


def test_objective_infeasible_is_infinite():
    g = Grid(nt=5, nx=8, horizon=1.0)
    spec = PlanningSpec(grid=g)
    phi = g.zeros()
    phi[2] = 5.0 * np.sin(2 * np.pi * g.x)  # density goes far negative
    assert objective(spec, PotentialPair(phi, np.zeros(g.nt))) == np.inf


def test_gradient_zero_at_trivial_minimizer():
    for order in (0, 1):
        g = Grid(nt=9, nx=16, horizon=1.0)
        spec = PlanningSpec(grid=g, order=order)
        dphi, dq = gradient(spec, PotentialPair(g.zeros(), np.zeros(g.nt)))
        assert np.max(np.abs(dphi)) < 1e-12
        assert np.max(np.abs(dq)) < 1e-12


def test_gradient_boundary_rows_zero():
    spec = sine_spec(nt=9, nx=16)
    pp = random_feasible_pair(spec, np.random.default_rng(2))
    dphi, _ = gradient(spec, pp)
    assert np.all(dphi[0] == 0.0) and np.all(dphi[-1] == 0.0)
    assert np.max(np.abs(dphi.mean(axis=1))) < 1e-14


def test_gradient_rejects_infeasible_pair():
    g = Grid(nt=5, nx=8, horizon=1.0)
    spec = PlanningSpec(grid=g)
    phi = g.zeros()
    phi[2] = 5.0 * np.sin(2 * np.pi * g.x)
    with pytest.raises(ValueError, match="infeasible"):
        gradient(spec, PotentialPair(phi, np.zeros(g.nt)))


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1]))
@settings(max_examples=20, deadline=None)
def test_gradient_matches_directional_derivative(seed, order):
    rng = np.random.default_rng(seed)
    spec = sine_spec(nt=7, nx=12, order=order)
    g = spec.grid
    pp = random_feasible_pair(spec, rng)
    dphi_dir = project_tangent(g, rng.standard_normal((g.nt, g.nx)))
    # unit direction in the stencil sup-norm: the -phi_xx term of order 1
    # magnifies a raw direction by 1/dx^2, and with it the O(h^2) truncation
    # error of the central difference, past the bound
    dphi_dir /= max(np.max(np.abs(d(g, dphi_dir))) for d in (dx_periodic, dxx_periodic, dt_interior))
    dq_dir = rng.standard_normal(g.nt)
    h = 1e-5
    plus = PotentialPair(pp.phi + h * dphi_dir, pp.q + h * dq_dir)
    minus = PotentialPair(pp.phi - h * dphi_dir, pp.q - h * dq_dir)
    fd = (objective(spec, plus) - objective(spec, minus)) / (2 * h)
    gd = pair_inner(g, gradient(spec, pp), (dphi_dir, dq_dir))
    assert abs(fd - gd) <= 1e-5 * max(abs(fd), 1e-6)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_objective_convex_along_segments(seed):
    rng = np.random.default_rng(seed)
    spec = sine_spec(nt=7, nx=12)
    a = random_feasible_pair(spec, rng)
    b = random_feasible_pair(spec, rng)
    fa, fb = objective(spec, a), objective(spec, b)
    for t in rng.uniform(0.05, 0.95, 5):
        mid = PotentialPair(t * a.phi + (1 - t) * b.phi, t * a.q + (1 - t) * b.q)
        assert objective(spec, mid) <= t * fa + (1 - t) * fb + 1e-9


def test_clip_to_floor_repairs_violations():
    spec = sine_spec(nt=5, nx=16, floor=1e-3)
    g = spec.grid
    phi = initial_guess(spec).phi
    phi[2] += 2.0 * np.sin(2 * np.pi * g.x)  # drives density negative mid-row
    clipped = clip_to_floor(spec, phi)
    dens = dx_periodic(g, clipped) + 1.0
    assert np.min(dens[1:-1]) >= spec.floor
    assert np.max(np.abs(clipped.mean(axis=1))) < 1e-13
    assert np.array_equal(clipped[0], phi[0])
    assert np.array_equal(clipped[-1], phi[-1])
    # untouched rows stay bitwise identical
    assert np.array_equal(clipped[1], phi[1])


def test_random_feasible_pair_is_strictly_feasible():
    spec = sine_spec(nt=9, nx=24)
    for seed in range(5):
        pp = random_feasible_pair(spec, np.random.default_rng(seed))
        dens = dx_periodic(spec.grid, pp.phi) + 1.0
        assert np.min(dens) >= 0.5 * spec.k0
        assert np.max(np.abs(pp.phi.mean(axis=1))) < 1e-13
        assert np.isfinite(objective(spec, pp))


def test_minimize_trivial_exact():
    for order in (0, 1):
        g = Grid(nt=9, nx=16, horizon=1.0)
        spec = PlanningSpec(grid=g, order=order)
        report = minimize(spec)
        assert report.converged
        assert report.iterations == 0
        assert np.all(report.pair.phi == 0.0)
        assert np.all(report.pair.q == 0.0)
        assert report.objective_trace[-1] == pytest.approx(0.5, abs=1e-12)


def test_minimize_sine_instance():
    spec = sine_spec(nt=9, nx=16, tol=1e-6)
    report = minimize(spec)
    assert report.converged
    assert report.grad_norm <= 1e-6
    # monotone trace
    assert np.all(np.diff(report.objective_trace) <= 0)
    # feasibility held at every accepted iterate
    assert np.all(report.diagnostics["min_density_trace"] >= spec.floor)
    assert report.diagnostics["mass_defect"] < 1e-13
    assert report.diagnostics["q_residual_sup"] <= 10 * spec.tol
    # sine transport should genuinely beat the congestion-free baseline start
    assert report.objective_trace[-1] < report.objective_trace[0]


def test_minimize_warm_start_agreement_small():
    spec = sine_spec(nt=7, nx=12, tol=1e-8)
    rng = np.random.default_rng(11)
    r1 = minimize(spec, start=random_feasible_pair(spec, rng))
    r2 = minimize(spec, start=random_feasible_pair(spec, rng))
    assert r1.converged and r2.converged
    assert np.max(np.abs(r1.pair.phi - r2.pair.phi)) <= 1e-4
    assert np.max(np.abs(r1.pair.q - r2.pair.q)) <= 1e-4


def test_minimize_with_potential_moves_mass():
    g = Grid(nt=9, nx=16, horizon=1.0)
    spec = PlanningSpec(
        grid=g, model=build_model(potential=cosine_potential(0.5)), tol=1e-6
    )
    report = minimize(spec)
    assert report.converged
    # a nonzero potential makes the flat pair non-stationary
    assert report.iterations > 0
    assert report.objective_trace[-1] < 0.5
