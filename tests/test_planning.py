"""Variational-core checks: feasible set plumbing, objective, gradient, solver."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from mfgplan.grid import (
    Grid,
    ModeBanded,
    dt_interior,
    dx_periodic,
    dxx_periodic,
    integrate_x,
    integrate_xt,
    st_weights,
    time_stencil_matrix,
    time_weights,
)
from mfgplan import model as model_module
from mfgplan import planning as planning_module
from mfgplan.model import build_model, cosine_potential, power_coupling, power_hamiltonian
from mfgplan.planning import (
    PlanningSpec,
    PotentialPair,
    _evaluate,
    _gradient,
    _metric_bands,
    _two_loop,
    _two_sum,
    boundary_slices,
    clip_to_floor,
    gradient,
    initial_guess,
    minimize,
    objective,
    pair_inner,
    potential_fields,
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
    with pytest.raises(ValueError, match="m0 must be finite and strictly positive"):
        PlanningSpec(grid=g, m0=np.where(np.arange(8) == 3, np.nan, 1.0))
    for tol in (0.0, -1e-8, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            PlanningSpec(grid=g, tol=tol)
    spec = PlanningSpec(grid=g)
    assert spec.k0 == pytest.approx(1.0)


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
    clipped = clip_to_floor(g, spec.floor, phi)
    dens = dx_periodic(g, clipped) + 1.0
    assert np.min(dens[1:-1]) >= spec.floor
    assert np.max(np.abs(clipped.mean(axis=1))) < 1e-13
    assert np.array_equal(clipped[0], phi[0])
    assert np.array_equal(clipped[-1], phi[-1])
    # untouched rows stay bitwise identical
    assert np.array_equal(clipped[1], phi[1])


def test_clip_to_floor_zeroes_the_low_part_on_repaired_rows():
    spec = sine_spec(nt=5, nx=16, floor=1e-3)
    g = spec.grid
    rng = np.random.default_rng(5)
    phi = initial_guess(spec).phi
    lo = project_tangent(g, 1e-18 * rng.standard_normal(phi.shape))
    step = np.zeros_like(phi)
    step[2] = 2.0 * np.sin(2 * np.pi * g.x)  # drives density negative mid-row
    step[1] = 1e-3 * np.cos(2 * np.pi * g.x)  # a feasible step on another row
    hi_t, lo_t = _two_sum(phi, lo, step)
    clipped, lo_c = clip_to_floor(g, spec.floor, hi_t, lo_t)
    repaired = np.any(clipped != hi_t, axis=1)
    assert repaired.tolist() == [False, False, True, False, False]
    assert np.all(lo_c[2] == 0.0) and np.any(lo_t[2] != 0.0)
    assert np.array_equal(lo_c[~repaired], lo_t[~repaired])
    assert np.array_equal(clipped, clip_to_floor(g, spec.floor, hi_t))


def test_two_sum_step_is_exact():
    rng = np.random.default_rng(2)
    hi = rng.standard_normal((4, 8))
    step = 1e-9 * rng.standard_normal((4, 8))
    new_hi, new_lo = _two_sum(hi, np.zeros_like(hi), step)
    # renormalised: the high part is the rounded sum, the low part what it dropped
    assert np.array_equal(new_hi, hi + step)
    assert np.all(np.abs(new_lo) <= 0.5 * np.abs(np.spacing(new_hi)))
    for h, d, nh, nl in zip(hi.flat, step.flat, new_hi.flat, new_lo.flat):
        assert Fraction(nh) + Fraction(nl) == Fraction(h) + Fraction(d)


@pytest.mark.parametrize("order", [0, 1])
def test_zero_low_part_leaves_fields_bit_identical(order):
    spec = sine_spec(nt=9, nx=16)
    pp = random_feasible_pair(spec, np.random.default_rng(3))
    with_lo = PotentialPair(pp.phi, pp.q, np.zeros_like(pp.phi))
    for a, b in zip(potential_fields(spec.grid, pp, order),
                    potential_fields(spec.grid, with_lo, order)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("order", [0, 1])
def test_low_part_enters_every_stencil(order):
    spec = sine_spec(nt=9, nx=16)
    g = spec.grid
    rng = np.random.default_rng(4)
    a, b = random_feasible_pair(spec, rng), random_feasible_pair(spec, rng)
    lo = b.phi - initial_guess(spec).phi  # a tangent field, not small, so every term shows
    split = potential_fields(g, PotentialPair(a.phi, a.q, lo), order)
    whole = potential_fields(g, PotentialPair(a.phi + lo, a.q), order)
    for s, w in zip(split, whole):
        assert np.max(np.abs(s - w)) <= 1e-12


@pytest.mark.parametrize("nt, nx", [(33, 32), (129, 128), (257, 256)])
def test_difference_first_laplacean_agrees_with_stencil(nt, nx):
    # the flux's Laplacean is grid's, bit for bit, with and without a low part
    spec = _refinement_spec(nt, nx)
    g = spec.grid
    rng = np.random.default_rng(nx)
    pp = random_feasible_pair(spec, rng)
    phi, q = pp.phi, pp.q[:, None]
    assert np.array_equal(potential_fields(g, pp, 1)[0],
                          dt_interior(g, phi) + q - dxx_periodic(g, phi))
    lo = 1e-17 * rng.standard_normal((nt, nx))
    flux, dens = potential_fields(g, PotentialPair(phi, pp.q, lo), 1)
    lap = dxx_periodic(g, phi) + dxx_periodic(g, lo)
    assert np.array_equal(flux, dt_interior(g, phi) + dt_interior(g, lo) + q - lap)
    assert np.array_equal(dens, dx_periodic(g, phi) + dx_periodic(g, lo) + 1.0)


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


def test_minimize_rejects_a_start_with_negative_pinned_density():
    # the floor repair leaves the pinned rows alone, so the start stays infeasible
    spec = sine_spec(nt=9, nx=16)
    start = initial_guess(spec)
    start.phi[0] += 5.0 * np.sin(2 * np.pi * spec.grid.x)
    with pytest.raises(ValueError, match="starting pair is infeasible"):
        minimize(spec, start=start)


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


def _dense_preconditioner(
    spec: PlanningSpec, rhs: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Reference direction from a dense Cholesky of each mode's interior block A_k.

    Also returns the curvatures ``L''(0)`` and ``g'(1)`` the blocks were built with.
    """
    g = spec.grid
    nt, nx = g.nt, g.nx
    wt = time_weights(g)
    mt = time_stencil_matrix(g)
    h = 1e-4
    lag = spec.model.lagrangian
    lpp = max(float((lag.eval(np.asarray(h)) - 2 * lag.eval(np.asarray(0.0))
                     + lag.eval(np.asarray(-h))) / h**2), 1e-8)
    cpl = spec.model.coupling
    gp1 = max(float((cpl.g(np.asarray(1.0 + h)) - cpl.g(np.asarray(1.0 - h))) / (2 * h)), 0.0)
    spectral = np.fft.rfft(rhs, axis=1)
    out = np.zeros_like(spectral)
    for k in range(1, nx // 2 + 1):
        s2 = (np.sin(2.0 * np.pi * k / nx) / g.dx) ** 2
        lap = 4.0 * np.sin(np.pi * k / nx) ** 2 / g.dx**2
        sk = mt + (lap * np.eye(nt) if spec.order == 1 else 0.0)
        a = g.dx * (lpp * (sk.T * wt) @ sk + gp1 * s2 * np.diag(wt))
        b = spectral[1:-1, k]
        x = cho_solve(cho_factor(a[1:-1, 1:-1]), np.column_stack((b.real, b.imag)))
        out[1:-1, k] = x[:, 0] + 1j * x[:, 1]
    return np.fft.irfft(out, n=nx, axis=1), lpp, gp1


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("nx", [16, 15])
@pytest.mark.parametrize("power", [False, True])
def test_preconditioner_matches_dense_per_mode_cholesky(order, nx, power):
    model = build_model(power_hamiltonian(1.5), power_coupling(2.5)) if power else build_model()
    spec = PlanningSpec(grid=Grid(nt=11, nx=nx, horizon=1.5), model=model, order=order)
    rhs = np.random.default_rng(nx + 10 * order).standard_normal((11, nx))
    ref, lpp, gp1 = _dense_preconditioner(spec, rhs)
    if power:  # L''(0) = 1/H''(0) = 2/3 and g'(1) = 3/2 reach both coefficients
        assert lpp == pytest.approx(2.0 / 3.0, rel=1e-6)
        assert gp1 == pytest.approx(1.5, rel=1e-6)
    bands = _metric_bands(spec.grid, order, *planning_module._curvatures(spec))
    out = ModeBanded(spec.grid, bands).factor()(rhs)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("nx", [16, 15])
def test_metric_is_the_objective_hessian_at_the_uniform_state(order, nx):
    # quadratic model, V = 0, uniform marginals: L''(0) = g'(1) = 1 at the flat pair
    spec = PlanningSpec(grid=Grid(nt=11, nx=nx, horizon=1.0), order=order)
    g = spec.grid
    d = project_tangent(g, np.random.default_rng(nx + 10 * order).standard_normal((11, nx)))
    h = 1e-6
    plus, minus = (gradient(spec, PotentialPair(s * h * d, np.zeros(11)))[0] for s in (1, -1))
    fd = (plus - minus) / (2 * h)
    exact = project_tangent(g, ModeBanded(g, _metric_bands(g, order, 1.0, 1.0)).apply(d)
                            / st_weights(g))
    assert np.max(np.abs(fd - exact)) <= 1e-8 * np.max(np.abs(exact))


@pytest.mark.parametrize("order", [0, 1])
def test_power_model_inverts_the_slope_once_per_call(monkeypatch, order):
    calls = []
    invert = model_module._invert_slope

    def counted(ham, w, start=None):
        calls.append(1)
        return invert(ham, w, start)

    monkeypatch.setattr(model_module, "_invert_slope", counted)
    spec = sine_spec(model=build_model(power_hamiltonian(1.5), power_coupling(2.5)), order=order)
    pp = random_feasible_pair(spec, np.random.default_rng(4))
    objective(spec, pp)
    assert len(calls) == 1
    gradient(spec, pp)
    assert len(calls) == 2


def _model(kind: str):
    if kind == "power":
        return build_model(power_hamiltonian(1.5), power_coupling(2.5), cosine_potential(0.2))
    return build_model(potential=cosine_potential(0.2))


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("kind", ["quadratic", "power"])
def test_fused_evaluation_matches_wrappers(kind, order):
    spec = sine_spec(model=_model(kind), order=order)
    pp = random_feasible_pair(spec, np.random.default_rng(7))
    f, terms = _evaluate(spec, pp)
    z, y, (p, minus_h) = terms
    model = spec.model
    # the perspective and objective by the formulas of L itself
    ref_value = y * model.lagrangian.eval(z / y)
    v = model.potential.sample(spec.grid)[None, :]
    ref_f = integrate_xt(spec.grid, ref_value - v * (y - 1.0) + model.coupling.G(y))
    assert f == objective(spec, pp) == ref_f
    assert np.array_equal(model.perspective.value(z, y), ref_value)
    ref_p = model.lagrangian.derivative(z / y)
    assert np.array_equal(p, ref_p)
    assert np.array_equal(minus_h, -model.hamiltonian.eval(ref_p))
    for fused, wrapped in zip(_gradient(spec, *terms), gradient(spec, pp)):
        assert np.array_equal(fused, wrapped)
    # a density just below the floor (within the 1e-13 slack) re-evaluates
    # the partials at max(y, floor), exactly as the wrapper does
    low = dataclasses.replace(spec, floor=float(np.min(y)) + 5e-14)
    for fused, wrapped in zip(_gradient(low, *terms), gradient(low, pp)):
        assert np.array_equal(fused, wrapped)


def test_minimize_inverts_full_grid_slopes_once_per_trial_point(monkeypatch):
    spec = sine_spec(nt=33, nx=32, model=_model("power"), order=1)
    full = []
    invert = model_module._invert_slope

    def counted(ham, w, start=None):
        if np.size(w) == spec.grid.nt * spec.grid.nx:
            full.append(1)
        return invert(ham, w, start)

    monkeypatch.setattr(model_module, "_invert_slope", counted)
    report = minimize(spec)
    assert report.converged and report.iterations > 5
    # the start plus one trial per iteration plus one per backtrack; the
    # gradient of each accepted point reuses its trial's slopes
    assert len(full) == 1 + report.iterations + report.diagnostics["backtracks"]


def _power_instance(nt: int, nx: int, order: int = 1) -> PlanningSpec:
    g = Grid(nt=nt, nx=nx, horizon=1.0)
    wave = 0.1 * np.sin(2 * np.pi * g.x) + 0.05 * np.cos(4 * np.pi * g.x)
    return PlanningSpec(grid=g, model=_model("power"), m0=1.0 + wave, mT=1.0 - wave, order=order)


def _steep_power_instance(alpha: float, max_iters: int = 20000) -> PlanningSpec:
    # the first full step asks for slopes w of 4.6e3 to 5.0e8, beyond the inversion's
    # bracket for alpha <= 1.3: that trial point must count as infeasible
    g = Grid(nt=33, nx=32, horizon=1.0)
    return PlanningSpec(grid=g, model=build_model(power_hamiltonian(alpha), power_coupling(2.0)),
                        m0=1.0 + 0.5 * np.sin(2 * np.pi * g.x),
                        mT=1.0 + 0.5 * np.cos(2 * np.pi * g.x), order=1, max_iters=max_iters)


def test_trial_point_with_failed_slope_inversion_is_rejected():
    report = minimize(_steep_power_instance(1.3))
    assert report.converged and report.grad_norm <= 1e-8
    assert np.all(np.diff(report.objective_trace) <= 0)


def test_power_instance_beyond_the_slope_bracket_returns_a_report():
    report = minimize(_steep_power_instance(1.1, max_iters=50))
    assert not report.converged and report.iterations == 50
    assert report.diagnostics["exit_reason"] == "max_iters"


def _counting_power_model(evaluations: list):
    """The power model of :func:`_model` with every ``H'`` call recorded."""
    ham = power_hamiltonian(1.5)

    def derivative(p):
        evaluations.append(np.size(p))
        return ham.derivative(p)

    spy = model_module.Hamiltonian(eval=ham.eval, derivative=derivative, name=ham.name,
                                   second=ham.second)
    return build_model(spy, power_coupling(2.5), cosine_potential(0.2))


def test_warm_start_saves_slope_evaluations(monkeypatch):
    # the same solve with every inversion started cold, then warm from the
    # accepted point's slopes: fewer H' evaluations in all (the first trial,
    # a long step from the start, may take more than a cold one)
    runs = {}
    invert = model_module._invert_slope
    for label in ("cold", "warm"):
        evaluations, inversions = [], []

        def counted(ham, w, start=None, label=label, inversions=inversions):
            inversions.append(1)
            return invert(ham, w, start if label == "warm" else None)

        monkeypatch.setattr(model_module, "_invert_slope", counted)
        spec = dataclasses.replace(_power_instance(33, 32),
                                   model=_counting_power_model(evaluations))
        report = minimize(spec)
        assert report.converged
        runs[label] = evaluations, len(inversions), report
    (cold, n_cold, r_cold), (warm, n_warm, r_warm) = runs["cold"], runs["warm"]
    assert n_warm == n_cold  # as many inversions, each cheaper on average
    assert len(warm) < len(cold) and sum(warm) < sum(cold)
    assert np.max(np.abs(r_warm.pair.phi - r_cold.pair.phi)) <= 1e-10


def test_newton_inversion_takes_few_slope_evaluations(monkeypatch):
    # Newton steps on H'' from the accepted point's slopes, plus one confirming
    # H' call: about 4 calls per inversion where the bracketed secant took 8
    evaluations, inversions, fallbacks = [], [], []
    invert, secant = model_module._invert_slope, model_module._secant_slope

    def counted(ham, w, start=None):
        inversions.append(1)
        return invert(ham, w, start)

    def recorded(ham, w, start=None):
        fallbacks.append(np.size(w))
        return secant(ham, w, start)

    monkeypatch.setattr(model_module, "_invert_slope", counted)
    monkeypatch.setattr(model_module, "_secant_slope", recorded)
    spec = dataclasses.replace(_power_instance(33, 32), model=_counting_power_model(evaluations))
    report = minimize(spec)
    assert report.converged
    assert len(evaluations) <= 5 * len(inversions)
    assert not fallbacks  # every node of every inversion was confirmed after Newton steps


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("kind", ["quadratic", "power"])
def test_empty_memory_direction_descends(kind, order):
    # minimize has no raw-gradient fallback: with no pairs the direction is
    # -H0 grad, H0 SPD, so its slope is negative for every nonzero gradient
    spec = sine_spec(nt=17, nx=16, model=_model(kind), order=order)
    g = spec.grid
    bands = _metric_bands(g, order, *planning_module._curvatures(spec))
    precondition = ModeBanded(g, bands).factor()

    def metric(r):
        return precondition(st_weights(g) * r[0]), r[1]

    rng = np.random.default_rng(10 * order + len(kind))
    for k in range(40):
        scale = 10.0 ** rng.uniform(-8, 8)
        gphi = scale * project_tangent(g, rng.standard_normal((g.nt, g.nx)))
        gq = scale * rng.standard_normal(g.nt) * (k % 4 != 1)  # some with gq = 0
        if k % 4 == 2:
            gphi = 0.0 * gphi
        d = _two_loop(g, (), (gphi, gq), metric)
        assert pair_inner(g, (gphi, gq), d) < 0


def test_lbfgs_cuts_iterations_in_the_banded_metric(monkeypatch):
    spec = _power_instance(65, 64)
    report = minimize(spec)
    monkeypatch.setattr(planning_module, "_LBFGS_MEMORY", 0)  # every pair forgotten
    metric_only = minimize(spec)
    assert report.converged and metric_only.converged
    assert report.iterations <= 0.75 * metric_only.iterations
    assert np.all(np.diff(report.objective_trace) <= 0)
    assert np.max(np.abs(report.pair.phi - metric_only.pair.phi)) <= 1e-10
    assert report.diagnostics["lbfgs_resets"] == 0


def test_lbfgs_stuck_below_resolution_retries_in_the_metric(monkeypatch):
    # at tol = 1e-10 the pairs' direction stops contracting the gradient once f
    # can no longer arbitrate steps; cleared, the metric direction goes on
    spec = sine_spec(nt=65, nx=64, model=_model("power"), order=1, tol=1e-10)
    report = minimize(spec)
    assert report.converged and report.diagnostics["exit_reason"] == "converged"
    assert report.diagnostics["lbfgs_resets"] >= 1
    monkeypatch.setattr(planning_module, "_LBFGS_MEMORY", 0)
    metric_only = minimize(spec)
    assert metric_only.converged and report.iterations < metric_only.iterations


def test_non_descent_direction_clears_the_memory(monkeypatch):
    two_loop = planning_module._two_loop
    memory = []

    def flipped(grid, pairs, grad, metric):  # the first direction built from pairs points uphill
        memory.append(len(pairs))
        d = two_loop(grid, pairs, grad, metric)
        return (-d[0], -d[1]) if pairs and memory.count(0) == 1 else d

    monkeypatch.setattr(planning_module, "_two_loop", flipped)
    report = minimize(_power_instance(33, 32))
    assert report.converged and report.grad_norm <= 1e-8
    assert report.diagnostics["lbfgs_resets"] == 1
    # the flipped call is followed, in the same iteration, by one from an empty memory
    k = memory.index(next(n for n in memory if n > 0))
    assert memory[k + 1] == 0 and memory.count(0) == 2
    assert len(memory) == report.iterations + 1
    assert np.all(np.diff(report.objective_trace) <= 0)


def test_curvature_pair_holds_the_step_taken_on_repaired_rows(monkeypatch):
    # where clip_to_floor repairs rows, the step taken is not alpha d there: each
    # stored pair must hold the change of the iterate it was built from
    clip, evaluate, two_loop = (planning_module.clip_to_floor, planning_module._evaluate,
                                planning_module._two_loop)
    directions, points, newest = [], [], []

    def repairing(grid, floor, phi, lo=None):  # in the second iteration, row 3 comes back shrunk
        phi, lo = (a.copy() for a in clip(grid, floor, phi, lo))
        if len(directions) == 2:
            phi[3] *= 0.999
            lo[3] = 0.0
        return phi, lo

    def recorded(spec, pp, start=None):
        points.append((pp.phi, pp.lo, pp.q))
        return evaluate(spec, pp, start)

    def watched(grid, pairs, grad, metric):
        directions.append(len(points))
        newest.append(pairs[-1] if pairs else None)
        return two_loop(grid, pairs, grad, metric)

    monkeypatch.setattr(planning_module, "clip_to_floor", repairing)
    monkeypatch.setattr(planning_module, "_evaluate", recorded)
    monkeypatch.setattr(planning_module, "_two_loop", watched)
    report = minimize(_power_instance(33, 32))
    assert report.converged and report.diagnostics["lbfgs_resets"] == 0
    # the accepted point of an iteration is the last one evaluated before the next direction
    accepted = [points[n - 1] for n in directions]
    checked = 0
    for k in range(1, len(directions)):
        if newest[k] is None or newest[k] is newest[k - 1]:
            continue  # no pair stored (s.y <= 0)
        (s_phi, s_q), (a, b) = newest[k][0], accepted[k - 1:k + 1]
        taken = (b[0] - a[0]) + (b[1] - a[1])
        assert np.max(np.abs(s_phi - taken)) <= 1e-15 * np.max(np.abs(taken)), k
        assert np.array_equal(s_q, b[2] - a[2]), k
        checked += k == 2
    assert checked == 1  # the repaired step was stored and checked


def test_minimize_computes_curvatures_once(monkeypatch):
    calls = []
    curvatures = planning_module._curvatures

    def counted(spec):
        calls.append(1)
        return curvatures(spec)

    monkeypatch.setattr(planning_module, "_curvatures", counted)
    report = minimize(sine_spec(nt=17, nx=16, model=_model("power")))
    assert report.iterations > 0
    # the preconditioner and the rounding-floor estimate share one pair
    assert len(calls) == 1


def _refinement_spec(nt: int, nx: int) -> PlanningSpec:
    g = Grid(nt=nt, nx=nx, horizon=1.0)
    wave = 0.1 * np.sin(2 * np.pi * g.x)
    return PlanningSpec(grid=g, m0=1.0 + wave, mT=1.0 - wave, order=1, tol=1e-8)


def _floor_estimate(report, spec: PlanningSpec) -> float:
    # u^2 max|phi| lead^2 + 2 u (lead max|z| + order lead max|y - 1| / dx + max|y| / dx)
    # with L''(0) = g'(1) = 1 for the quadratic model and coupling
    g, u = spec.grid, np.finfo(float).eps
    lead = 4.0 / g.dx**2 if spec.order else 2.0 / g.dt
    z, y = potential_fields(g, report.pair, spec.order)
    phi = np.max(np.abs(report.pair.phi))
    zmax = np.max(np.abs(z)) + spec.order * np.max(np.abs(y - 1.0)) / g.dx
    return u * u * phi * (lead**2 + 1.0 / g.dx**2) + 2.0 * u * (
        lead * zmax + np.max(np.abs(y)) / g.dx
    )


@pytest.mark.parametrize("nt, nx, reason", [(129, 128, "converged"), (257, 256, "converged")])
def test_order1_sine_rung_exit_reason(nt, nx, reason):
    # the top rungs of the refinement ladder converge for both orders: the
    # iterate is held as phi + lo, so its storage no longer sets the floor
    for order in (0, 1):
        spec = dataclasses.replace(_refinement_spec(nt, nx), order=order)
        report = minimize(spec)
        diag = report.diagnostics
        assert diag["exit_reason"] == reason
        assert report.converged and report.grad_norm <= spec.tol
        assert diag["grad_floor_estimate"] == pytest.approx(_floor_estimate(report, spec), rel=1e-6)


@pytest.mark.parametrize("order", [0, 1])
def test_forced_stall_exit_reason_rounding_floor(order):
    # a tolerance far below the gradient's rounding floor: the solver stalls
    # between the tolerance and the floor estimate
    spec = sine_spec(nt=9, nx=16, order=order, tol=1e-20)
    report = minimize(spec)
    diag = report.diagnostics
    assert diag["exit_reason"] == "rounding_floor"
    assert not report.converged and diag["stalled"]
    assert diag["grad_floor_estimate"] == pytest.approx(_floor_estimate(report, spec), rel=1e-6)
    assert spec.tol < report.grad_norm <= diag["grad_floor_estimate"]


def test_descent_without_decrease_is_a_line_search_failure(monkeypatch):
    evaluate = planning_module._evaluate
    calls = []

    def start_only(spec, pp, start=None):  # every trial point is infeasible
        calls.append(1)
        return evaluate(spec, pp, start) if len(calls) == 1 else (np.inf, None)

    monkeypatch.setattr(planning_module, "_evaluate", start_only)
    with pytest.raises(RuntimeError, match="line-search failure"):
        minimize(sine_spec())
    assert len(calls) == 1 + 80


def test_iteration_budget_exit_reason():
    report = minimize(sine_spec(max_iters=1, tol=1e-12))
    assert not report.converged and not report.diagnostics["stalled"]
    assert report.diagnostics["exit_reason"] == "max_iters"
