"""Tests for the potential-to-solution reconstruction and its diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgplan import model as model_module
from mfgplan.grid import Grid
from mfgplan.model import build_model, power_coupling, power_hamiltonian
from mfgplan.planning import (
    PlanningSpec,
    PotentialPair,
    initial_guess,
    minimize,
    potential_fields,
    random_feasible_pair,
)
from mfgplan.recovery import (
    MFGSolution,
    _hj_parts,
    conservation_identity,
    periodicity_defect,
    recover,
    validate_solution,
)


def sine_density(x, amp=0.1):
    return 1.0 + amp * np.sin(2 * np.pi * x)


def solved_sine_instance(nt, nx, order=0, tol=1e-8):
    g = Grid(nt, nx, 1.0)
    spec = PlanningSpec(
        grid=g,
        m0=sine_density(g.x),
        mT=sine_density(g.x, -0.1),
        order=order,
        tol=tol,
        max_iters=20000,
    )
    report = minimize(spec)
    assert report.converged
    return spec, report


def test_trivial_recover_is_exact():
    g = Grid(9, 12, 2.5)
    spec = PlanningSpec(grid=g)
    sol = recover(spec, PotentialPair(g.zeros(), np.zeros(g.nt)))
    # uniform marginals, zero potential pair: every field is known in closed form
    assert np.array_equal(sol.m, np.ones((g.nt, g.nx)))
    assert np.array_equal(sol.u, np.zeros((g.nt, g.nx)))
    # c = H(0) - g(1) = -1, so the gauge is theta(t) = -t, exactly on the grid
    np.testing.assert_allclose(sol.theta, -g.t, rtol=0, atol=1e-14)
    assert np.max(np.abs(sol.residual_hj)) <= 1e-14
    assert np.max(np.abs(sol.residual_fp)) <= 1e-14


def test_validate_trivial_all_small():
    g = Grid(9, 12, 2.5)
    spec = PlanningSpec(grid=g)
    sol = recover(spec, PotentialPair(g.zeros(), np.zeros(g.nt)))
    diag = validate_solution(sol, spec)
    for key, value in diag.items():
        if key == "min_density":
            assert value == pytest.approx(1.0, abs=1e-10)
        else:
            assert value <= 1e-10, key


def test_degenerate_density_raises_with_node():
    g = Grid(9, 16, 1.0)
    spec = PlanningSpec(grid=g)
    phi = g.zeros()
    phi[3] = 0.5 * np.sin(2 * np.pi * g.x)  # slope pushes the density negative
    with pytest.raises(ValueError, match="degenerate density at node"):
        recover(spec, PotentialPair(phi, np.zeros(g.nt)))


def test_zero_density_raises_even_at_zero_floor():
    # floor 0 admits no zero density: the slope inversion divides by it
    g = Grid(3, 4, 1.0)
    spec = PlanningSpec(grid=g, floor=0.0)
    phi = g.zeros()
    phi[1] = [0.25, 0.0, -0.25, 0.0]  # central difference -1 at x_index 1
    with pytest.raises(ValueError,
                       match=r"degenerate density at node \(t_index=1, x_index=1\)"):
        recover(spec, PotentialPair(phi, np.zeros(g.nt)))


def test_periodicity_defect_at_convergence():
    spec, report = solved_sine_instance(17, 16)
    defect = periodicity_defect(spec, report.pair)
    assert np.max(np.abs(defect)) <= 10 * spec.tol


def test_residual_refinement_order0():
    # the stored residuals re-differentiate the stored u, so they are honest
    # truncation errors; the one-sided time closures are first order, which
    # keeps the full-field HJ ratio hovering just under 2 at these sizes --
    # the interior rows show the clean second-order decay
    fp_sup, hj_interior = [], []
    for nt, nx in [(17, 16), (33, 32), (65, 64)]:
        spec, report = solved_sine_instance(nt, nx)
        sol = recover(spec, report.pair)
        fp_sup.append(np.max(np.abs(sol.residual_fp)))
        hj_interior.append(np.max(np.abs(sol.residual_hj[1:-1])))
    for seq in (fp_sup, hj_interior):
        for coarse, fine in zip(seq, seq[1:]):
            assert coarse / fine >= 2.0, seq


def test_residual_refinement_order1_interior_band():
    # with diffusion the value function is singular at the time endpoints
    # (the marginals are enforced through a layer), so only rows away from
    # the boundary are expected to converge -- and they do, fast
    mids = []
    for nt, nx in [(17, 16), (33, 32), (65, 64)]:
        spec, report = solved_sine_instance(nt, nx, order=1)
        sol = recover(spec, report.pair)
        mids.append(np.max(np.abs(sol.residual_hj[nt // 4 : 3 * nt // 4])))
    for coarse, fine in zip(mids, mids[1:]):
        assert coarse / fine >= 2.0, mids


def test_boundary_mismatch_is_pure_stencil_error():
    # the pinned slices are never touched by the solver, so the mismatch is
    # exactly the smoothing of the derivative/antiderivative round trip:
    # amp * sin^2(pi/nx) for a one-mode marginal, within the Taylor bound
    for nx in (16, 32):
        g = Grid(9, nx, 1.0)
        spec = PlanningSpec(grid=g, m0=sine_density(g.x), mT=sine_density(g.x))
        sol = recover(spec, initial_guess(spec))
        diag = validate_solution(sol, spec)
        predicted = 0.1 * np.sin(np.pi / nx) ** 2
        assert diag["boundary_mismatch_initial"] == pytest.approx(predicted, rel=1e-10)
        assert diag["boundary_mismatch_initial"] <= 0.1 * (np.pi * g.dx) ** 2


def test_validate_handles_garbage_without_raising():
    g = Grid(7, 12, 1.0)
    spec = PlanningSpec(grid=g)
    rng = np.random.default_rng(7)
    junk = MFGSolution(
        u=rng.normal(size=(g.nt, g.nx)),
        m=rng.normal(size=(g.nt, g.nx)),  # not a density at all
        theta=np.zeros(g.nt),
        residual_hj=np.zeros((g.nt, g.nx)),
        residual_fp=np.zeros((g.nt, g.nx)),
    )
    diag = validate_solution(junk, spec)
    assert diag["mass_defect"] > 0.0
    assert np.isfinite(list(diag.values())).all()


def test_recovered_mass_is_exact():
    spec, report = solved_sine_instance(17, 16)
    sol = recover(spec, report.pair)
    mass = spec.grid.dx * np.sum(sol.m, axis=1)
    np.testing.assert_allclose(mass, 1.0, rtol=0, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([0, 1]))
@settings(max_examples=25, deadline=None)
def test_conservation_identity_is_machine_zero(seed, order):
    # the continuity equation written through the potential reduces to
    # stencil commutators -- it holds at any pair, not just minimizers
    g = Grid(9, 16, 1.3)
    spec = PlanningSpec(
        grid=g, m0=sine_density(g.x, 0.2), mT=sine_density(g.x, -0.15), order=order
    )
    pp = random_feasible_pair(spec, np.random.default_rng(seed))
    assert np.max(np.abs(conservation_identity(spec, pp))) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hj_residual_is_gauge_invariant(seed):
    g = Grid(9, 16, 1.0)
    spec = PlanningSpec(grid=g, m0=sine_density(g.x), mT=sine_density(g.x, -0.1))
    rng = np.random.default_rng(seed)
    sol = recover(spec, initial_guess(spec))
    shift = rng.normal(scale=2.0, size=g.nt)
    _, base = _hj_parts(spec, sol.u, sol.m)
    _, shifted = _hj_parts(spec, sol.u + shift[:, None], sol.m)
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", [0, 1])
def test_recover_reuses_the_solver_slopes(monkeypatch, order):
    g = Grid(17, 16, 1.0)
    model = build_model(power_hamiltonian(1.5), power_coupling(2.5))
    spec = PlanningSpec(grid=g, model=model, m0=sine_density(g.x), mT=sine_density(g.x, -0.1),
                        order=order)
    report = minimize(spec)
    inversions = []
    invert = model_module._invert_slope

    def counted(ham, w, start=None):
        inversions.append(np.size(w))
        return invert(ham, w, start)

    monkeypatch.setattr(model_module, "_invert_slope", counted)
    reused = recover(spec, report.pair, report.slopes)
    assert g.nt * g.nx not in inversions
    fresh = recover(spec, report.pair)
    assert g.nt * g.nx in inversions
    # given the very slopes a fresh inversion finds, recover is bit for bit the same
    flux, m = potential_fields(g, report.pair, order)
    cold = invert(model.hamiltonian, flux / m)
    same = recover(spec, report.pair, cold)
    for name in ("u", "m", "theta", "residual_hj", "residual_fp"):
        assert np.array_equal(getattr(same, name), getattr(fresh, name)), name
    # the solver's slopes come from inversions started at the previous iterate's: the
    # cold roots to the inversion's tolerance (tests/test_model.py), and so is u
    tol = 4e-15 * (1.0 + np.abs(cold))
    assert np.all(np.abs(report.slopes - cold) <= tol)
    assert np.array_equal(reused.m, fresh.m)
    assert np.max(np.abs(reused.u - fresh.u)) <= np.max(tol)  # a sum of dx * slopes
    for name in ("theta", "residual_hj", "residual_fp"):  # measured at most 1.5e-15 relative
        a, b = getattr(reused, name), getattr(fresh, name)
        assert np.max(np.abs(a - b)) <= 1e-14 * (1.0 + np.max(np.abs(b))), name
