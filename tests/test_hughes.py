"""Envelope-formula solver: validation, closed forms, symmetry, refinement."""

import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgplan.hughes import (
    CongestionSpeed,
    HughesSpec,
    LinearSpeed,
    cumulative_potential,
    hopf_lax,
    solve_hughes,
)


def ramp_instance(nx, nt):
    """Smooth increasing tanh ramp on [-3, 3], times in [0.2, 0.6]."""
    xs = np.linspace(-3.0, 3.0, nx)
    rho0 = 0.25 + 0.2 * (1.0 + np.tanh(1.5 * xs)) / 2.0
    return HughesSpec(x_min=-3.0, x_max=3.0, rho0=rho0,
                      times=tuple(np.linspace(0.2, 0.6, nt)), branch="increasing")


WINDOW_TIMES = (0.0, 0.2, 0.4, 0.6, 0.8)


def window_instance(nx, law):
    """Tanh ramps on [-3, 3]: linear speed rising, congestion speed (beta .25) falling."""
    xs = np.linspace(-3.0, 3.0, nx)
    ramp = (1.0 + np.tanh(2.0 * xs)) / 2.0
    if law == "linear":
        return HughesSpec(x_min=-3.0, x_max=3.0, rho0=0.15 + 0.55 * ramp,
                          times=WINDOW_TIMES, branch="increasing")
    return HughesSpec(x_min=-3.0, x_max=3.0, rho0=0.75 - 0.5 * ramp, times=WINDOW_TIMES,
                      branch="decreasing", speed=CongestionSpeed(beta=0.25))


class UnderestimatingLaw:
    """Linear-law clone whose transport bound is a lie; used to hit the guard.

    The bound 0 is honest only at density 1/2, where ``|1 - 2p|`` vanishes.
    """

    def f(self, rho):
        return 1.0 - np.asarray(rho, dtype=float)

    def flux_slope(self, p):
        return 1.0 - 2.0 * np.asarray(p, dtype=float)

    def lagrangian_min(self, w):
        return (np.asarray(w, dtype=float) + 1.0) ** 2 / 4.0

    def check_density(self, rho0):
        pass

    def transport_bound(self, rho_lo, rho_hi):
        return 0.0


# ---------------------------------------------------------------------------
# spec validation


def test_window_must_have_width():
    with pytest.raises(ValueError, match="positive width"):
        HughesSpec(x_min=1.0, x_max=1.0, rho0=np.full(5, 0.3), times=(0.5,))


def test_negative_density_rejected():
    rho0 = np.array([0.1, -0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=rho0, times=(0.5,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_density_rejected(bad):
    rho0 = np.array([0.1, 0.2, 0.3, bad, bad])
    with pytest.raises(ValueError, match=r"finite, got rho0\[3\]"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=rho0, times=(0.5,))


def test_linear_law_caps_density_at_one():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=np.full(5, 1.2), times=(0.5,))


def test_congestion_law_needs_positive_density():
    with pytest.raises(ValueError, match="strictly positive"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=np.array([0.0, 0.1, 0.2, 0.3, 0.4]),
                   times=(0.5,), speed=CongestionSpeed())


def test_unknown_branch_tag():
    with pytest.raises(ValueError, match="branch"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=np.full(5, 0.3), times=(0.5,),
                   branch="sideways")


def test_branch_tag_must_match_monotonicity():
    falling = np.linspace(0.8, 0.2, 9)
    with pytest.raises(ValueError, match="not nondecreasing"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=falling, times=(0.5,),
                   branch="increasing")
    rising = falling[::-1].copy()
    with pytest.raises(ValueError, match="not nonincreasing"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=rising, times=(0.5,),
                   branch="decreasing")


def test_times_validated():
    rho0 = np.full(5, 0.3)
    with pytest.raises(ValueError, match="times"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=rho0, times=())
    with pytest.raises(ValueError, match="times"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=rho0, times=(-0.5, 0.5))
    with pytest.raises(ValueError, match="times"):
        HughesSpec(x_min=0.0, x_max=1.0, rho0=rho0, times=(0.5, 0.5))


def test_congestion_law_parameter_ranges():
    with pytest.raises(ValueError, match="beta"):
        CongestionSpeed(beta=0.6)
    with pytest.raises(ValueError, match="positive"):
        CongestionSpeed(k1=-1.0)


# ---------------------------------------------------------------------------
# initial potential


def test_cumulative_zero_density():
    spec = HughesSpec(x_min=0.0, x_max=1.0, rho0=np.zeros(9), times=(0.5,))
    assert np.array_equal(cumulative_potential(spec), np.zeros(9))


def test_cumulative_constant_density_exact():
    spec = HughesSpec(x_min=-2.0, x_max=3.0, rho0=np.full(26, 0.4), times=(0.5,))
    assert np.allclose(cumulative_potential(spec), 0.4 * (spec.xs - spec.x_min),
                       rtol=0.0, atol=1e-14)


def test_cumulative_step_density_ramp():
    xs = np.linspace(-2.0, 2.0, 41)
    step = np.where(xs >= 0.0, 0.6, 0.0)
    spec = HughesSpec(x_min=-2.0, x_max=2.0, rho0=step, times=(0.5,))
    # lattice contains x=0, so the rectangle sum reproduces the kinked ramp exactly
    assert np.allclose(cumulative_potential(spec), 0.6 * np.maximum(xs, 0.0),
                       rtol=0.0, atol=1e-14)


def test_cumulative_monotone_and_lipschitz():
    rng = np.random.default_rng(5)
    rho0 = np.sort(rng.uniform(0.0, 0.9, 33))
    spec = HughesSpec(x_min=-1.0, x_max=1.0, rho0=rho0, times=(0.5,))
    phi0 = cumulative_potential(spec)
    steps = np.diff(phi0)
    assert np.min(steps) >= 0.0
    assert np.max(steps) <= np.max(rho0) * spec.dx + 1e-15


# ---------------------------------------------------------------------------
# pointwise envelope


def test_hopf_lax_requires_positive_time():
    spec = HughesSpec(x_min=-1.0, x_max=1.0, rho0=np.full(9, 0.3), times=(0.5,))
    with pytest.raises(ValueError, match="positive time"):
        hopf_lax(spec, 0.0, 0.0)


@pytest.mark.parametrize("t, x", [(0.5, np.nan), (0.5, np.inf), (0.5, -np.inf),
                                  (np.inf, 0.0), (np.nan, 0.0)])
def test_hopf_lax_rejects_non_finite_points(t, x):
    spec = HughesSpec(x_min=-1.0, x_max=1.0, rho0=np.full(9, 0.3), times=(0.5,))
    with pytest.raises(ValueError, match="finite positive time and finite x required"):
        hopf_lax(spec, t, x)


def test_linear_lagrangian_matches_bracketed_search():
    law = LinearSpeed()
    ps = np.linspace(-6.0, 6.0, 600001)
    assert abs(float(law.lagrangian_min(0.0)) - 0.25) < 1e-15
    for w in (-2.0, -1.0, -0.25, 0.0, 0.5, 1.5):
        numeric = np.max(ps * w - (ps**2 - ps))
        assert abs(numeric - float(law.lagrangian_min(w))) < 1e-9


def test_constant_density_closed_form():
    c = 0.3
    spec = HughesSpec(x_min=-4.0, x_max=4.0, rho0=np.full(81, c),
                      times=(0.0, 0.5, 1.0))
    for t in (0.5, 1.0):
        for x in (-2.0, 0.0, 1.7):
            value, ystar = hopf_lax(spec, t, x)
            exact = c * (x - spec.x_min) + c * (1.0 - c) * t
            assert abs(value - exact) < 1e-10
            assert abs(ystar - (x - (2.0 * c - 1.0) * t)) < 1e-6


def test_short_time_limit_recovers_initial_potential():
    rng = np.random.default_rng(7)
    rho0 = np.sort(rng.uniform(0.1, 0.8, 41))
    spec = HughesSpec(x_min=-3.0, x_max=3.0, rho0=rho0, times=(0.0, 1.0))
    phi0 = cumulative_potential(spec)
    t = spec.dx / 4.0
    values = np.array([hopf_lax(spec, t, x)[0] for x in spec.xs])
    # measured 9.4e-3 at this resolution; the contract allows 10*dx
    assert np.max(np.abs(values - phi0)) <= 10.0 * spec.dx


def test_search_boundary_guard():
    spec = HughesSpec(x_min=-0.5, x_max=0.5, rho0=np.full(11, 0.9),
                      times=(0.0, 1.0), speed=UnderestimatingLaw())
    with pytest.raises(ValueError, match="window too small"):
        hopf_lax(spec, 5.0, 0.0)


def test_solve_guard_names_first_failing_x():
    # rho0 rises from 1/2, where the lied-about bound 0 is honest: the first
    # points see speed 0 (x_1 sits at its fan's start), x_2 already moves
    t = 0.65
    spec = HughesSpec(x_min=-0.5, x_max=0.5, rho0=np.linspace(0.5, 0.9, 11),
                      times=(0.0, t), speed=UnderestimatingLaw())
    failing = []
    for x in spec.xs:
        try:
            hopf_lax(spec, t, x)
        except ValueError:
            failing.append(x)
    assert failing and failing[0] > spec.xs[0]
    with pytest.raises(ValueError, match=re.escape(
            f"window too small: envelope optimizer for (t={t:.6g}, x={failing[0]:.6g})")):
        solve_hughes(spec)


@pytest.mark.parametrize("t", [1e-9, "dx/4", 5.0])
@pytest.mark.parametrize("branch", ["increasing", "decreasing"])
@pytest.mark.parametrize("law", [LinearSpeed(), CongestionSpeed(beta=0.25)])
def test_guard_never_fires_on_shipped_laws(law, branch, t):
    # the bound-setting density (0.1 for both laws) fills a quarter of the window
    # and its edge extension, so the fastest characteristics meet the bound
    # exactly, while x reaches 60, whose rounding dwarfs t * bound at t = 1e-9
    rho0 = np.clip(np.linspace(-0.1, 0.7, 201), 0.1, 0.5)
    if branch == "decreasing":
        rho0 = rho0[::-1].copy()
    spec = HughesSpec(x_min=-40.0, x_max=60.0, rho0=rho0, times=(1.0,),
                      branch=branch, speed=law)
    t = spec.dx / 4.0 if t == "dx/4" else t
    bound = t * law.transport_bound(0.1, 0.5)
    moved = [abs(x - hopf_lax(spec, t, x)[1]) for x in spec.xs]
    assert max(moved) >= 0.99 * bound


def test_riemann_step_exact():
    # slope 0.2 left of the node x = 0, 0.6 right of it: linear law speeds
    # 2 rho - 1 are -0.6 and 0.2, and x = 0's fan covers [-0.6 t, 0.2 t]
    rho0 = np.where(np.linspace(-2.0, 2.0, 41) < 0.0, 0.2, 0.6)
    spec = HughesSpec(x_min=-2.0, x_max=2.0, rho0=rho0, times=(0.0, 0.5, 1.0),
                      branch="increasing")
    sol = solve_hughes(spec)
    x = spec.xs
    for i, t in enumerate(spec.times[1:], start=1):
        left, right = x < -0.6 * t, x > 0.2 * t
        fan = ~left & ~right
        assert left.any() and fan.any() and right.any()
        ystar = np.where(left, x + 0.6 * t, np.where(right, x - 0.2 * t, 0.0))
        phi0 = 0.4 + np.where(ystar < 0.0, 0.2, 0.6) * ystar
        exact = (x - ystar + t) ** 2 / (4.0 * t) + phi0
        # measured up to 1.1e-15 on phi and 2.2e-16 on the optimizer
        assert np.max(np.abs(sol.phi[i] - exact)) < 1e-13
        assert np.max(np.abs(sol.ystar[i] - ystar)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(0.1, 0.7),
    delta=st.floats(0.01, 0.25),
    t=st.floats(0.1, 1.0),
    x=st.floats(-1.0, 1.0),
)
def test_value_monotone_in_data(c, delta, t, x):
    hi = min(c + delta, 1.0)
    lo_spec = HughesSpec(x_min=-4.0, x_max=4.0, rho0=np.full(41, c), times=(t,))
    hi_spec = HughesSpec(x_min=-4.0, x_max=4.0, rho0=np.full(41, hi), times=(t,))
    assert hopf_lax(hi_spec, t, x)[0] >= hopf_lax(lo_spec, t, x)[0] - 1e-12


# ---------------------------------------------------------------------------
# lattice solver


def test_constant_density_stays_constant():
    spec = HughesSpec(x_min=-4.0, x_max=4.0, rho0=np.full(81, 0.3),
                      times=(0.0, 0.5, 1.0))
    sol = solve_hughes(spec)
    assert np.array_equal(sol.phi[0], cumulative_potential(spec))
    assert np.array_equal(sol.ystar[0], spec.xs)
    # measured 6.4e-15; the derived budget is 1e-8
    assert np.max(np.abs(sol.rho - 0.3)) < 1e-8
    for i, t in enumerate(spec.times):
        exact = 0.3 * (spec.xs - spec.x_min) + 0.3 * 0.7 * t
        assert np.max(np.abs(sol.phi[i] - exact)) < 1e-10


def test_decreasing_branch_mirrors_increasing():
    rng = np.random.default_rng(7)
    inc = np.sort(rng.uniform(0.05, 0.9, 51))
    n = inc.size
    # reflect cell values so the rectangle cumulatives mirror exactly
    dec = np.empty(n)
    dec[: n - 1] = inc[n - 2 :: -1]
    dec[n - 1] = dec[n - 2]
    si = HughesSpec(x_min=-2.5, x_max=2.5, rho0=inc, times=(0.0, 0.4),
                    branch="increasing")
    sd = HughesSpec(x_min=-2.5, x_max=2.5, rho0=dec, times=(0.0, 0.4),
                    branch="decreasing")
    sol_i = solve_hughes(si)
    sol_d = solve_hughes(sd)
    mass = float(np.sum(inc[:-1]) * si.dx)
    # measured 1.8e-15 on phi and 8.9e-16 on the optimizer map
    assert np.max(np.abs(sol_d.phi[1] - (mass - sol_i.phi[1][::-1]))) < 1e-8
    assert np.max(np.abs(sol_d.ystar[1] + sol_i.ystar[1][::-1])) < 1e-12


@pytest.mark.parametrize("law", ["linear", "congestion"])
def test_near_monotone_data_solves_like_monotone(law):
    # plateaus at 0.3 and 0.6 carry dips of 8e-13, under the tag check's 1e-12
    base = np.clip(np.linspace(0.0, 0.9, 121), 0.3, 0.6)
    dipped = base.copy()
    dipped[[8, 20, 100, 112]] -= 8e-13  # shifts phi0 by at most 4 * 8e-13 * dx
    branch, speed = "increasing", LinearSpeed()
    if law == "congestion":
        base, dipped = base[::-1].copy(), dipped[::-1].copy()
        branch, speed = "decreasing", CongestionSpeed(beta=0.25)
    solves = [solve_hughes(HughesSpec(x_min=-3.0, x_max=3.0, rho0=rho0, times=WINDOW_TIMES,
                                      branch=branch, speed=speed))
              for rho0 in (base, dipped)]
    assert np.min(np.diff(dipped) if law == "linear" else -np.diff(dipped)) < 0.0
    # measured 1.6e-13
    assert np.max(np.abs(solves[1].phi - solves[0].phi)) < 1e-12


def test_eikonal_residual_first_order_refinement():
    # interior signed residual: measured 2.1e-3 / 1.1e-3 / 5.6e-4 with
    # C = sup/(dx+dt) stable near 0.009 and per-level ratios 1.87, 1.99
    sups = []
    for nx, nt in ((41, 5), (81, 9), (161, 17)):
        spec = ramp_instance(nx, nt)
        sol = solve_hughes(spec)
        phi_t = np.gradient(sol.phi, np.asarray(spec.times), axis=0)
        signed = phi_t - sol.rho * (1.0 - sol.rho)
        interior = np.max(np.abs(signed[1:-1, 1:-1]))
        assert interior <= 0.02 * (spec.dx + (spec.times[1] - spec.times[0]))
        assert np.max(np.abs(sol.eikonal_residual[1:-1, 1:-1])) <= interior + 1e-15
        sups.append(interior)
    assert sups[0] / sups[1] > 1.7
    assert sups[1] / sups[2] > 1.7


def test_maximum_principle_on_ramp():
    spec = ramp_instance(81, 5)
    sol = solve_hughes(spec)
    lo, hi = float(np.min(spec.rho0)), float(np.max(spec.rho0))
    # measured containment is exact; the contract allows 10*dx of slack
    assert np.min(sol.rho) >= lo - 10.0 * spec.dx
    assert np.max(sol.rho) <= hi + 10.0 * spec.dx
    assert np.min(sol.rho) >= lo - 1e-8
    assert np.max(sol.rho) <= hi + 1e-8


def test_window_mass_controlled_by_boundary_flux():
    spec = ramp_instance(81, 5)
    sol = solve_hughes(spec)
    m0 = np.trapezoid(sol.rho[0], spec.xs)
    flux_cap = np.max(np.abs(spec.rho0 * (1.0 - spec.rho0)))
    for i, t in enumerate(spec.times):
        mt = np.trapezoid(sol.rho[i], spec.xs)
        # two window edges, each leaking at most t * max|rho f(rho)|
        assert abs(mt - m0) <= 2.0 * t * flux_cap + 1e-12


def test_linear_lagrangians_match_numeric_envelope():
    law = LinearSpeed()
    ps = np.linspace(-5.0, 5.0, 400001)
    for w in (-2.5, -0.3, 0.0, 1.0, 2.5):
        numeric = np.max(ps * w + ps * (1.0 - ps))  # convex branch: H(p) = -p f(p)
        assert abs(numeric - float(law.lagrangian_min(w))) < 1e-9
        numeric = np.min(ps * w - ps * (1.0 - ps))  # concave branch: H(p) = p f(p)
        assert abs(numeric - float(-law.lagrangian_min(-w))) < 1e-9


def test_congestion_lagrangians_match_numeric_envelope():
    law = CongestionSpeed(k1=0.8, k2=1.3, beta=0.3)
    c, b = law.scale, law.beta
    ps = np.linspace(1e-9, 50.0, 400001)
    for w in (-0.3, -1.0, -2.5):
        numeric = np.max(ps * w + c * ps ** (1.0 - b))
        assert abs(numeric - float(law.lagrangian_min(w))) < 1e-6
    for w in (0.3, 1.0, 2.5):
        numeric = np.min(ps * w - c * ps ** (1.0 - b))
        assert abs(numeric - float(-law.lagrangian_min(-w))) < 1e-6
    assert np.isinf(float(law.lagrangian_min(0.5)))
    assert np.isneginf(float(-law.lagrangian_min(0.5)))


def test_congestion_constant_density_stays_constant():
    law = CongestionSpeed(k1=0.8, k2=1.3, beta=0.3)
    spec = HughesSpec(x_min=-4.0, x_max=4.0, rho0=np.full(81, 0.5),
                      times=(0.0, 0.4), branch="increasing", speed=law)
    sol = solve_hughes(spec)
    # measured 8.9e-15
    assert np.max(np.abs(sol.rho - 0.5)) < 1e-10


def test_congestion_decreasing_solve():
    law = CongestionSpeed(k1=0.8, k2=1.3, beta=0.3)
    spec = HughesSpec(x_min=-3.0, x_max=3.0, rho0=np.linspace(0.8, 0.3, 61),
                      times=(0.0, 0.3), branch="decreasing", speed=law)
    sol = solve_hughes(spec)
    assert np.min(sol.rho) >= 0.3 - 1e-6
    assert np.max(sol.rho) <= 0.8 + 1e-6
    # measured 9.3e-3 at this resolution
    assert np.max(np.abs(sol.eikonal_residual)) <= 0.05


@pytest.mark.parametrize("law", ["linear", "congestion"])
def test_point_query_matches_row_solve(law):
    spec = window_instance(241, law)
    sol = solve_hughes(spec)
    for i, t in enumerate(spec.times[1:], start=1):
        for j, x in enumerate(spec.xs):
            value, ystar = hopf_lax(spec, t, x)
            assert abs(value - sol.phi[i, j]) <= 1e-14
            assert abs(ystar - sol.ystar[i, j]) <= 1e-14


@pytest.mark.parametrize("law", ["linear", "congestion"])
def test_window_solve_nx641_rung(law):
    spec = window_instance(641, law)
    started = time.perf_counter()
    sol = solve_hughes(spec)
    took = time.perf_counter() - started
    lo, hi = float(np.min(spec.rho0)), float(np.max(spec.rho0))
    assert np.min(sol.rho) >= lo - 10.0 * spec.dx
    assert np.max(sol.rho) <= hi + 10.0 * spec.dx
    # measured 0.4-0.5 ms on a 2-core x86_64 host; the scalar per-point loop took 6-10 s
    assert took < 3.0


def test_potential_rows_monotone_in_x():
    spec = ramp_instance(41, 3)
    sol = solve_hughes(spec)
    assert np.min(np.diff(sol.phi, axis=1)) >= -1e-10
