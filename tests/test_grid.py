"""Stencil, quadrature, and antiderivative checks for the lattice module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from mfgplan.grid import (
    Grid,
    ModeBanded,
    antiderivative_t,
    antiderivative_x,
    dt_interior,
    dt_transpose,
    dx_periodic,
    dxx_periodic,
    factor_tridiagonal,
    integrate_x,
    integrate_xt,
    st_weights,
    time_stencil_matrix,
    time_weights,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(nt=2, nx=8, horizon=1.0)
    with pytest.raises(ValueError):
        Grid(nt=5, nx=3, horizon=1.0)
    with pytest.raises(ValueError):
        Grid(nt=5, nx=8, horizon=0.0)
    g = Grid(nt=5, nx=8, horizon=2.0)
    assert g.dt == pytest.approx(0.5)
    assert g.dx == pytest.approx(0.125)


def test_shape_mismatch_raises():
    g = Grid(nt=5, nx=8, horizon=1.0)
    with pytest.raises(ValueError):
        dx_periodic(g, np.zeros((5, 9)))
    with pytest.raises(ValueError):
        dt_interior(g, np.zeros((4, 8)))
    with pytest.raises(ValueError):
        antiderivative_x(g, np.zeros(7))


def test_dx_periodic_constant_and_sine():
    g = Grid(nt=3, nx=64, horizon=1.0)
    assert np.all(dx_periodic(g, np.ones((3, 64))) == 0.0)

    f = np.sin(2 * np.pi * g.x)[None, :] * np.ones((3, 1))
    exact = 2 * np.pi * np.cos(2 * np.pi * g.x)
    err = np.max(np.abs(dx_periodic(g, f) - exact))
    assert err <= (2 * np.pi) ** 3 * g.dx**2 / 6

    # telescoping: spatial mean of the output vanishes to machine precision
    assert np.max(np.abs(integrate_x(g, dx_periodic(g, f)))) < 1e-14


def test_dxx_periodic_constant_and_cosine():
    g = Grid(nt=3, nx=64, horizon=1.0)
    assert np.all(dxx_periodic(g, np.full((3, 64), 2.5)) == 0.0)

    f = np.cos(2 * np.pi * g.x)[None, :] * np.ones((3, 1))
    exact = -4 * np.pi**2 * np.cos(2 * np.pi * g.x)
    err = np.max(np.abs(dxx_periodic(g, f) - exact))
    assert err <= (2 * np.pi) ** 4 * g.dx**2 / 12

    assert np.max(np.abs(integrate_x(g, dxx_periodic(g, f)))) < 1e-11


def test_dt_interior_affine_exact():
    g = Grid(nt=7, nx=4, horizon=2.0)
    assert np.all(dt_interior(g, np.ones((7, 4))) == 0.0)
    f = g.t[:, None] * np.ones((1, 4))
    assert np.max(np.abs(dt_interior(g, f) - 1.0)) < 1e-13


def test_dt_interior_quadratic_orders():
    # t^2: central rows are exact, the one-sided closures miss by exactly dt
    g = Grid(nt=50, nx=4, horizon=1.0)
    f = (g.t**2)[:, None] * np.ones((1, 4))
    d = dt_interior(g, f)
    exact = 2 * g.t[:, None]
    assert np.max(np.abs(d[1:-1] - exact[1:-1])) < 1e-12
    assert np.max(np.abs(d[0] - exact[0])) == pytest.approx(g.dt, rel=1e-10)
    assert np.max(np.abs(d[-1] - exact[-1])) == pytest.approx(g.dt, rel=1e-10)


def test_integrate_x_and_xt():
    g = Grid(nt=9, nx=32, horizon=3.0)
    ones = np.ones((g.nt, g.nx))
    assert integrate_x(g, ones)[0] == pytest.approx(1.0, abs=1e-15)
    assert integrate_xt(g, ones) == pytest.approx(3.0, abs=1e-13)

    sine = np.sin(2 * np.pi * g.x)[None, :] * np.ones((g.nt, 1))
    assert abs(integrate_x(g, sine)[4]) < 1e-15

    ramp = g.t[:, None] * np.ones((1, g.nx))
    assert integrate_xt(g, ramp) == pytest.approx(g.horizon**2 / 2, abs=1e-13)

    # 1-D slices integrate to scalars too
    assert integrate_x(g, np.ones(g.nx)) == pytest.approx(1.0, abs=1e-15)


def test_antiderivative_basic():
    g = Grid(nt=3, nx=128, horizon=1.0)
    assert np.all(antiderivative_x(g, np.zeros(g.nx)) == 0.0)

    F = antiderivative_x(g, np.ones(g.nx))
    assert np.max(np.abs(F - g.x)) < 1e-14

    F = antiderivative_x(g, np.cos(2 * np.pi * g.x))
    exact = np.sin(2 * np.pi * g.x) / (2 * np.pi)
    assert np.max(np.abs(F - exact)) <= 10 * g.dx


@pytest.mark.parametrize("n", [2, 3, 17, 257])
def test_antiderivative_t_is_scipys_cumulative_trapezoid(n):
    from scipy.integrate import cumulative_trapezoid

    g, rng = Grid(nt=max(n, 3), nx=8, horizon=0.7), np.random.default_rng(n)
    c = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    expected = cumulative_trapezoid(c, dx=g.dt, initial=0.0)
    assert antiderivative_t(g, c).tobytes() == expected.tobytes()


def test_time_weights_sum_to_horizon():
    g = Grid(nt=11, nx=4, horizon=2.5)
    assert time_weights(g).sum() == pytest.approx(2.5, abs=1e-14)
    assert st_weights(g).sum() == pytest.approx(2.5, abs=1e-14)


def test_time_stencil_matrix_matches_operator():
    rng = np.random.default_rng(0)
    for nt in (8, 3, 256):
        g = Grid(nt=nt, nx=5, horizon=1.3)
        f = rng.standard_normal((g.nt, g.nx))
        assert np.allclose(time_stencil_matrix(g) @ f, dt_interior(g, f), atol=1e-13)
        # transpose application agrees with the explicit matrix transpose
        assert np.allclose(dt_transpose(g, f), time_stencil_matrix(g).T @ f, atol=1e-13)


@given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.integers(3, 30))
@settings(max_examples=40, deadline=None)
def test_dx_skew_adjoint_exactly(seed, nx, nt):
    """Sum a * Dx(b) + Dx(a) * b over the lattice has zero adjointness defect."""
    g = Grid(nt=nt, nx=nx, horizon=1.0)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((nt, nx))
    b = rng.standard_normal((nt, nx))
    defect = np.sum(a * dx_periodic(g, b)) + np.sum(dx_periodic(g, a) * b)
    scale = np.sum(np.abs(a * dx_periodic(g, b)))
    assert abs(defect) <= 1e-13 * (1.0 + scale)


@given(st.integers(0, 2**32 - 1), st.integers(4, 24), st.integers(3, 24))
@settings(max_examples=40, deadline=None)
def test_time_summation_by_parts_identity(seed, nx, nt):
    """w-weighted <a, Dt b> + <Dt a, b> telescopes to the t-boundary term exactly."""
    g = Grid(nt=nt, nx=nx, horizon=0.7)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((nt, nx))
    b = rng.standard_normal((nt, nx))
    w = time_weights(g)[:, None]
    lhs = np.sum(w * (a * dt_interior(g, b) + dt_interior(g, a) * b)) * g.dx
    boundary = g.dx * (np.sum(a[-1] * b[-1]) - np.sum(a[0] * b[0]))
    assert abs(lhs - boundary) <= 1e-12 * (1.0 + np.sum(np.abs(a * b)))


@given(st.integers(0, 2**32 - 1), st.integers(4, 32))
@settings(max_examples=25, deadline=None)
def test_dx_commutes_with_rotation(seed, shift):
    g = Grid(nt=4, nx=32, horizon=1.0)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((4, 32))
    rotated = np.roll(dx_periodic(g, f), shift, axis=1)
    assert np.allclose(rotated, dx_periodic(g, np.roll(f, shift, axis=1)), atol=1e-12)


def _banded_reference(op: ModeBanded, rhs: np.ndarray) -> np.ndarray:
    """The per-call solve: one ``solveh_banded`` per mode on the interior rows."""
    coef = np.fft.rfft(rhs, axis=1)
    out = np.zeros_like(coef)
    for k in range(1, coef.shape[1]):
        out[1:-1, k] = solveh_banded(op.bands[:, 1:-1, k], coef[1:-1, k], lower=True)
    return np.fft.irfft(out, n=op.grid.nx, axis=1)


def _spd_bands(g: Grid, rows: int, rng) -> np.ndarray:
    """Random diagonally dominant (hence SPD) bands varying with t and mode."""
    nk = g.nx // 2 + 1
    bands = np.zeros((rows, g.nt, nk))
    for d in range(1, rows):
        bands[d, : g.nt - d] = rng.uniform(-1.0, 1.0, (g.nt - d, nk))
    bands[0] = 2.0 * (rows - 1) + rng.uniform(0.1, 1.0, (g.nt, nk))
    return bands


@pytest.mark.parametrize("nt, nx", [(9, 15), (33, 32), (129, 128)])
@pytest.mark.parametrize("rows", [3, 7])
def test_mode_banded_factor_matches_per_mode_banded_solve(nt, nx, rows):
    g = Grid(nt=nt, nx=nx, horizon=1.0)
    rng = np.random.default_rng(nt + rows)
    op = ModeBanded(g, _spd_bands(g, rows, rng))
    solve = op.factor()
    for _ in range(2):  # the factors are reused, not consumed
        rhs = rng.standard_normal((nt, nx))
        ref = _banded_reference(op, rhs)
        assert np.array_equal(solve(rhs), ref)


def test_mode_banded_factor_rejects_indefinite_mode():
    g = Grid(nt=9, nx=15, horizon=1.0)
    bands = _spd_bands(g, 3, np.random.default_rng(0))
    bands[0, 4, 3] = -1.0  # interior row 3 of mode 3
    op = ModeBanded(g, bands)
    with pytest.raises(np.linalg.LinAlgError, match="mode 3: .* not positive definite"):
        op.factor()


def _q_blocks(nt: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Congestion's q-block ``eps (M + K)`` and its preconditioner ``eps (M + K) + M``."""
    g = Grid(nt=nt, nx=8, horizon=1.0)
    wt = time_weights(g)
    ab = np.zeros((2, nt))
    ab[0] = wt
    ab[0, :-1] += 1.0 / g.dt
    ab[0, 1:] += 1.0 / g.dt
    ab[1, :-1] = -1.0 / g.dt
    ab *= eps
    return ab, np.vstack([ab[0] + wt, ab[1]])


@pytest.mark.parametrize("nt", [3, 13, 24, 257])
def test_factor_tridiagonal_matches_solveh_banded(nt):
    rng = np.random.default_rng(nt)
    for ab in _q_blocks(nt, 1e-4):
        solve = factor_tridiagonal(ab)
        for scale in (1e-6, 1.0, 1e6):  # the factor is reused, not consumed
            rhs = scale * rng.standard_normal(nt)
            assert np.array_equal(solve(rhs), solveh_banded(ab, rhs, lower=True))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_tridiagonal_rejects_nonfinite_rhs(bad):
    solve = factor_tridiagonal(_q_blocks(13, 1e-4)[0])
    rhs = np.ones(13)
    rhs[4] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        solve(rhs)


def test_factor_tridiagonal_rejects_indefinite_matrix():
    ab = _q_blocks(13, 1e-4)[0]
    ab[0, 5] = -1.0
    with pytest.raises(np.linalg.LinAlgError, match="leading minor 6 not positive definite"):
        factor_tridiagonal(ab)
