"""Model-layer checks: Legendre transform, perspective integrand, built-ins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgplan import model
from mfgplan.model import (
    Hamiltonian,
    build_model,
    check_assumptions,
    lagrangian_from_hamiltonian,
    power_coupling,
    power_hamiltonian,
    quadratic_coupling,
    quadratic_hamiltonian,
    zero_potential,
)


def test_legendre_quadratic_values():
    # a custom-named copy takes the bracketed bisection, not the analytic shortcut
    quad = quadratic_hamiltonian()
    lag = lagrangian_from_hamiltonian(Hamiltonian(eval=quad.eval, derivative=quad.derivative))
    assert lag.eval(np.asarray(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert lag.derivative(np.asarray(0.0)) == pytest.approx(0.0, abs=1e-12)

    assert lag.eval(np.asarray(3.0)) == pytest.approx(4.5, abs=1e-10)
    assert lag.derivative(np.asarray(3.0)) == pytest.approx(3.0, abs=1e-10)


def test_legendre_power_alpha2_against_grid_sup():
    # For alpha = 2 the transform has the closed form w^2/4 - 1; also compare
    # against a brute-force sup over a dense slope lattice.
    ham = power_hamiltonian(2.0)
    lag = lagrangian_from_hamiltonian(ham)
    p = np.linspace(-50.0, 50.0, 1_000_001)
    for w in (-2.0, 0.5, 3.0):
        value = float(lag.eval(np.asarray(w)))
        argmax = lag.derivative(np.asarray(w))
        brute = np.max(p * w - ham.eval(p))
        assert value == pytest.approx(brute, abs=1e-7)
        assert value == pytest.approx(w * w / 4.0 - 1.0, abs=1e-10)
        assert ham.derivative(argmax) == pytest.approx(w, abs=1e-8)


def test_legendre_out_of_range_slope_reports_w():
    # bounded slope: H'(p) = p / sqrt(1 + p^2) never reaches 2
    ham = Hamiltonian(
        eval=lambda p: np.sqrt(1.0 + np.square(np.asarray(p, dtype=float))),
        derivative=lambda p: np.asarray(p, dtype=float)
        / np.sqrt(1.0 + np.square(np.asarray(p, dtype=float))),
    )
    with pytest.raises(RuntimeError, match="w=2"):
        lagrangian_from_hamiltonian(ham).eval(np.asarray(2.0))


def test_legendre_involution_power():
    ham = power_hamiltonian(1.5)
    lag = lagrangian_from_hamiltonian(ham)
    conj = Hamiltonian(eval=lag.eval, derivative=lag.derivative)
    back = lagrangian_from_hamiltonian(conj)
    for p in (-2.0, -0.5, 0.0, 1.0, 2.5):
        value = float(back.eval(np.asarray(p)))
        assert value == pytest.approx(float(ham.eval(np.asarray(p))), abs=1e-8)


def test_lagrangian_inverts_slope():
    for ham in (quadratic_hamiltonian(), power_hamiltonian(1.7), power_hamiltonian(3.0)):
        lag = lagrangian_from_hamiltonian(ham)
        w = np.linspace(-4.0, 4.0, 41)
        assert np.max(np.abs(ham.derivative(lag.derivative(w)) - w)) < 1e-8


def _bisection_oracle(ham, w):
    """Reference root of H'(p) = w: bisection until lo and hi are neighbours."""
    lo, _, hi, _ = model._bracket_slope(ham, w)
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        above = ham.derivative(mid) > w
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 3.0, 6.0])
def test_invert_slope_mixed_magnitudes(alpha):
    # One array mixes slopes twelve orders of magnitude apart: every element
    # must meet its own tolerance, whatever the largest root in the array.
    ham = power_hamiltonian(alpha)
    mags = np.array([0.0, 1e-12, 1e-3, 7.3, 1e2, 1e4])
    w = np.concatenate([mags, -mags[1:]])
    # the widest bracket _bracket_slope builds is [-2**63, 2**63]
    w = w[np.abs(w) < ham.derivative(np.asarray(2.0**63))]
    p = model._invert_slope(ham, w)
    assert np.all(np.abs(ham.derivative(p) - w) <= 1e-14 * (1.0 + np.abs(w)))
    assert np.all(np.abs(p - _bisection_oracle(ham, w)) <= 1e-14 * (1.0 + np.abs(p)))
    alone = np.array([model._invert_slope(ham, np.asarray(x)) for x in w])
    assert np.array_equal(p, alone)


def test_invert_slope_rejects_non_finite_slope():
    lag = lagrangian_from_hamiltonian(power_hamiltonian(1.5))
    with pytest.raises(RuntimeError, match="slope w=nan is not finite"):
        lag.derivative(np.array([np.nan, 0.5]))
    with pytest.raises(RuntimeError, match="slope w=-inf is not finite"):
        lag.eval(np.array([0.5, -np.inf]))


def test_invert_slope_raises_when_it_cannot_converge():
    # H' is NaN from p = 0.5 on, so the bracket [-1, 1] never narrows
    ham = Hamiltonian(
        eval=lambda p: np.asarray(p, dtype=float),
        derivative=lambda p: np.where(np.asarray(p) < 0.5, np.asarray(p, dtype=float), np.nan),
    )
    with pytest.raises(RuntimeError, match="w=0.7 did not converge"):
        model._invert_slope(ham, np.array([0.7]))


KINKED = Hamiltonian(  # H' has slope 1 for p < 0 and 10 for p > 0
    eval=lambda p: np.where(np.asarray(p) < 0, 0.5, 5.0) * np.square(p),
    derivative=lambda p: np.where(np.asarray(p) < 0, 1.0, 10.0) * np.asarray(p, dtype=float),
)
CUSPED = Hamiltonian(  # H = |p|^1.1 / 1.1: H' = sign(p) |p|^0.1, vertical at p = 0
    eval=lambda p: np.abs(p) ** 1.1 / 1.1,
    derivative=lambda p: np.sign(p) * np.abs(p) ** 0.1,
)
FLAT = Hamiltonian(  # H = p^6 / 6: H' = p^5, flat at p = 0
    eval=lambda p: np.asarray(p, dtype=float) ** 6 / 6.0,
    derivative=lambda p: np.asarray(p, dtype=float) ** 5,
)


@pytest.mark.parametrize(
    "ham, root",
    [
        (KINKED, lambda w: np.where(w < 0, w, w / 10.0)),
        (CUSPED, lambda w: np.sign(w) * np.abs(w) ** 10),
        (FLAT, lambda w: np.sign(w) * np.abs(w) ** 0.2),
    ],
    ids=["kinked", "cusped", "flat"],
)
@pytest.mark.parametrize("w", [-7.3, -0.3, -1e-3, 1e-20, 1e-12, 1e-3, 0.5, 3.0])
def test_invert_slope_guard_halves_the_bracket(ham, root, w):
    # Secant steps alone can crawl on slopes like these: the guard's bisections
    # must halve the bracket at least every third evaluation, and a sign change
    # must confirm each root (at w = 1e-20 the flat slope's first secant step
    # is shorter than the tolerance, 1e-4 away from the root).
    seen = []

    def recorded(p):
        seen.append(float(np.ravel(p)[0]))
        return ham.derivative(p)

    spy = Hamiltonian(eval=ham.eval, derivative=recorded)
    w = np.array([w])
    lo, _, hi, _ = model._bracket_slope(spy, w)
    searched = len(seen)
    p = model._invert_slope(spy, w)
    assert abs(p[0] - root(w[0])) <= 1e-13 * (1.0 + abs(p[0]))
    # the regula-falsi start reuses H' at the bracket ends: no point is evaluated twice
    assert seen[searched:2 * searched] == seen[:searched]
    steps = seen[2 * searched:]
    assert len(set(seen[:searched] + steps)) == searched + len(steps)
    pts = np.array([lo[0], hi[0], *steps])
    f = ham.derivative(pts) - w[0]
    width = np.array([
        np.min(pts[:j][f[:j] >= 0]) - np.max(pts[:j][f[:j] <= 0])
        for j in range(3, len(pts) + 1)
    ])
    assert np.all(width[3:] <= 0.5 * width[:-3])


def test_perspective_case_split():
    p0 = build_model().perspective
    assert p0.value(0.0, 0.0) == 0.0
    assert p0.value(1.0, 0.0) == np.inf
    assert p0.value(2.0, 4.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        p0.value(1.0, -0.5)

    # vectorized case split
    z = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 0.0, 4.0])
    out = p0.value(z, y)
    assert out[0] == 0.0 and out[1] == np.inf and out[2] == pytest.approx(0.5)


def test_perspective_partials_quadratic():
    p0 = build_model().perspective
    dz, dy = p0.partials(2.0, 1.0)
    assert dz == pytest.approx(2.0, abs=1e-12)
    assert dy == pytest.approx(-2.0, abs=1e-12)

    dz, dy = p0.partials(0.0, 3.0)
    assert dz == pytest.approx(0.0, abs=1e-12)
    assert dy == pytest.approx(0.0, abs=1e-12)  # L(0) for the quadratic model

    with pytest.raises(ValueError):
        p0.partials(1.0, 0.0)


@pytest.mark.parametrize(
    "ham", [quadratic_hamiltonian(), power_hamiltonian(1.5), power_hamiltonian(3.0)],
    ids=lambda h: h.name,
)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_perspective_partials_match_differences(ham, seed):
    rng = np.random.default_rng(seed)
    p0 = build_model(ham).perspective
    z = rng.uniform(-3.0, 3.0)
    y = rng.uniform(0.2, 5.0)
    h = 1e-6
    dz, dy = p0.partials(z, y)
    fd_z = (p0.value(z + h, y) - p0.value(z - h, y)) / (2 * h)
    fd_y = (p0.value(z, y + h) - p0.value(z, y - h)) / (2 * h)
    assert dz == pytest.approx(fd_z, rel=1e-6, abs=1e-6)
    assert dy == pytest.approx(fd_y, rel=1e-6, abs=1e-6)


def test_perspective_joint_convexity_sampled():
    p0 = build_model().perspective
    rng = np.random.default_rng(42)
    n = 10_000
    za, zb = rng.uniform(-5.0, 5.0, n), rng.uniform(-5.0, 5.0, n)
    ya, yb = rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 10.0, n)
    t = rng.uniform(0.01, 0.99, n)
    mixed = p0.value(t * za + (1 - t) * zb, t * ya + (1 - t) * yb)
    chord = t * p0.value(za, ya) + (1 - t) * p0.value(zb, yb)
    finite = np.isfinite(chord)
    assert np.min((chord - mixed)[finite]) >= -1e-10


def test_perspective_blows_up_toward_vanishing_y():
    p0 = build_model().perspective
    ys = 10.0 ** -np.arange(1, 13)
    vals = np.array([p0.value(1.0, y) for y in ys])
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] > 1e10


def test_builtin_parameter_validation():
    with pytest.raises(ValueError):
        power_hamiltonian(1.0)
    with pytest.raises(ValueError):
        power_coupling(0.9)


UNIFORM = np.ones(16)
NODES = np.arange(16) / 16.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "mfg", [build_model(), build_model(power_hamiltonian(1.5), power_coupling(2.5))],
    ids=["default", "power"],
)
def test_check_assumptions_all_green(mfg):
    # a power coupling is sampled at densities z >= 0 only, where it is defined
    checks = check_assumptions(mfg, UNIFORM, UNIFORM, NODES, np.random.default_rng(3))
    assert len(checks) == 9
    # H(0) = 1 for the power Hamiltonian, so L >= 0 does not hold there
    skipped = {"lagrangian_nonnegative"} if mfg.hamiltonian.eval(0.0) > 0 else set()
    for name, (status, detail) in checks.items():
        assert status == ("skip" if name in skipped else "pass"), f"{name}: {detail}"


def test_check_assumptions_reports_bad_coupling():
    from mfgplan.model import Coupling, MFGModel

    broken = Coupling(G=lambda z: 0.5 * np.square(z), g=lambda z: 2.0 * z)
    base = build_model()
    model = MFGModel(
        hamiltonian=base.hamiltonian,
        lagrangian=base.lagrangian,
        perspective=base.perspective,
        coupling=broken,
        potential=zero_potential(),
    )
    checks = check_assumptions(model, UNIFORM, UNIFORM, NODES, np.random.default_rng(5))
    status, _ = checks["coupling_slope_consistent"]
    assert status == "fail"


def test_power_coupling_slopes():
    c = power_coupling(3.0)
    z = np.linspace(0.2, 2.0, 9)
    assert np.allclose(c.G(z), z**3 / 3.0)
    assert np.allclose(c.g(z), z**2)
    q = quadratic_coupling()
    assert np.allclose(q.g(z), z)
