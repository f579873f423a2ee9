"""Analytic ingredients of the planning problems.

This module bundles the model data every solver consumes: a convex
Hamiltonian ``H``, its conjugate Lagrangian ``L`` (supplied analytically or
computed by a Legendre transform: bracket-guarded secant steps on ``H'``), a
convex coupling ``G`` with density derivative ``g = G'``, a spatial potential
``V``, and the perspective integrand

    L0(z, y) = y * L(z / y)   for y > 0,
    L0(z, 0) = +inf           for z != 0,
    L0(0, 0) = 0,

which is jointly convex on R x [0, inf).  ``+inf`` is a first-class value
here: the optimizer treats an infinite objective as a rejected step, so no
penalty parameters are needed.  Its partials read ``d/dy = -H(L'(z/y))``
off ``H``, so they cost one slope inversion.

All objects are immutable after construction and evaluation is pure, so model
evaluation may be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Hamiltonian",
    "Lagrangian",
    "Coupling",
    "SpatialPotential",
    "PerspectiveL0",
    "MFGModel",
    "lagrangian_from_hamiltonian",
    "quadratic_hamiltonian",
    "power_hamiltonian",
    "quadratic_coupling",
    "power_coupling",
    "zero_potential",
    "cosine_potential",
    "build_model",
    "validate_model",
]


@dataclass(frozen=True)
class Hamiltonian:
    """Strictly convex superlinear Hamiltonian.

    Parameters
    ----------
    eval : callable
        ``H(p)``, vectorized over ndarrays.
    derivative : callable
        ``H'(p)``, vectorized; must be strictly increasing.
    beta : float
        Superlinearity exponent tag (``> 1``); used by validation only.
    name : str
        Registry tag.  ``"quadratic"`` unlocks the analytic conjugate
        shortcut ``L(w) = w**2 / 2``.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    beta: float = 2.0
    name: str = "custom"


@dataclass(frozen=True)
class Lagrangian:
    """Convex conjugate of a Hamiltonian: ``eval`` is L, ``derivative`` is L'.

    ``derivative`` inverts the Hamiltonian slope: ``L' = (H')^{-1}``.  Both
    callables accept and return ndarrays of any shape.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Coupling:
    """Density coupling ``G`` with ``g = G'``, plus growth metadata."""

    G: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    growth_c: float = 1.0
    growth_gamma: float = 2.0


@dataclass(frozen=True)
class SpatialPotential:
    """Spatial cost ``V`` on the unit circle."""

    fn: Callable[[np.ndarray], np.ndarray]

    def sample(self, grid) -> np.ndarray:
        """Node values of V on ``grid.x``, shape ``(nx,)``."""
        v = np.asarray(self.fn(grid.x), dtype=float)
        return np.broadcast_to(v, (grid.nx,)).copy()


def _bracket_slope(ham: Hamiltonian, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand [lo, hi] until H'(lo) <= w <= H'(hi) elementwise."""
    lo = np.full(w.shape, -1.0)
    hi = np.full(w.shape, 1.0)
    for _ in range(64):
        need = ham.derivative(hi) < w
        if not need.any():
            break
        hi = np.where(need, 2.0 * hi, hi)
    else:
        bad = float(np.asarray(w)[ham.derivative(hi) < w].flat[0])
        raise RuntimeError(
            f"Legendre transform failed: slope w={bad:.6g} exceeds the range of H'"
        )
    for _ in range(64):
        need = ham.derivative(lo) > w
        if not need.any():
            break
        lo = np.where(need, 2.0 * lo, lo)
    else:
        bad = float(np.asarray(w)[ham.derivative(lo) > w].flat[0])
        raise RuntimeError(
            f"Legendre transform failed: slope w={bad:.6g} below the range of H'"
        )
    return lo, hi


def _invert_slope(ham: Hamiltonian, w: np.ndarray) -> np.ndarray:
    """Solve H'(p) = w elementwise by secant steps guarded by the slope bracket.

    Secant steps through each element's best point (the bracket end with the
    smaller ``|H'(p) - w|``) and its last other point start at the
    regula-falsi point of the :func:`_bracket_slope` bracket; a step out of
    the bracket, or one after two steps that did not halve it, bisects.  An
    estimate within ``tol = 1e-15 (1 + |p|)`` of the best point is confirmed
    by a point ``tol`` beyond it: an element stops once its bracket is
    ``2 tol`` wide or it hits a root.  Raises ``RuntimeError`` for a slope
    that is not finite, outside the range of ``H'``, or not converged in 360
    steps.
    """
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        bad = float(w[~np.isfinite(w)].flat[0])
        raise RuntimeError(f"Legendre transform failed: slope w={bad:.6g} is not finite")
    lo, hi = _bracket_slope(ham, w)
    shape, out, todo = w.shape, np.empty(w.size), np.arange(w.size)
    w, lo, hi = w.ravel(), lo.ravel(), hi.ravel()
    a, fa, b, fb = lo, ham.derivative(lo) - w, hi, ham.derivative(hi) - w
    p = est = a - fa * (b - a) / (fb - fa)
    prev = older = np.full(w.size, np.inf)  # bracket widths one and two steps back
    finished = np.zeros(w.size, dtype=bool)
    for _ in range(360):
        f = ham.derivative(p) - w
        hi, lo = np.where(f >= 0, p, hi), np.where(f <= 0, p, lo)
        better = np.abs(f) <= np.abs(fb)
        a, fa = np.where(better, b, p), np.where(better, fb, f)
        b, fb = np.where(better, p, b), np.where(better, f, fb)
        width, tol = hi - lo, 1e-15 * (1.0 + np.abs(b))
        done = width <= 2.0 * tol
        if done.any():
            new = np.flatnonzero(done & ~finished)
            out[todo[new]] = np.where(fb[new] == 0, b[new], est[new])
            finished |= done
            if finished.all():
                return out.reshape(shape)
            left = np.flatnonzero(~finished)
            if 2 * left.size <= w.size:  # shrink the working set
                todo, w, lo, hi, a, fa, b, fb, width, tol, prev, older, finished = (
                    x[left]
                    for x in (todo, w, lo, hi, a, fa, b, fb, width, tol, prev, older, finished)
                )
        with np.errstate(divide="ignore", invalid="ignore"):
            s = b - fb * (b - a) / (fb - fa)
        est = np.where((lo < s) & (s < hi) & (width <= 0.5 * older), s, 0.5 * (lo + hi))
        older, prev = prev, width
        p = np.where(np.abs(est - b) < tol, est + np.copysign(tol, est - b), est)
    bad = float(w[~finished][0])
    raise RuntimeError(f"Legendre transform failed: slope w={bad:.6g} did not converge")


def lagrangian_from_hamiltonian(ham: Hamiltonian) -> Lagrangian:
    """Conjugate Lagrangian, analytic for the quadratic model, numeric otherwise."""
    if ham.name == "quadratic":
        return Lagrangian(
            eval=lambda w: 0.5 * np.square(np.asarray(w, dtype=float)),
            derivative=lambda w: np.asarray(w, dtype=float).copy(),
        )

    def L(w: np.ndarray) -> np.ndarray:
        p = _invert_slope(ham, w)
        return p * np.asarray(w, dtype=float) - ham.eval(p)

    return Lagrangian(eval=L, derivative=lambda w: _invert_slope(ham, w))


@dataclass(frozen=True)
class PerspectiveL0:
    """Perspective of a Lagrangian, extended to the boundary ``y = 0``."""

    lagrangian: Lagrangian
    hamiltonian: Hamiltonian  # the conjugate of ``lagrangian``

    def value(self, z, y):
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y < 0):
            raise ValueError("perspective requires y >= 0")
        z, y = np.broadcast_arrays(z, y)
        pos = y > 0
        safe = np.where(pos, y, 1.0)
        vals = np.where(pos, y * self.lagrangian.eval(z / safe), 0.0)
        out = np.where(pos, vals, np.where(z == 0.0, 0.0, np.inf))
        return float(out) if out.ndim == 0 else out

    def partials(self, z, y):
        """(d/dz, d/dy) of the perspective at ``y > 0``: ``(p, -H(p))``, ``p = L'(z/y)``.

        ``-H(L'(w)) = L(w) - w L'(w)`` (Fenchel), so one slope inversion serves both.
        """
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0):
            raise ValueError("perspective partials require y > 0")
        p = self.lagrangian.derivative(z / y)
        return p, -self.hamiltonian.eval(p)


# --- built-in model library -------------------------------------------------


def quadratic_hamiltonian() -> Hamiltonian:
    """H(p) = p^2 / 2."""
    return Hamiltonian(
        eval=lambda p: 0.5 * np.square(np.asarray(p, dtype=float)),
        derivative=lambda p: np.asarray(p, dtype=float).copy(),
        beta=2.0,
        name="quadratic",
    )


def power_hamiltonian(alpha: float) -> Hamiltonian:
    """H(p) = (1 + p^2)^(alpha/2); superlinear and strictly convex for alpha > 1."""
    if not alpha > 1:
        raise ValueError(f"power hamiltonian needs alpha > 1, got {alpha}")

    def H(p):
        return (1.0 + np.square(np.asarray(p, dtype=float))) ** (0.5 * alpha)

    def Hp(p):
        p = np.asarray(p, dtype=float)
        return alpha * p * (1.0 + np.square(p)) ** (0.5 * alpha - 1.0)

    return Hamiltonian(eval=H, derivative=Hp, beta=alpha, name=f"power-{alpha:g}")


def quadratic_coupling() -> Coupling:
    """G(z) = z^2 / 2, g(z) = z."""
    return Coupling(
        G=lambda z: 0.5 * np.square(np.asarray(z, dtype=float)),
        g=lambda z: np.asarray(z, dtype=float).copy(),
        growth_c=1.0,
        growth_gamma=2.0,
    )


def power_coupling(gamma: float) -> Coupling:
    """G(z) = z^gamma / gamma, g(z) = z^(gamma-1), for gamma > 1 and z >= 0."""
    if not gamma > 1:
        raise ValueError(f"power coupling needs gamma > 1, got {gamma}")
    return Coupling(
        G=lambda z: np.asarray(z, dtype=float) ** gamma / gamma,
        g=lambda z: np.asarray(z, dtype=float) ** (gamma - 1.0),
        growth_c=1.0,
        growth_gamma=gamma,
    )


def zero_potential() -> SpatialPotential:
    return SpatialPotential(fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def cosine_potential(amplitude: float = 1.0, frequency: int = 1) -> SpatialPotential:
    """V(x) = amplitude * cos(2 pi frequency x)."""
    return SpatialPotential(
        fn=lambda x: amplitude * np.cos(2.0 * np.pi * frequency * np.asarray(x, dtype=float))
    )


@dataclass(frozen=True)
class MFGModel:
    """Complete model bundle consumed by the solvers."""

    hamiltonian: Hamiltonian
    lagrangian: Lagrangian
    perspective: PerspectiveL0
    coupling: Coupling
    potential: SpatialPotential


def build_model(
    hamiltonian: Hamiltonian | None = None,
    coupling: Coupling | None = None,
    potential: SpatialPotential | None = None,
) -> MFGModel:
    """Assemble a model, defaulting to H = p^2/2, G = z^2/2, V = 0; L is H's conjugate."""
    ham = hamiltonian if hamiltonian is not None else quadratic_hamiltonian()
    lag = lagrangian_from_hamiltonian(ham)
    return MFGModel(
        hamiltonian=ham,
        lagrangian=lag,
        perspective=PerspectiveL0(lag, ham),
        coupling=coupling if coupling is not None else quadratic_coupling(),
        potential=potential if potential is not None else zero_potential(),
    )


def validate_model(model: MFGModel, rng: np.random.Generator, samples: int = 200) -> dict:
    """Sample the structural assumptions the solvers rely on.

    Returns a dict mapping check name to ``(ok, detail)``.  Failed checks
    (a coupling slope inconsistent with ``G``, convexity slack violations)
    are reported, not rejected: callers decide what to do with a failing
    entry.
    """
    checks: dict[str, tuple[bool, str]] = {}

    p1 = rng.uniform(-5.0, 5.0, samples)
    p2 = p1 + rng.uniform(0.3, 4.0, samples) * rng.choice([-1.0, 1.0], samples)
    t = rng.uniform(0.1, 0.9, samples)
    mix = model.hamiltonian.eval(t * p1 + (1 - t) * p2)
    chord = t * model.hamiltonian.eval(p1) + (1 - t) * model.hamiltonian.eval(p2)
    gap = np.min(chord - mix)
    checks["hamiltonian_strictly_convex"] = (
        bool(gap > 0),
        f"min chord gap {gap:.3e} over {samples} samples",
    )

    w = rng.uniform(-4.0, 4.0, samples)
    slope_err = np.max(
        np.abs(model.hamiltonian.derivative(model.lagrangian.derivative(w)) - w)
    )
    checks["lagrangian_inverts_slope"] = (
        bool(slope_err < 1e-8),
        f"max |H'(L'(w)) - w| = {slope_err:.3e}",
    )

    z = rng.uniform(0.05, 5.0, samples)
    h = 1e-6
    fd = (model.coupling.G(z + h) - model.coupling.G(z - h)) / (2 * h)
    g = model.coupling.g(z)
    rel = np.max(np.abs(fd - g) / (1.0 + np.abs(g)))
    checks["coupling_slope_consistent"] = (
        bool(rel < 1e-6),
        f"max relative G'-vs-g mismatch {rel:.3e}",
    )

    if float(model.hamiltonian.eval(np.asarray(0.0))) <= 0.0:
        lmin = float(np.min(model.lagrangian.eval(rng.uniform(-6.0, 6.0, samples))))
        checks["lagrangian_nonnegative"] = (
            bool(lmin >= -1e-12),
            f"min sampled L = {lmin:.3e}",
        )

    za, ya = rng.uniform(-3.0, 3.0, samples), rng.uniform(0.0, 10.0, samples)
    zb, yb = rng.uniform(-3.0, 3.0, samples), rng.uniform(0.0, 10.0, samples)
    s = rng.uniform(0.05, 0.95, samples)
    mixed = model.perspective.value(s * za + (1 - s) * zb, s * ya + (1 - s) * yb)
    chord = s * model.perspective.value(za, ya) + (1 - s) * model.perspective.value(zb, yb)
    finite = np.isfinite(chord)
    slack = np.min((chord - mixed)[finite]) if finite.any() else 0.0
    checks["perspective_jointly_convex"] = (
        bool(slack >= -1e-10),
        f"worst convexity slack {slack:.3e}",
    )

    return checks
