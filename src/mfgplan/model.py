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

Existence and uniqueness need ``H`` and ``G`` strictly convex and superlinear
and endpoint densities bounded below by some ``k0 > 0``.  No object declares
these: :func:`check_assumptions` samples them for ``mfgplan validate``.

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
    "check_assumptions",
]


@dataclass(frozen=True)
class Hamiltonian:
    """Strictly convex superlinear Hamiltonian (sampled by :func:`check_assumptions`).

    Parameters
    ----------
    eval : callable
        ``H(p)``, vectorized over ndarrays.
    derivative : callable
        ``H'(p)``, vectorized; must be strictly increasing.
    name : str
        Registry tag.  ``"quadratic"`` unlocks the analytic conjugate
        shortcut ``L(w) = w**2 / 2``.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
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
    """Strictly convex superlinear density coupling ``G`` on ``z >= 0``, ``g = G'``."""

    G: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SpatialPotential:
    """Spatial cost ``V`` on the unit circle."""

    fn: Callable[[np.ndarray], np.ndarray]

    def sample(self, grid) -> np.ndarray:
        """Node values of V on ``grid.x``, shape ``(nx,)``."""
        v = np.asarray(self.fn(grid.x), dtype=float)
        return np.broadcast_to(v, (grid.nx,)).copy()


def _bracket_slope(ham: Hamiltonian, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Expand [lo, hi] until H'(lo) <= w <= H'(hi) elementwise.

    Returns ``(lo, H'(lo), hi, H'(hi))``.
    """
    lo = np.full(w.shape, -1.0)
    hi = np.full(w.shape, 1.0)
    for _ in range(64):
        fhi = ham.derivative(hi)
        need = fhi < w
        if not need.any():
            break
        hi = np.where(need, 2.0 * hi, hi)
    else:
        bad = float(np.asarray(w)[ham.derivative(hi) < w].flat[0])
        raise RuntimeError(
            f"Legendre transform failed: slope w={bad:.6g} exceeds the range of H'"
        )
    for _ in range(64):
        flo = ham.derivative(lo)
        need = flo > w
        if not need.any():
            break
        lo = np.where(need, 2.0 * lo, lo)
    else:
        bad = float(np.asarray(w)[ham.derivative(lo) > w].flat[0])
        raise RuntimeError(
            f"Legendre transform failed: slope w={bad:.6g} below the range of H'"
        )
    return lo, flo, hi, fhi


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
    lo, flo, hi, fhi = _bracket_slope(ham, w)
    shape, out, todo = w.shape, np.empty(w.size), np.arange(w.size)
    w, lo, hi = w.ravel(), lo.ravel(), hi.ravel()
    a, fa, b, fb = lo, np.ravel(flo) - w, hi, np.ravel(fhi) - w
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

    return Hamiltonian(eval=H, derivative=Hp, name=f"power-{alpha:g}")


def quadratic_coupling() -> Coupling:
    """G(z) = z^2 / 2, g(z) = z."""
    return Coupling(
        G=lambda z: 0.5 * np.square(np.asarray(z, dtype=float)),
        g=lambda z: np.asarray(z, dtype=float).copy(),
    )


def power_coupling(gamma: float) -> Coupling:
    """G(z) = z^gamma / gamma, g(z) = z^(gamma-1), for gamma > 1 and z >= 0."""
    if not gamma > 1:
        raise ValueError(f"power coupling needs gamma > 1, got {gamma}")
    return Coupling(
        G=lambda z: np.asarray(z, dtype=float) ** gamma / gamma,
        g=lambda z: np.asarray(z, dtype=float) ** (gamma - 1.0),
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




# --- assumption checks -------------------------------------------------------

_SAMPLES = 400


def _strictly_convex(f, rng: np.random.Generator, var: str, lo=-4.0) -> tuple[str, str]:
    """Midpoint test of strict convexity on sampled pairs in ``[lo, lo + 8]``."""
    c = rng.uniform(lo + 1.5, lo + 6.5, _SAMPLES)
    d = rng.uniform(0.1, 1.5, _SAMPLES)
    a, b = c - d, c + d
    slack = 0.5 * (f(a) + f(b)) - f(c)
    bad = np.flatnonzero(slack <= 4e-10 * np.square(d))
    if bad.size:
        i = bad[0]
        return "fail", f"midpoint slack {slack[i]:.3e} at {var} pair ({a[i]:.4f}, {b[i]:.4f})"
    return "pass", f"min midpoint slack {np.min(slack):.3e} over {_SAMPLES} pairs"


def _superlinear(f, var: str, signs: tuple[float, ...]) -> tuple[str, str]:
    """Growth exponent of ``f`` fitted between ``|var| = 1e2`` and ``1e4``, worst of ``signs``."""
    lo, hi = 1e2, 1e4
    vals = np.array([[f(np.asarray(s * r)) for r in (lo, hi)] for s in signs], dtype=float)
    shift = 1.0 + max(0.0, -float(np.min(vals)))
    exponent = np.min(np.log((vals[:, 1] + shift) / (vals[:, 0] + shift))) / np.log(hi / lo)
    if exponent > 1.01:
        return "pass", f"fitted growth exponent {exponent:.3f} > 1"
    return "fail", (f"fitted growth exponent {exponent:.3f} at {var} in {{1e2, 1e4}}; "
                    "superlinear growth not witnessed")


def _inverts_slope(model: MFGModel, rng: np.random.Generator) -> tuple[str, str]:
    w = rng.uniform(-4.0, 4.0, _SAMPLES)
    err = np.max(np.abs(model.hamiltonian.derivative(model.lagrangian.derivative(w)) - w))
    return ("pass" if err < 1e-8 else "fail"), f"max |H'(L'(w)) - w| = {err:.3e}"


def _nonnegative_lagrangian(model: MFGModel, rng: np.random.Generator) -> tuple[str, str]:
    h0 = float(model.hamiltonian.eval(np.asarray(0.0)))
    if h0 > 0.0:  # then min L = -H(0) < 0 by conjugacy
        return "skip", f"H(0) = {h0:.6g} > 0, so L takes negative values"
    lmin = float(np.min(model.lagrangian.eval(rng.uniform(-6.0, 6.0, _SAMPLES))))
    return ("pass" if lmin >= -1e-12 else "fail"), f"min sampled L = {lmin:.3e}"


def _jointly_convex_perspective(model: MFGModel, rng: np.random.Generator) -> tuple[str, str]:
    za, ya = rng.uniform(-3.0, 3.0, _SAMPLES), rng.uniform(0.0, 10.0, _SAMPLES)
    zb, yb = rng.uniform(-3.0, 3.0, _SAMPLES), rng.uniform(0.0, 10.0, _SAMPLES)
    s = rng.uniform(0.05, 0.95, _SAMPLES)
    L0 = model.perspective.value
    mixed = L0(s * za + (1 - s) * zb, s * ya + (1 - s) * yb)
    chord = s * L0(za, ya) + (1 - s) * L0(zb, yb)
    finite = np.isfinite(chord)
    slack = np.min((chord - mixed)[finite]) if finite.any() else 0.0
    return ("pass" if slack >= -1e-10 else "fail"), f"worst convexity slack {slack:.3e}"


def _consistent_coupling_slope(coupling: Coupling, rng: np.random.Generator) -> tuple[str, str]:
    z, h = rng.uniform(0.05, 5.0, _SAMPLES), 1e-6
    fd = (coupling.G(z + h) - coupling.G(z - h)) / (2 * h)
    g = coupling.g(z)
    rel = np.max(np.abs(fd - g) / (1.0 + np.abs(g)))
    return ("pass" if rel < 1e-6 else "fail"), f"max relative G'-vs-g mismatch {rel:.3e}"


def _density_lower_bound(m0: np.ndarray, mT: np.ndarray, x: np.ndarray) -> tuple[str, str]:
    name, m = min((("m0", m0), ("mT", mT)), key=lambda nm: np.min(nm[1]))
    j = int(np.argmin(m))
    if m[j] > 0.0:
        return "pass", f"k0 = {m[j]:.6g} attained by {name} at x index {j}"
    return "fail", f"{name} touches {m[j]:.6g} at x index {j} (x = {x[j]:.6f})"


def check_assumptions(model: MFGModel | None, m0: np.ndarray, mT: np.ndarray, x: np.ndarray,
                      rng: np.random.Generator) -> dict[str, tuple[str, str]]:
    """Sample the assumptions behind existence and uniqueness of the minimizer.

    Returns ``{name: (status, detail)}``, status ``"pass"``, ``"fail"`` or
    ``"skip"``.  Model checks (skipped for ``model=None``): ``H`` and ``G``
    strictly convex, ``L`` and ``G`` superlinear, ``L'`` inverting ``H'``,
    ``g = G'``, ``L >= 0`` (when ``H(0) <= 0``), the perspective jointly
    convex; one whose Legendre transform fails reports ``fail`` with the
    message.  Last, ``m0`` and ``mT`` (at nodes ``x``) must exceed some ``k0 > 0``.
    """
    model_checks = {
        "hamiltonian_strictly_convex": lambda: _strictly_convex(model.hamiltonian.eval, rng, "p"),
        "lagrangian_inverts_slope": lambda: _inverts_slope(model, rng),
        "lagrangian_growth": lambda: _superlinear(model.lagrangian.eval, "|w|", (1.0, -1.0)),
        "lagrangian_nonnegative": lambda: _nonnegative_lagrangian(model, rng),
        "perspective_jointly_convex": lambda: _jointly_convex_perspective(model, rng),
        "strict_convexity_of_coupling": lambda: _strictly_convex(model.coupling.G, rng, "z", 0.0),
        "coupling_slope_consistent": lambda: _consistent_coupling_slope(model.coupling, rng),
        "coupling_growth": lambda: _superlinear(model.coupling.G, "z", (1.0,)),
    }
    checks = {}
    for name, check in model_checks.items():
        if model is None:
            checks[name] = ("skip", "no model block in this mode")
            continue
        try:
            checks[name] = check()
        except RuntimeError as exc:  # the Legendre transform found no p with H'(p) = w
            checks[name] = ("fail", str(exc))
    checks["density_lower_bound"] = _density_lower_bound(m0, mT, x)
    return checks
