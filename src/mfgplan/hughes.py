"""Explicit window evaluation of a one-dimensional pedestrian-flow model.

The two-equation model (conservation of walkers plus the unit-cost eikonal
constraint on the guiding field) collapses, in one space dimension, to a
single Hamilton-Jacobi equation for the potential ``phi`` with
``rho = phi_x``:

    phi_t^2 = phi_x^2 f(phi_x)^2 ,      phi(0, x) = integral of rho_0 .

For monotone initial densities the sign ambiguity resolves into one of two
branches, each solvable in closed form by a Hopf-Lax envelope:

    increasing data:  phi_t - phi_x f(phi_x) = 0, convex  H(p) = -p f(p),
                      phi(t,x) = min_y { t L((x-y)/t) + phi(0,y) } ;
    decreasing data:  phi_t + phi_x f(phi_x) = 0, concave H(p) = +p f(p),
                      phi(t,x) = max_y { t L((x-y)/t) + phi(0,y) } .

The branch is an explicit user tag, never auto-detected: non-monotone data
has genuine turning-point dynamics that the envelope formulas do not cover,
and this module refuses it rather than silently producing one branch.

Everything is evaluated on a truncated window with the density extended by
its edge values outside.  The initial potential is then piecewise linear
with monotone slopes, so the envelope is exact by characteristics (the
Lax-Oleinik formula): a point is either reached straight from inside one
piece, ``y = x - t H'(slope)``, or lies in the fan of a node, ``y = node``.
The fans are ordered along the data, so one sorted search places a whole
time row; a point query is that routine on one point, so it equals the
window solve.  An optimizer farther than ``t`` times the law's transport
bound means the law's slope and bound disagree, and is refused at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearSpeed",
    "CongestionSpeed",
    "HughesSpec",
    "HughesSolution",
    "cumulative_potential",
    "hopf_lax",
    "solve_hughes",
]


@dataclass(frozen=True)
class LinearSpeed:
    """Classical speed law ``f(rho) = 1 - rho`` on densities in [0, 1].

    Both branch Lagrangians are exact quadratics: the convex branch has
    ``L(w) = (w+1)^2/4`` (value 1/4 at rest) and the concave branch its
    mirror ``-L(-w) = -(1-w)^2/4``.
    """

    def f(self, rho):
        return 1.0 - np.asarray(rho, dtype=float)

    def lagrangian_min(self, w):
        return (np.asarray(w, dtype=float) + 1.0) ** 2 / 4.0

    def check_density(self, rho0: np.ndarray) -> None:
        if np.min(rho0) < 0.0 or np.max(rho0) > 1.0:
            raise ValueError("densities must lie in [0, 1] for the linear speed law")

    def flux_slope(self, p):
        return 1.0 - 2.0 * np.asarray(p, dtype=float)

    def transport_bound(self, rho_lo: float, rho_hi: float) -> float:
        # |H'(p)| = |1 - 2p| on either branch
        return float(max(abs(self.flux_slope(rho_lo)), abs(self.flux_slope(rho_hi))))


@dataclass(frozen=True)
class CongestionSpeed:
    """Power-law congestion speed ``f(rho) = k1 / (k2 rho)^beta``.

    Valid for ``0 < beta < 1/2`` and strictly positive densities; the
    convex-branch Lagrangian is finite only for leftward transport
    (``w < 0``), with the closed form obtained from the stationary point of
    ``p w + c p^(1-beta)``; the concave branch is its mirror ``-L(-w)``.
    """

    k1: float = 1.0
    k2: float = 1.0
    beta: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise ValueError(f"beta={self.beta} outside (0, 1/2)")
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise ValueError("speed constants must be positive")

    @property
    def scale(self) -> float:
        return self.k1 * self.k2 ** (-self.beta)

    def f(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self.k1 / (self.k2 * rho) ** self.beta

    def lagrangian_min(self, w):
        w = np.asarray(w, dtype=float)
        c, b = self.scale, self.beta
        out = np.full(w.shape, np.inf)
        neg = w < 0.0
        wn = w[neg]
        pstar = (c * (1.0 - b) / (-wn)) ** (1.0 / b)
        out[neg] = pstar * wn + c * pstar ** (1.0 - b)
        return out if out.ndim else float(out)

    def check_density(self, rho0: np.ndarray) -> None:
        if np.min(rho0) <= 0.0:
            raise ValueError("densities must be strictly positive for the congestion speed law")

    def flux_slope(self, p):
        return self.scale * (1.0 - self.beta) * np.asarray(p, dtype=float) ** (-self.beta)

    def transport_bound(self, rho_lo: float, rho_hi: float) -> float:
        # |H'(p)| = c (1 - beta) p^(-beta), largest at the smallest density
        return float(self.flux_slope(rho_lo))


@dataclass(frozen=True)
class HughesSpec:
    """Window-truncated instance: sampled initial density plus a branch tag."""

    x_min: float
    x_max: float
    rho0: np.ndarray
    times: tuple[float, ...]
    branch: str = "increasing"
    speed: LinearSpeed | CongestionSpeed = field(default_factory=LinearSpeed)

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("window must have positive width")
        rho0 = np.asarray(self.rho0, dtype=float)
        if rho0.ndim != 1 or rho0.size < 3:
            raise ValueError("rho0 must be a 1-D sample with at least 3 nodes")
        if not np.all(np.isfinite(rho0)):
            i = int(np.argmin(np.isfinite(rho0)))
            raise ValueError(f"initial density must be finite, got rho0[{i}]={rho0[i]}")
        if np.min(rho0) < 0.0:
            raise ValueError("initial density must be nonnegative")
        self.speed.check_density(rho0)
        object.__setattr__(self, "rho0", rho0)
        if self.branch not in ("increasing", "decreasing"):
            raise ValueError(f"branch must be increasing or decreasing, got {self.branch!r}")
        d = np.diff(rho0)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(rho0))))
        if self.branch == "increasing" and np.min(d) < -tol:
            raise ValueError("rho0 is not nondecreasing but the increasing branch was tagged")
        if self.branch == "decreasing" and np.max(d) > tol:
            raise ValueError("rho0 is not nonincreasing but the decreasing branch was tagged")
        times = tuple(float(t) for t in self.times)
        if not times or any(t < 0.0 or not np.isfinite(t) for t in times):
            raise ValueError("evaluation times must be nonnegative and finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("evaluation times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def nx(self) -> int:
        return self.rho0.size

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


@dataclass(frozen=True)
class HughesSolution:
    """Potential, density, tracked envelope argument, and eikonal defect."""

    times: tuple[float, ...]
    xs: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    ystar: np.ndarray
    eikonal_residual: np.ndarray


def cumulative_potential(spec: HughesSpec) -> np.ndarray:
    """Initial potential: left-rectangle cumulative integral of the density.

    Exact for piecewise-constant-from-the-left data, hence exactly linear
    for constant density; nondecreasing with Lipschitz constant
    ``max(rho0)``.
    """
    out = np.zeros(spec.nx)
    np.cumsum(spec.rho0[:-1] * spec.dx, out=out[1:])
    return out


def _envelope(spec: HughesSpec, phi0: np.ndarray, t: float, xs: np.ndarray):
    """Envelope values and optimizers at the points ``xs`` for one time ``t > 0``.

    Piece j of ``phi0`` lies left of node j (pieces 0 and nx are the edge
    extensions) and sends its characteristics at speed ``v[j] = H'(slope)``;
    node j's fan covers ``[xs[j] + t v[j], xs[j] + t v[j+1]]``.  The fan starts
    increase by at least dx, so one sorted search places every point.  The
    concave branch's Lagrangian is the mirror ``-L(-w)`` of the convex one ``L``.
    """
    nodes = spec.xs
    increasing = spec.branch == "increasing"
    slope = np.concatenate((spec.rho0[:1], spec.rho0))  # piece j: rho0[j-1], edges extended
    v = (-1.0 if increasing else 1.0) * spec.speed.flux_slope(slope)
    k = np.searchsorted(nodes + t * v[:-1], xs, "right")
    node = np.concatenate(([-np.inf], nodes))[k]
    ystar = np.maximum(node, xs - t * v[k])
    i = np.maximum(k - 1, 0)
    w, lag = (xs - ystar) / t, spec.speed.lagrangian_min
    value = t * (lag(w) if increasing else -lag(-w)) + phi0[i] + slope[k] * (ystar - nodes[i])

    bound = t * spec.speed.transport_bound(float(np.min(spec.rho0)), float(np.max(spec.rho0)))
    # absolute slack: x - t v rounds at the scale of x, not of t v
    far = np.abs(xs - ystar) > bound + 4.0 * np.spacing(np.maximum(np.abs(xs), np.abs(ystar)))
    if np.any(far):
        j = int(np.argmax(far))
        raise ValueError(
            f"window too small: envelope optimizer for (t={t:.6g}, x={xs[j]:.6g}) "
            f"sits at y={ystar[j]:.6g}, farther than t * transport_bound = {bound:.6g}")
    return value, ystar


def hopf_lax(spec: HughesSpec, t: float, x: float) -> tuple[float, float]:
    """Envelope value and its optimizer for one space-time point.

    The row evaluation of ``solve_hughes`` on the single point ``x``, so
    both give the same values.  Raises ``ValueError`` unless ``0 < t < inf`` and ``x``
    is finite, or when the optimizer lies beyond the transport bound ("window too small").
    """
    if not (0.0 < t < np.inf and -np.inf < x < np.inf):
        raise ValueError(f"finite positive time and finite x required, got t={t}, x={x}")
    value, ystar = _envelope(spec, cumulative_potential(spec), t, np.array([float(x)]))
    return float(value[0]), float(ystar[0])


def solve_hughes(spec: HughesSpec) -> HughesSolution:
    """Evaluate the envelope on the whole window lattice at every time.

    The ``t = 0`` row is the initial potential itself.  The density is the
    spatial derivative of the potential; the eikonal defect
    ``|phi_t| - |phi_x f(phi_x)|`` is formed with the same lattice
    derivatives and is meaningful where the density is smooth (envelope
    kinks create O(1) spikes that refinement does not remove).
    """
    xs = spec.xs
    nt = len(spec.times)
    phi0 = cumulative_potential(spec)
    phi, ystar = np.empty((nt, xs.size)), np.empty((nt, xs.size))
    for i, t in enumerate(spec.times):
        phi[i], ystar[i] = (phi0, xs) if t == 0.0 else _envelope(spec, phi0, t, xs)

    rho = np.gradient(phi, xs, axis=1)
    if nt >= 2:
        phi_t = np.gradient(phi, np.asarray(spec.times), axis=0)
        residual = np.abs(phi_t) - np.abs(rho * spec.speed.f(np.maximum(rho, 1e-300)))
    else:
        residual = np.zeros_like(phi)
    return HughesSolution(times=spec.times, xs=xs, phi=phi, rho=rho, ystar=ystar,
                          eikonal_residual=residual)
