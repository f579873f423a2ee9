"""Rebuild the value function and density from a converged potential pair.

The change of variables runs in one direction only: the density and flux
come from :func:`~mfgplan.planning.potential_fields`, the velocity field
from inverting the Hamiltonian slope on their ratio, and the value function
is its spatial antiderivative.  Everything else here is diagnostic: the
time gauge ``theta`` and the two PDE residuals quantify how far the discrete
minimizer is from solving the coupled system, mixing discretization error
with leftover optimizer error.

Two residual conventions coexist on purpose.  The residual fields stored on
:class:`MFGSolution` differentiate the *stored* ``u``, so they see the
smoothing of the antiderivative/derivative round trip and decay under grid
refinement like a genuine truncation error.  :func:`conservation_identity`
instead expresses the flux through the potential itself, where the
continuity equation holds by stencil commutation alone — it measures
floating-point noise, not discretization, and is the reason the transport
side of the system never needs to be enforced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    TimeSeries,
    antiderivative_t,
    antiderivative_x,
    dt_interior,
    dx_periodic,
    dxx_periodic,
    integrate_x,
)
from .planning import PlanningSpec, PotentialPair, check_density, potential_fields


@dataclass(frozen=True)
class MFGSolution:
    """Recovered state: value function (ungauged), density, and diagnostics.

    ``u`` follows the antiderivative convention ``u(t, 0) = 0``; adding
    ``theta[t]`` to each time slice produces the gauged value function.
    ``residual_hj`` is the x-mean-free defect of the Hamilton-Jacobi
    equation (the mean is absorbed into ``theta``), ``residual_fp`` the
    defect of the continuity equation.
    """

    u: Field
    m: Field
    theta: TimeSeries
    residual_hj: Field
    residual_fp: Field


def _hj_parts(spec: PlanningSpec, u: Field, m: Field) -> tuple[TimeSeries, Field]:
    """Split the Hamilton-Jacobi defect into its x-mean and mean-free part.

    The split makes the returned residual invariant under ``u -> u + h(t)``
    for any time profile ``h``: the shift enters every node of a time slice
    equally and is removed with the mean.
    """
    g = spec.grid
    model = spec.model
    lam = float(spec.order)
    ux = dx_periodic(g, u)
    defect = (
        -dt_interior(g, u)
        - lam * dxx_periodic(g, u)
        + model.hamiltonian.eval(ux)
        + model.potential.sample(g)[None, :]
        - model.coupling.g(m)
    )
    c = defect.mean(axis=1)
    return c, defect - c[:, None]


def recover(spec: PlanningSpec, pp: PotentialPair, slopes: Field | None = None) -> MFGSolution:
    """Invert the potential transformation and attach PDE diagnostics.

    Requires a strictly positive discrete density: every node must satisfy
    ``phi_x + 1 > 0`` and ``phi_x + 1 >= spec.floor``.  The slope inversion
    is undefined at a vanishing density, so violations raise instead of
    propagating NaNs.  ``slopes``, if given, is that inversion
    ``L'(flux / density)`` at ``pp`` already done (``SolveReport.slopes``).

    Raises
    ------
    ValueError
        "degenerate density" with the first failing node when the density
        is not positive, is NaN, or drops below ``spec.floor``.
    """
    g = spec.grid
    model = spec.model
    lam = float(spec.order)

    flux, m = potential_fields(g, pp, spec.order)
    check_density(m, spec.floor, "degenerate density")
    u = antiderivative_x(g, model.lagrangian.derivative(flux / m) if slopes is None else slopes)

    c, residual_hj = _hj_parts(spec, u, m)
    theta = antiderivative_t(g, c)

    drift = model.hamiltonian.derivative(dx_periodic(g, u)) * m
    residual_fp = dt_interior(g, m) - lam * dxx_periodic(g, m) - dx_periodic(g, drift)

    return MFGSolution(u=u, m=m, theta=theta, residual_hj=residual_hj, residual_fp=residual_fp)


def periodicity_defect(spec: PlanningSpec, pp: PotentialPair) -> TimeSeries:
    """Jump the value function would make across the periodic seam, per time.

    Equals the full-circle integral of the recovered slope field, which is
    exactly the stationarity defect of the objective in the time-profile
    variable — at a converged minimizer it sits at the optimizer tolerance.
    """
    flux, m = potential_fields(spec.grid, pp, spec.order)
    return spec.grid.dx * np.sum(spec.model.lagrangian.derivative(flux / m), axis=1)


def conservation_identity(spec: PlanningSpec, pp: PotentialPair) -> Field:
    """Continuity defect with the flux written through the potential.

    With ``m = phi_x + 1`` and flux ``phi_t + q - lam*phi_xx``, the discrete
    transport equation reduces to commutators of circulant stencils and a
    vanishing derivative of the x-constant ``q`` — it is zero to rounding at
    *any* pair, feasible or not, minimizer or not.  This is the structural
    reason the solver never enforces mass transport explicitly.
    """
    g = spec.grid
    flux, m = potential_fields(g, pp, spec.order)
    return dt_interior(g, m) - spec.order * dxx_periodic(g, m) - dx_periodic(g, flux)


def validate_solution(sol: MFGSolution, spec: PlanningSpec) -> dict[str, float]:
    """Sup-norm diagnostics of a recovered solution. Never raises.

    Reports both PDE residuals, the worst mass defect over time, the
    minimum density, and how far the recovered density's pinned slices sit
    from the prescribed marginals (a pure stencil error for smooth data).
    """
    g = spec.grid
    mass = integrate_x(g, sol.m)
    return {
        "residual_hj_sup": float(np.max(np.abs(sol.residual_hj))),
        "residual_fp_sup": float(np.max(np.abs(sol.residual_fp))),
        "mass_defect": float(np.max(np.abs(mass - 1.0))),
        "min_density": float(np.min(sol.m)),
        "boundary_mismatch_initial": float(np.max(np.abs(sol.m[0] - spec.m0))),
        "boundary_mismatch_terminal": float(np.max(np.abs(sol.m[-1] - spec.mT))),
    }
