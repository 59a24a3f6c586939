"""Integral functionals of torsion solutions and the identity report.

The torsion function u (Dirichlet solution of Lap u = n h_dot) satisfies a
web of integral identities.  Some hold for any Dirichlet solution, some
only when the normal derivative is additionally constant on the boundary.
``compute_catalog`` evaluates every integral once, ``identity_report``
assembles the pass/fail table with each identity tagged by the hypothesis
it needs.  Both closed-form radial solutions and discrete fields feed the
same catalog, so the two paths are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .closed_form import FunctionalCatalog, RadialSolution
from .geometry import RadialJet, ricci_quadratic
from .discretization import (
    DiscreteField,
    boundary_radial_slope,
    gradient_field,
    integrate,
    neumann_trace,
    scalar_gradient,
    trace_moments,
)

__all__ = [
    "ANY_U",
    "DIRICHLET_ONLY",
    "CONSTANT_NEUMANN",
    "CONST_NEUMANN_CV_MAX",
    "FunctionalCatalog",
    "IdentityRecord",
    "IdentityReport",
    "compute_catalog",
    "identity_report",
    "sphere_reduction_check",
    "conformal_check",
]

# Hypothesis classes, ordered by strength.
ANY_U = "any_u"
DIRICHLET_ONLY = "dirichlet_only"
CONSTANT_NEUMANN = "dirichlet_and_constant_neumann"

# Constant-Neumann identities are only meaningful when the Neumann trace is
# actually near-constant; above this coefficient of variation they are
# reported as not applicable instead of failed.
CONST_NEUMANN_CV_MAX = 1e-2

_DENOM_FLOOR = 1e-30


@dataclass(frozen=True)
class IdentityRecord:
    """One row of the identity report.

    For equality rows the residual columns hold |lhs - rhs| and its relative
    version.  For inequality rows ``abs_residual`` holds the signed slack
    (negative means violated), so the full gap survives into the report, and
    ``rel_residual`` the violation relative to the row's scale.
    """

    label: str
    hypothesis_class: str
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    verdict: str                  # "pass" | "fail" | "not_applicable"


@dataclass(frozen=True)
class IdentityReport:
    records: tuple
    neumann_cv: float             # c_std / |c_mean|, decides constant-Neumann applicability

    @property
    def all_applicable_pass(self) -> bool:
        return all(rec.verdict != "fail" for rec in self.records)

    def __iter__(self):
        return iter(self.records)


def compute_catalog(solution) -> FunctionalCatalog:
    """Evaluate the full functional catalog for a torsion solution.

    Accepts either a closed-form ``RadialSolution`` (quadrature path) or a
    solved ``DiscreteField`` (grid path); both produce the same fields.
    """
    if isinstance(solution, RadialSolution):
        # Looked up on the module at call time, so a wrapper installed on
        # closed_form.radial_functionals (the traced benchmark's) sees it.
        return closed_form.radial_functionals(solution)
    if isinstance(solution, DiscreteField):
        return _discrete_catalog(solution)
    raise TypeError(
        f"expected a RadialSolution or DiscreteField, got {type(solution).__name__}"
    )


def _discrete_catalog(field: DiscreteField) -> FunctionalCatalog:
    n = 2  # the grid solver is surface-only
    grid = field.grid
    u = field.values
    mu = -u

    hh, hd = grid.h, grid.h_dot
    hdd = grid.profile.h_ddot(grid.r)

    g = gradient_field(field)
    trace, weights = neumann_trace(field)

    bdry_measure, c_mean, c_var = trace_moments(trace, weights)
    c_std = math.sqrt(c_var)

    def vol(values) -> float:
        return integrate(values, field)

    int_u_hdot2 = vol(mu * hd * hd)
    int_u_ur_hddot = vol(mu * g.u_r * hdd)

    # Left side of the Bochner bound, integrated by parts once so only first
    # derivatives of |Du|^2 are ever formed on the grid.
    w_r, w_tan = scalar_gradient(field, g.grad_sq)
    bw_lhs = 0.5 * vol(g.u_r * w_r + g.u_tan * w_tan)

    ric = ricci_quadratic(n, RadialJet(hh, hd, hdd), g.u_r, g.u_tan ** 2)
    bw_rhs_curvature = n * int_u_hdot2 + n * int_u_ur_hddot + vol(mu * ric)

    neumann_sq_rhs = (
        vol(mu * ((n + 2) * hd * hd + 2.0 * hh * hdd))
        - (n - 2) / n * int_u_ur_hddot
    )

    hess_sq = g.hess_rr ** 2 + 2.0 * g.hess_rt ** 2 + g.hess_tt ** 2
    newton_int = vol(mu * (hess_sq - g.laplacian ** 2 / n))

    # Pohozaev balance: boundary flux of |Du|^2/2 X - h u_r Du against its
    # divergence.  On the boundary the tangential derivative of u vanishes,
    # so |Du|^2 there is the squared Neumann trace.
    rho, h_b = grid.rho, grid.h_boundary
    u_s_b = boundary_radial_slope(field)
    u_r_b = u_s_b / rho
    x_dot_nu = h_b / np.sqrt(1.0 + (grid.drho / h_b) ** 2)
    pohozaev_flux = float(np.sum(
        (0.5 * trace ** 2 * x_dot_nu - h_b * u_r_b * trace) * weights
    ))
    pohozaev_bulk = vol(0.5 * (n - 2) * hd * g.grad_sq - hh * g.u_r * g.laplacian)

    return FunctionalCatalog(
        n=n,
        bdry_measure=bdry_measure,
        int_hdot=vol(hd),
        int_hdot_gradsq=vol(hd * g.grad_sq),
        bw_lhs=bw_lhs,
        bw_rhs_curvature=bw_rhs_curvature,
        int_u_gradsq=vol(mu * g.grad_sq),
        int_u_radial_flux=vol(mu * hh * g.u_r),
        int_u_hdot2=int_u_hdot2,
        int_u_ur_hddot=int_u_ur_hddot,
        int_u_h_hddot=vol(mu * hh * hdd),
        int_u_h2=vol(mu * hh * hh),
        int_ur_h_hdot=vol(g.u_r * hh * hd),
        neumann_sq_rhs=neumann_sq_rhs,
        newton_int=newton_int,
        pohozaev_flux=pohozaev_flux,
        pohozaev_bulk=pohozaev_bulk,
        c_mean=c_mean,
        c_std=c_std,
    )


def identity_report(catalog: FunctionalCatalog, tolerance: float) -> IdentityReport:
    """Build the ten-row identity table from a functional catalog.

    Equality rows pass when the relative residual is within ``tolerance``;
    inequality rows pass when their relative violation is: the energy
    defect's against int mu h^2, the Bochner bound's against the larger of
    its sides.  So no verdict depends on the units of the problem.
    Constant-Neumann rows are marked not applicable when the Neumann trace
    is visibly non-constant, since their hypothesis then fails.
    """
    if not (tolerance > 0):
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    n = catalog.n
    cv = catalog.c_std / max(abs(catalog.c_mean), _DENOM_FLOOR)
    neumann_ok = cv < CONST_NEUMANN_CV_MAX

    records = []

    def record(label, hyp, lhs, rhs, abs_res, rel_res):
        if hyp == CONSTANT_NEUMANN and not neumann_ok:
            verdict = "not_applicable"
        else:
            verdict = "pass" if rel_res <= tolerance else "fail"
        records.append(IdentityRecord(label, hyp, lhs, rhs, abs_res, rel_res, verdict))

    def equality(label, hyp, lhs, rhs):
        abs_res = abs(lhs - rhs)
        record(label, hyp, lhs, rhs, abs_res,
               abs_res / max(abs(lhs), abs(rhs), _DENOM_FLOOR))

    def lower_bound(label, hyp, lhs, rhs, scale):
        # Requires lhs >= rhs.  The signed slack goes in the absolute column;
        # the relative column holds the violation (zero while satisfied),
        # i.e. the distance to the feasible side, over ``scale``.
        slack = lhs - rhs
        record(label, hyp, lhs, rhs, slack,
               max(0.0, -slack) / max(abs(scale), _DENOM_FLOOR))

    c = catalog.c_mean

    equality("pohozaev_balance", ANY_U, catalog.pohozaev_flux, catalog.pohozaev_bulk)
    equality("radial_exchange", DIRICHLET_ONLY,
             catalog.int_u_gradsq, catalog.int_u_radial_flux)
    equality("energy_split", DIRICHLET_ONLY,
             catalog.int_hdot_gradsq,
             n * catalog.int_u_hdot2 + catalog.int_u_ur_hddot)
    # energy_defect <= 0: report as 0 >= defect.
    lower_bound("energy_defect_sign", DIRICHLET_ONLY, 0.0, catalog.energy_defect,
                catalog.int_u_h2)
    equality("perimeter_balance", CONSTANT_NEUMANN,
             catalog.bdry_measure, n / c * catalog.int_hdot if c != 0 else float("inf"))
    equality("neumann_square", CONSTANT_NEUMANN,
             catalog.neumann_sq_lhs, catalog.neumann_sq_rhs)
    equality("bw_flux_form", CONSTANT_NEUMANN,
             catalog.bw_lhs,
             0.5 * c ** 3 * catalog.bdry_measure - 0.5 * n * catalog.int_hdot_gradsq)
    equality("bw_exact_form", CONSTANT_NEUMANN, catalog.bw_lhs, catalog.bw_rhs_exact)
    equality("pohozaev_constant_flux", CONSTANT_NEUMANN,
             -0.5 * c ** 2 * n * catalog.int_hdot,
             0.5 * (n - 2) * (n * catalog.int_u_hdot2 + catalog.int_u_ur_hddot)
             - n * catalog.int_ur_h_hdot)
    lower_bound("bw_lower_bound", CONSTANT_NEUMANN,
                catalog.bw_lhs, catalog.bw_rhs_curvature,
                max(abs(catalog.bw_lhs), abs(catalog.bw_rhs_curvature)))

    return IdentityReport(records=tuple(records), neumann_cv=cv)


def sphere_reduction_check(catalog: FunctionalCatalog, profile) -> float:
    """Defect of the curvature-signed reduction of the Bochner bound.

    On a space form of curvature sign K (+1 sphere, 0 plane, -1 hyperbolic)
    the curvature bound collapses onto the energy defect: bw_gap =
    K * n * energy_defect whenever the exact Bochner evaluation and the
    radial exchange identity hold.  Returns bw_gap - K * n * energy_defect,
    which vanishes on geodesic balls and measures the combined defect of
    those two identities otherwise.  Only K = +1 forces rigidity, since
    bw_gap >= 0 and energy_defect <= 0 then make both zero; at K = -1 the two
    inequalities agree and force nothing.  Custom profiles raise.
    """
    k = {"spherical": 1, "euclidean": 0, "hyperbolic": -1}.get(profile.kind)
    if k is None:
        raise ValueError("a custom profile has no constant curvature K")
    return catalog.bw_gap - k * catalog.n * catalog.energy_defect


def conformal_check(field: DiscreteField) -> np.ndarray:
    """Ratio Lap u / h' at every grid node.

    For the torsion equation Lap u = n h' on a surface (n = 2) the ratio is
    identically 2 on every profile (h' > 0 on each), the scalar form of a
    conformal rigidity statement; the Laplacian is rebuilt from the discrete
    Hessian trace.
    """
    return gradient_field(field).laplacian / field.grid.h_dot
