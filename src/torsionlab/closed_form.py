"""Exact radial solutions of the torsion problem on geodesic balls.

On the geodesic ball of radius R the torsion problem

    Lap u = n h_dot   in the ball,      u = 0   on the boundary

is solved by u = H(r) - H(R) with H the primitive of the warping function:
the Hessian of H is h_dot g, so its Laplacian is n h_dot.  The gradient is
u_r = h, hence the normal derivative is the constant c = h(R) and the ball
realizes the overdetermined (constant-Neumann) problem exactly.

Everything the grid solver later verifies numerically holds here in closed
form.  The residual functions below evaluate both sides of each pointwise
identity through the geometry operations and return their difference, which
is zero up to floating-point noise; the functional catalog is produced by
one pass of the 24-node Gauss-Legendre rule on [0, R] against the measure
h(r)^{n-1} dr, all its integrands evaluated at once on the rule's nodes.

``FunctionalCatalog``, which the grid path in ``functionals`` fills too, is
defined here so that this module depends on ``geometry`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import (
    RadialJet,
    WarpingProfile,
    _require_dimension,
    divergence_radial,
    laplacian_radial,
    newton_gap,
    quad,
    radial_hessian,
    ricci_quadratic,
    sphere_area,
    warping_jet,
)

__all__ = [
    "FunctionalCatalog",
    "RadialSolution",
    "radial_torsion_solution",
    "bochner_residual",
    "pohozaev_pointwise_residual",
    "newton_equality_check",
    "radial_functionals",
]


@dataclass(frozen=True)
class FunctionalCatalog:
    """Named scalar functionals of one torsion solution.

    Integrals are over the solution domain with the metric volume element;
    ``mu`` below abbreviates the nonnegative weight -u.  The Bochner pair
    (``bw_lhs``, ``bw_rhs_curvature``) brackets the curvature lower bound;
    ``bw_rhs_exact`` is the exact evaluation of the same left-hand side
    obtained by eliminating the Hessian, so bw_lhs >= bw_rhs_curvature with
    equality exactly on radial solutions.

    The four entries declared ``init=False`` follow from the others by
    algebra alone and are derived here, once for both builders.
    """

    n: int
    bdry_measure: float           # |dOmega|
    int_hdot: float               # int h_dot
    int_hdot_gradsq: float        # int h_dot |Du|^2
    bw_lhs: float                 # 1/2 int mu Lap|Du|^2, evaluated as 1/2 int g(Du, D|Du|^2)
    bw_rhs_curvature: float       # n int mu h_dot^2 + n int mu u_r h_ddot + int mu Ric(Du,Du)
    bw_rhs_exact: float = field(init=False)  # n int mu h_dot^2 + n int mu h h_ddot - (n-1) int mu u_r h_ddot
    bw_gap: float = field(init=False)  # bw_lhs - bw_rhs_curvature (>= 0, zero on radial solutions)
    int_u_gradsq: float           # int mu |Du|^2
    int_u_radial_flux: float      # int mu h u_r
    energy_defect: float = field(init=False)  # int mu (|Du|^2 - h^2), nonpositive on torsion solutions
    int_u_hdot2: float            # int mu h_dot^2
    int_u_ur_hddot: float         # int mu u_r h_ddot
    int_u_h_hddot: float          # int mu h h_ddot
    int_u_h2: float               # int mu h^2
    int_ur_h_hdot: float          # int u_r h h_dot
    neumann_sq_lhs: float = field(init=False)  # c^2 int h_dot
    neumann_sq_rhs: float         # int mu ((n+2) h_dot^2 + 2 h h_ddot) - (n-2)/n int mu u_r h_ddot
    newton_int: float             # int mu (|Hess u|^2 - (Lap u)^2 / n)
    pohozaev_flux: float          # boundary side of the Pohozaev balance
    pohozaev_bulk: float          # volume side of the Pohozaev balance
    c_mean: float                 # arclength-weighted mean of the Neumann trace
    c_std: float                  # arclength-weighted standard deviation of the trace

    def __post_init__(self):
        n = self.n
        derived = {
            "bw_rhs_exact": (n * self.int_u_hdot2 + n * self.int_u_h_hddot
                             - (n - 1) * self.int_u_ur_hddot),
            "bw_gap": self.bw_lhs - self.bw_rhs_curvature,
            "energy_defect": self.int_u_gradsq - self.int_u_h2,
            "neumann_sq_lhs": self.c_mean ** 2 * self.int_hdot,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class RadialSolution:
    """Torsion function of a geodesic ball: u(r) = H(r) - H(R)."""

    profile: WarpingProfile
    n: int
    R: float
    HR: float = field(init=False, repr=False, compare=False)  # H(R)

    def __post_init__(self):
        _require_dimension(self.n)
        if not (math.isfinite(self.R) and 0.0 < self.R < self.profile.r_max):
            raise ValueError(
                f"ball radius must lie in (0, {self.profile.r_max}), got {self.R!r}"
            )
        object.__setattr__(self, "HR", float(self.profile.H(self.R)))

    def u(self, r):
        self._check_radius(r)
        return self.profile.H(r) - self.HR

    def u_r(self, r):
        self._check_radius(r)
        return self.profile.h(r)

    def jets(self, r):
        """Warping jet and jet of u at r in [0, R]; u' = h and u'' = h'."""
        self._check_radius(r)
        w = warping_jet(self.profile, r)
        return w, RadialJet(self.profile.H(r) - self.HR, w.value, w.d1)

    @property
    def c(self) -> float:
        """Constant normal derivative on the boundary sphere."""
        return float(self.profile.h(self.R))

    def _check_radius(self, r):
        if isinstance(r, float) and 0.0 <= r <= self.R:
            return
        r = np.asarray(r)
        if (not np.all(np.isfinite(r)) or np.any(r < 0.0)
                or np.any(r > self.R)):
            raise ValueError(f"radius must lie in [0, {self.R}], got {r!r}")


def radial_torsion_solution(profile: WarpingProfile, n: int, R: float) -> RadialSolution:
    return RadialSolution(profile=profile, n=n, R=float(R))


def bochner_residual(sol: RadialSolution, r) -> float:
    """Pointwise Bochner identity residual on the radial solution.

    Assembles 1/2 Lap|Du|^2 - |Hess u|^2 - g(D(Lap u), Du) - Ric(Du, Du)
    from the geometry operations; the result is identically zero, so the
    returned number is pure floating-point noise.
    """
    n = sol.n
    w, u = sol.jets(r)
    hh, hd, hdd = float(w.value), float(w.d1), float(w.d2)

    # |Du|^2 = h^2; feed its half-jet through the radial Laplacian.
    half_grad_sq = RadialJet(0.5 * hh * hh, hh * hd, hd * hd + hh * hdd)
    half_lap_grad_sq = laplacian_radial(n, w, half_grad_sq)

    rad, ang = radial_hessian(w, u)
    hess_sq = rad * rad + (n - 1) * ang * ang

    # Lap u = n h_dot, so D(Lap u) = n h_ddot d/dr and Du = h d/dr.
    drift = n * hdd * hh
    ricci = ricci_quadratic(n, w, hh, 0.0)
    return float(half_lap_grad_sq - hess_sq - drift - ricci)


def pohozaev_pointwise_residual(sol: RadialSolution, r) -> float:
    """Residual of the pointwise Pohozaev divergence identity.

    The field |Du|^2/2 X - h u_r Du (X = h d/dr) collapses to -(h^3/2) d/dr
    on the radial solution; its divergence must match the bulk integrand
    (n-2)/2 h_dot |Du|^2 - h u_r Lap u.
    """
    n = sol.n
    w, u = sol.jets(r)
    hh, hd = float(w.value), float(w.d1)

    flux_field = RadialJet(-0.5 * hh ** 3, -1.5 * hh * hh * hd, 0.0)
    lhs = divergence_radial(n, w, flux_field)

    lap_u = laplacian_radial(n, w, u)
    rhs = 0.5 * (n - 2) * hd * hh * hh - hh * hh * lap_u
    return float(lhs - rhs)


def newton_equality_check(sol: RadialSolution, r) -> float:
    """Newton inequality slack on the radial solution; exactly zero.

    The Hessian of u = H(r) - H(R) is h_dot times the metric, so all n
    eigenvalues agree and the arithmetic-quadratic gap closes identically.
    """
    rad, ang = radial_hessian(*sol.jets(r))
    return newton_gap(sol.n, [rad] + [ang] * (sol.n - 1))


def radial_functionals(sol: RadialSolution) -> FunctionalCatalog:
    """Quadrature evaluation of the functional catalog on a geodesic ball.

    The nine integrands are evaluated once on the nodes of one rule on
    [0, R] and integrated together.  On the radial solution several catalog
    entries share one integrand because u_r = h and |Du| = h; those fields
    are assigned from a single integral so the closed-form identities hold
    with identical numbers.
    """
    n = sol.n

    def densities(r):
        w, u = sol.jets(r)
        mu = -u.value               # -u >= 0
        rad, ang = radial_hessian(w, u)
        lap = laplacian_radial(n, w, u)
        hess_sq = rad * rad + (n - 1) * ang * ang
        return np.stack([
            w.d1,
            w.value ** 2 * w.d1,
            mu * w.value ** 2,
            mu * w.d1 ** 2,
            mu * w.value * w.d2,
            mu * ricci_quadratic(n, w, w.value, 0.0),
            mu * (hess_sq - lap * lap / n),
            0.5 * (n - 2) * w.d1 * w.value ** 2 - w.value ** 2 * lap,
            mu * ((n + 2) * w.d1 ** 2 + 2.0 * w.value * w.d2),
        ]) * w.value ** (n - 1)

    # Looked up on the module at call time, so a wrapper installed on
    # closed_form.quad (the traced benchmark's) sees the catalog's one pass.
    (int_hdot, int_h2_hdot, int_mu_h2, int_mu_hdot2, int_mu_h_hddot, int_mu_ricci,
     newton_int, pohozaev_bulk, int_mu_neumann) = (
        sphere_area(n) * quad(densities, 0.0, sol.R)).tolist()
    neumann_sq_rhs = int_mu_neumann - (n - 2) / n * int_mu_h_hddot

    c = sol.c
    bdry_measure = sphere_area(n) * c ** (n - 1)
    # At r = R: |Du|^2/2 g(X, nu) - h u_r dnu(u) = c^3/2 - c^3.
    pohozaev_flux = -0.5 * c ** 3 * bdry_measure

    bw_rhs_curvature = n * int_mu_hdot2 + n * int_mu_h_hddot + int_mu_ricci

    return FunctionalCatalog(
        n=n,
        bdry_measure=bdry_measure,
        int_hdot=int_hdot,
        int_hdot_gradsq=int_h2_hdot,
        bw_lhs=int_h2_hdot,
        bw_rhs_curvature=bw_rhs_curvature,
        int_u_gradsq=int_mu_h2,
        int_u_radial_flux=int_mu_h2,
        int_u_hdot2=int_mu_hdot2,
        int_u_ur_hddot=int_mu_h_hddot,
        int_u_h_hddot=int_mu_h_hddot,
        int_u_h2=int_mu_h2,
        int_ur_h_hdot=int_h2_hdot,
        neumann_sq_rhs=neumann_sq_rhs,
        newton_int=newton_int,
        pohozaev_flux=pohozaev_flux,
        pohozaev_bulk=pohozaev_bulk,
        c_mean=c,
        c_std=0.0,
    )
