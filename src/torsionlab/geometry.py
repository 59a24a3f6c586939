"""Closed-form differential geometry of rotationally symmetric metrics.

A rotationally symmetric space is an open geodesic ball of radius ``r_max``
carrying the metric ``g = dr^2 + h(r)^2 g_{S^{n-1}}`` in polar coordinates
about a distinguished pole.  The warping function h determines everything.
The three model geometries are

    euclidean    h(r) = r        (flat space)
    spherical    h(r) = sin r    (round sphere, capped at the equator)
    hyperbolic   h(r) = sinh r

together with user-supplied custom profiles.  Everything in this module is
an exact closed form evaluated pointwise; no grids appear here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

__all__ = [
    "PROFILE_KINDS",
    "WarpingProfile",
    "RadialJet",
    "make_profile",
    "custom_profile",
    "warping_jet",
    "radial_hessian",
    "laplacian_radial",
    "divergence_radial",
    "ricci_quadratic",
    "newton_gap",
    "sphere_area",
    "QuadratureError",
]

PROFILE_KINDS = ("euclidean", "spherical", "hyperbolic", "custom")

# Absolute tolerance for the quadrature that builds H on custom profiles.
_PRIMITIVE_ABS_TOL = 1e-12


@dataclass(frozen=True)
class WarpingProfile:
    """Warping function h with derivatives and primitive H (H(0) = 0).

    All four callables accept floats or numpy arrays.  A valid profile has
    h(0) = 0 and h_dot > 0 on [0, r_max), which makes H strictly increasing;
    ``make_profile`` and ``custom_profile`` are the supported constructors.
    """

    kind: str
    r_max: float
    h: Callable
    h_dot: Callable
    h_ddot: Callable
    H: Callable


@dataclass(frozen=True)
class RadialJet:
    """Value and first two radial derivatives of a radial function at a point."""

    value: float
    d1: float
    d2: float

    def __post_init__(self):
        for name in ("value", "d1", "d2"):
            v = getattr(self, name)
            if isinstance(v, float) and math.isfinite(v):
                continue
            if not np.all(np.isfinite(v)):
                raise ValueError(f"RadialJet.{name} must be finite, got {v!r}")


# The validators below accept floats (np.float64 included) on a plain
# comparison before any numpy call: the pointwise identities and the catalog
# integrands validate one scalar radius at a time.  Anything else, and any
# float that fails (nan and +-inf fail every comparison), goes through the
# array checks, which raise.

def _require_interior(profile: WarpingProfile, r) -> None:
    # The pole r = 0 is a coordinate singularity; reject it rather than
    # special-case limits here.
    if isinstance(r, float) and 0.0 < r < profile.r_max:
        return
    r = np.asarray(r)
    if not np.all(np.isfinite(r)):
        raise ValueError("radius must be finite")
    if np.any(r <= 0.0) or np.any(r >= profile.r_max):
        raise ValueError(
            f"radius must lie strictly inside (0, {profile.r_max}), got {r!r}"
        )


def _require_dimension(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")


def make_profile(kind: str, r_max: float) -> WarpingProfile:
    """Build one of the three model profiles on the ball of radius r_max.

    Spherical profiles are only defined up to the equator, so r_max may not
    exceed pi/2 there.  Use ``custom_profile`` for anything else.
    """
    if not (isinstance(r_max, (int, float)) and math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be a positive finite number, got {r_max!r}")
    r_max = float(r_max)
    if kind == "euclidean":
        # [()] gives an np.float64 for a scalar radius, as np.sin and np.cos do.
        return WarpingProfile(
            kind, r_max,
            h=lambda r: np.multiply(r, 1.0),
            h_dot=lambda r: np.ones_like(r, dtype=float)[()],
            h_ddot=lambda r: np.zeros_like(r, dtype=float)[()],
            H=lambda r: np.multiply(r, r) / 2.0,
        )
    if kind == "spherical":
        if r_max > math.pi / 2 + 1e-12:
            raise ValueError(
                f"spherical profiles live on the hemisphere: r_max <= pi/2, got {r_max}"
            )
        return WarpingProfile(
            kind, r_max,
            h=np.sin,
            h_dot=np.cos,
            h_ddot=lambda r: -np.sin(r),
            H=lambda r: 1.0 - np.cos(r),
        )
    if kind == "hyperbolic":
        return WarpingProfile(
            kind, r_max,
            h=np.sinh,
            h_dot=np.cosh,
            h_ddot=np.sinh,
            H=lambda r: np.cosh(r) - 1.0,
        )
    raise ValueError(f"unknown profile kind {kind!r}; use custom_profile for custom h")


def custom_profile(h: Callable, h_dot: Callable, h_ddot: Callable,
                   r_max: float) -> WarpingProfile:
    """Wrap user-supplied h, h', h'' into a profile.

    The primitive H is not requested from the caller; it is computed by
    adaptive quadrature of h from 0 with absolute tolerance 1e-12, which
    keeps H consistent with h by construction.
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be a positive finite number, got {r_max!r}")
    h0 = float(h(0.0))
    if abs(h0) > 1e-12:
        raise ValueError(f"warping function must vanish at the pole, h(0) = {h0}")

    def primitive(r):
        rr = np.asarray(r, dtype=float)
        flat = np.ravel(rr)
        out = np.empty_like(flat)
        for k, rv in enumerate(flat):
            val, err = quad(h, 0.0, rv, epsabs=_PRIMITIVE_ABS_TOL,
                            epsrel=1e-12, limit=200)
            if err > 1e-10:
                raise QuadratureError(
                    f"primitive of h did not converge at r = {rv}: error {err:.3e}"
                )
            out[k] = val
        return out.reshape(rr.shape) if rr.ndim else float(out[0])

    return WarpingProfile("custom", float(r_max), h, h_dot, h_ddot, primitive)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def warping_jet(profile: WarpingProfile, r) -> RadialJet:
    """The operators' input: h, h', h'' at r, once r is checked inside (0, r_max)."""
    _require_interior(profile, r)
    return RadialJet(profile.h(r), profile.h_dot(r), profile.h_ddot(r))


def radial_hessian(warp: RadialJet, f: RadialJet):
    """Orthonormal-frame Hessian eigenvalues of a radial function f(r).

    The Hessian of f is diagonal: f'' in the radial direction and
    f' h_dot / h on each of the n - 1 angular directions.  Returns the pair
    (radial eigenvalue, angular eigenvalue).
    """
    # f' / h first: when f' is exactly h (torsion gradient) the quotient is
    # an exact 1.0 and the angular eigenvalue collapses to h_dot without
    # rounding, which keeps the Newton equality gap at an exact zero.
    return f.d2, f.d1 / warp.value * warp.d1


def laplacian_radial(n: int, warp: RadialJet, f: RadialJet):
    """Laplace-Beltrami operator on a radial function: f'' + (n-1) (h'/h) f'."""
    _require_dimension(n)
    return f.d2 + (n - 1) * warp.d1 / warp.value * f.d1


def divergence_radial(n: int, warp: RadialJet, phi: RadialJet):
    """Divergence of the radial vector field phi(r) d/dr.

    div(phi d/dr) = phi' + (n-1) (h'/h) phi.  In particular the field
    X = h d/dr has divergence n h_dot, which is the torsion right-hand side.
    phi / h is divided out first so that case reduces to an exact 1.0 and
    the result to exactly n h_dot (for n - 1 a product of small integers).
    """
    _require_dimension(n)
    return phi.d1 + (n - 1) * (phi.value / warp.value) * warp.d1


def ricci_quadratic(n: int, warp: RadialJet, u_r, grad_tan_sq):
    """Ricci curvature evaluated on a gradient: Ric(Du, Du).

    Takes the radial component u_r and the squared tangential gradient norm.
    For a warped product the Ricci tensor is diagonal with

        Ric(d/dr, d/dr)   = -(n-1) h''/h
        Ric(e, e)         = -h''/h + (n-2) (1 - h'^2) / h^2

    for any unit angular direction e.  On the sphere this collapses to
    (n-1) |Du|^2 and in flat space it vanishes, which the tests pin down.
    """
    _require_dimension(n)
    if (grad_tan_sq < 0 if isinstance(grad_tan_sq, float)
            else np.any(np.asarray(grad_tan_sq) < 0)):
        raise ValueError("grad_tan_sq is a squared norm and must be >= 0")
    hh, hd, hdd = warp.value, warp.d1, warp.d2
    radial_coef = -(n - 1) * hdd / hh
    angular_coef = -hdd / hh + (n - 2) * (1.0 - hd * hd) / (hh * hh)
    return radial_coef * np.multiply(u_r, u_r) + angular_coef * grad_tan_sq


def newton_gap(n: int, eigenvalues) -> float:
    """Slack in the arithmetic-quadratic mean inequality for Hessian spectra.

    n * sum(lam_i^2) - (sum lam_i)^2 >= 0 with equality iff all eigenvalues
    agree.  Computed as the algebraically identical sum of squared pairwise
    differences, which cannot go negative through cancellation.  Spectra
    whose spread is below 1e-14 are the equality case and map to an exact
    zero.
    """
    _require_dimension(n)
    if (isinstance(eigenvalues, list) and len(eigenvalues) == n
            and all(isinstance(v, float) and math.isfinite(v) for v in eigenvalues)
            and max(eigenvalues) - min(eigenvalues) < 1e-14):
        return 0.0
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (n,):
        raise ValueError(f"expected {n} eigenvalues, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    if float(lam.max() - lam.min()) < 1e-14:
        return 0.0
    diffs = np.subtract.outer(lam, lam)
    return float(np.sum(np.triu(diffs, k=1) ** 2))


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere: 2 pi^{n/2} / Gamma(n/2).

    Gamma is only ever needed at integer and half-integer arguments, so it
    is evaluated by the recursion from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi)
    rather than through a special-function library.
    """
    _require_dimension(n)
    return 2.0 * math.pi ** (n / 2.0) / _gamma_half_integer(n)


def _gamma_half_integer(m: int) -> float:
    """Gamma(m/2) for a positive integer m."""
    if m % 2 == 0:
        return float(math.factorial(m // 2 - 1))
    g = math.sqrt(math.pi)
    x = 0.5
    while x < m / 2 - 0.25:
        g *= x
        x += 1.0
    return g
