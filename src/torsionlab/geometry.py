"""Closed-form differential geometry of rotationally symmetric metrics.

A rotationally symmetric space is an open geodesic ball of radius ``r_max``
carrying the metric ``g = dr^2 + h(r)^2 g_{S^{n-1}}`` in polar coordinates
about a distinguished pole.  The warping function h determines everything.
The three model geometries are

    euclidean    h(r) = r        (flat space, r_max = 50)
    spherical    h(r) = sin r    (round sphere, capped at the equator pi/2)
    hyperbolic   h(r) = sinh r   (r_max = 50)

together with user-supplied custom profiles.  Everything in this module is
an exact closed form evaluated pointwise, except ``quad``, the fixed
Gauss-Legendre rule that integrates radial densities; no grids appear here.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "WarpingProfile",
    "RadialJet",
    "GEOMETRIES",
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

# Relative tolerance of the check on the primitive H of a custom profile:
# the 24- and 32-node rules must agree to this share of the integral of |h|.
_PRIMITIVE_REL_TOL = 1e-12

# A Hessian spectrum whose spread is below this is the equality case of
# ``newton_gap``.
_EQUAL_SPREAD = 1e-14


# The integrands of the named profiles are analytic, so the rule converges
# geometrically: 24 nodes reach rounding on the closed-form catalog (16 do
# not).  The 32-node rule checks the primitive of a custom profile.
_NODES = 24
_CHECK_NODES = 32


@functools.cache
def _unit_rule(nodes: int):
    """Nodes and weights of the Gauss-Legendre rule moved to [0, 1].

    ``leggauss`` returns its outermost weights 1.2e-13 off (relative) at 24
    nodes, which biases a catalog integral by about 2e-15 of its value.
    One step of iterative refinement on the exactness conditions
    sum_i w_i P_k(x_i) = 2 [k = 0], k < nodes, brings every weight to within
    1e-14; the rule's discrete orthogonality gives the inverse of their
    matrix, w_i (k + 1/2) P_k(x_i).  Built on first use: the eigenvalue
    solve inside ``leggauss`` adds about 1 MB to the resident memory of a
    process, which commands that never integrate need not pay.  Callers
    must not write to the cached arrays.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    p = np.polynomial.legendre.legvander(x, nodes - 1)     # p[i, k] = P_k(x_i)
    residual = w @ p
    residual[0] -= 2.0
    w = w - w * (p @ ((np.arange(nodes) + 0.5) * residual))
    return (1.0 + x) / 2.0, w / 2.0


def quad(f: Callable, a: float, b: float):
    """Integral of f over [a, b] by the 24-node Gauss-Legendre rule.

    f is called once, on the array of nodes, and returns values whose last
    axis runs over the nodes; a stack of integrands is reduced in one
    weighted sum, giving one integral per row.
    """
    nodes, weights = _unit_rule(_NODES)
    return (b - a) * (f(a + (b - a) * nodes) @ weights)


@dataclass(frozen=True)
class WarpingProfile:
    """Warping function h with derivatives and primitive H (H(0) = 0).

    All four callables accept floats or numpy arrays.  A valid profile has
    h(0) = 0 and h_dot > 0 on [0, r_max), which makes H strictly increasing;
    ``make_profile`` returns the model profiles, ``custom_profile`` any other.
    """

    kind: str
    r_max: float
    h: Callable
    h_dot: Callable
    h_ddot: Callable
    H: Callable


class RadialJet(namedtuple("RadialJet", "value d1 d2")):
    """Value and first two radial derivatives of a radial function at a point.

    The fields are floats or numpy arrays of one shape, and each must be
    finite.  Finite floats, the pointwise identities' case, take the fast
    path; anything else goes through numpy.
    """

    __slots__ = ()

    def __new__(cls, value, d1, d2):
        if not (isinstance(value, float) and isinstance(d1, float)
                and isinstance(d2, float) and math.isfinite(value)
                and math.isfinite(d1) and math.isfinite(d2)):
            for name, v in zip(cls._fields, (value, d1, d2)):
                if not np.all(np.isfinite(v)):
                    raise ValueError(f"RadialJet.{name} must be finite, got {v!r}")
        return tuple.__new__(cls, (value, d1, d2))


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


# The model profiles on their fixed balls: the sphere's ends at the equator,
# the others are generous working limits.  [()] gives an np.float64 for a
# scalar radius, as np.sin and np.cos do.
_MODELS = {
    "euclidean": WarpingProfile(
        "euclidean", 50.0,
        h=lambda r: np.multiply(r, 1.0),
        h_dot=lambda r: np.ones_like(r, dtype=float)[()],
        h_ddot=lambda r: np.zeros_like(r, dtype=float)[()],
        H=lambda r: np.multiply(r, r) / 2.0,
    ),
    "spherical": WarpingProfile(
        "spherical", math.pi / 2,
        h=np.sin,
        h_dot=np.cos,
        h_ddot=lambda r: -np.sin(r),
        # 1 - cos r and cosh r - 1 would cancel at small r.
        H=lambda r: 2.0 * np.sin(r * 0.5) ** 2,
    ),
    "hyperbolic": WarpingProfile(
        "hyperbolic", 50.0,
        h=np.sinh,
        h_dot=np.cosh,
        h_ddot=np.sinh,
        H=lambda r: 2.0 * np.sinh(r * 0.5) ** 2,
    ),
}
GEOMETRIES = tuple(_MODELS)


def make_profile(kind: str) -> WarpingProfile:
    """The model profile ``kind``, one of ``GEOMETRIES``, on its fixed ball."""
    if kind not in GEOMETRIES:
        raise ValueError(f"unknown profile kind {kind!r}; use custom_profile for custom h")
    return _MODELS[kind]


def _float_or_elementwise(f: Callable) -> Callable:
    """``f`` on a float, ``np.vectorize(f)`` on anything else."""
    elementwise = np.vectorize(f, otypes=[float])

    def apply(r):
        return float(f(float(r))) if isinstance(r, float) else elementwise(r)

    return apply


def custom_profile(h: Callable, h_dot: Callable, h_ddot: Callable,
                   r_max: float) -> WarpingProfile:
    """Wrap user-supplied h, h', h'' into a profile.

    Each callable need only map a float to a float: the profile calls it
    directly on a float radius (np.float64 included) and returns a float,
    and applies it elementwise (``np.vectorize``) to anything else.  The
    primitive H is not requested from the caller; it is computed from h by
    the 24-node Gauss-Legendre rule on [0, r], which keeps H consistent with
    h by construction.  The 32-node rule checks every radius: the two must
    agree to 1e-12 of the integral of |h| on [0, r], or H raises
    ``QuadratureError``.
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be a positive finite number, got {r_max!r}")
    h, h_dot, h_ddot = map(_float_or_elementwise, (h, h_dot, h_ddot))
    h0 = float(h(0.0))
    if abs(h0) > 1e-12:
        raise ValueError(f"warping function must vanish at the pole, h(0) = {h0}")

    def primitive(r):
        rr = np.asarray(r, dtype=float)
        nodes, weights = _unit_rule(_NODES)
        value = rr * (h(rr[..., None] * nodes) @ weights)
        nodes, weights = _unit_rule(_CHECK_NODES)
        check = h(rr[..., None] * nodes)
        error = np.abs(value - rr * (check @ weights))
        scale = np.abs(rr) * (np.abs(check) @ weights)
        failed = error > _PRIMITIVE_REL_TOL * scale
        if np.any(failed):
            raise QuadratureError(
                f"primitive of h did not converge at r = {rr[failed]!r}: "
                f"24 and 32 nodes differ by {error[failed]!r}"
            )
        return value if rr.ndim else float(value)

    return WarpingProfile("custom", float(r_max), h, h_dot, h_ddot, primitive)


class QuadratureError(RuntimeError):
    """The primitive of a custom profile failed its 24- against 32-node check."""


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
    # h^2 underflows below r ~ 1e-154, where 1 - h'^2 rounds to 0: dividing
    # by h twice keeps that 0 instead of making 0/0.
    angular_coef = -hdd / hh + (n - 2) * (1.0 - hd * hd) / hh / hh
    return radial_coef * np.multiply(u_r, u_r) + angular_coef * grad_tan_sq


def newton_gap(n: int, eigenvalues) -> float:
    """Slack in the arithmetic-quadratic mean inequality for Hessian spectra.

    n * sum(lam_i^2) - (sum lam_i)^2 >= 0 with equality iff all eigenvalues
    agree.  Computed as the algebraically identical sum of squared pairwise
    differences, which cannot go negative through cancellation.  Spectra
    whose spread is below ``_EQUAL_SPREAD`` are the equality case and map to
    an exact zero.
    """
    _require_dimension(n)
    if (isinstance(eigenvalues, list) and len(eigenvalues) == n
            and all(isinstance(v, float) and math.isfinite(v) for v in eigenvalues)
            and max(eigenvalues) - min(eigenvalues) < _EQUAL_SPREAD):
        return 0.0
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (n,):
        raise ValueError(f"expected {n} eigenvalues, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    if float(lam.max() - lam.min()) < _EQUAL_SPREAD:
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
