"""Shape experiments around constant-Neumann rigidity.

On the hemisphere the only domains whose torsion function has constant
normal derivative are geodesic balls centered at the pole; in flat space an
entire family of translated disks works.  The objective J below is the
normalized squared deviation of the Neumann trace from its mean, so J sits
at the discretization floor exactly on rigid shapes.  ``sweep`` maps J over
parametrized families.  J is the squared norm of a vector of weighted trace
residuals, so ``optimize_shape`` descends it by Gauss-Newton least squares,
with the exact Jacobian of the discrete residuals: one factorization per
evaluated shape and one back-solve on that factor per shape parameter
(the shape derivative of Henrot & Pierre, Shape Variation and
Optimization, EMS 2018, taken on the discrete problem).  ``ball_sigma``
is its closed form on geodesic balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import (
    _COMPLEX_STEP,
    DiscreteField,
    SolverConvergenceError,
    StarDomain,
    _require_grid_size,
    neumann_trace,
    neumann_trace_jacobian,
    solve_torsion,
    trace_moments,
)
from .geometry import WarpingProfile, warping_jet

__all__ = [
    "NoFeasibleShapeError",
    "TARGET_J",
    "ShapeObjective",
    "TraceRow",
    "OptimizationTrace",
    "SweepRow",
    "neumann_deviation",
    "ball_sigma",
    "offset_disk",
    "offset_family",
    "ball_family",
    "optimize_shape",
    "sweep",
]

# Harmonics of an offset disk's boundary series.
_OFFSET_MODES = 24

# J at which ``optimize_shape`` stops, read at each call.
TARGET_J = 1e-7


class NoFeasibleShapeError(RuntimeError):
    """The descent's start shape is invalid, leaves the profile's range or fails to solve."""


@dataclass(frozen=True, eq=False)
class ShapeObjective:
    """Neumann-deviation objective J for one domain, with trace statistics.

    ``residuals`` holds r_i = sqrt(w_i / W) (c_i - c_mean) / c_mean over the
    boundary trace values c_i with quadrature weights w_i summing to W, so
    sum(r_i^2) equals ``j`` up to rounding.  ``field`` is the solution,
    which keeps its factor for ``jacobian``.
    """

    j: float
    c_mean: float
    c_std: float
    residuals: np.ndarray
    field: DiscreteField

    def jacobian(self, parameters=None) -> np.ndarray:
        """d residuals / d(r0, a_1..a_K, b_1..b_K), K = the domain's modes.

        Exact for the discrete problem, of shape (ntheta, 1 + 2K), or only
        the columns at the indices ``parameters``; it costs one back-solve
        on the kept factor with one right-hand side per column.  The trace
        derivatives are stepped back into ``_trace_residuals``: the step is
        a power of two, so the stepped trace carries them exactly.
        """
        eps = _COMPLEX_STEP
        values, weights = neumann_trace(self.field)
        d_values, d_weights = neumann_trace_jacobian(self.field, parameters)
        return (_trace_residuals(values + 1j * eps * d_values,
                                 weights + 1j * eps * d_weights).imag / eps).T


def _trace_residuals(values, weights):
    """r_i = sqrt(w_i / W) (c_i - c_mean) / c_mean along the last axis."""
    total = np.sum(weights, axis=-1, keepdims=True)
    mean = np.sum(weights * values, axis=-1, keepdims=True) / total
    return np.sqrt(weights / total) * (values - mean) / mean


def neumann_deviation(domain: StarDomain, profile: WarpingProfile, ns: int,
                      ntheta: int) -> ShapeObjective:
    """Solve the torsion problem and measure how non-constant the trace is.

    J = (weighted variance of the Neumann trace) / (weighted mean)^2, a
    dimensionless number that vanishes exactly when the overdetermined
    problem is solvable on the domain.
    """
    field = solve_torsion(profile, domain, ns, ntheta)
    values, weights = neumann_trace(field)
    total, mean, var = trace_moments(values, weights)
    return ShapeObjective(j=var / mean ** 2, c_mean=mean,
                          c_std=math.sqrt(var),
                          residuals=_trace_residuals(values, weights),
                          field=field)


def ball_sigma(profile: WarpingProfile, r0: float, k: int) -> float:
    """sigma_k = (h'(r0) - k) / h(r0): a geodesic ball's trace response to mode k.

    The k-th harmonic extension f_k = -h(r0) (t / t(r0))^k, with t the
    conformal radius (t'/t = 1/h), has f_k'(r0) = -k in every profile.  So
    moving the boundary of the ball of radius r0 to
    rho = r0 (1 + a_k cos k theta + b_k sin k theta) changes the Neumann
    trace h(r0) by r0 (h'(r0) - k)(a_k cos k theta + b_k sin k theta) to
    first order, the residuals by sqrt(w_i / W) r0 sigma_k times the same
    harmonic, and J = r0^2 (a_k^2 + b_k^2) sigma_k^2 / 2 up to higher order.
    """
    warp = warping_jet(profile, r0)
    return (warp.d1 - k) / warp.value


def offset_disk(radius: float, offset: float) -> StarDomain:
    """Euclidean disk of the given radius centered a distance ``offset`` away.

    In polar coordinates about the original center the boundary radius is
    rho(theta) = offset cos(theta) + sqrt(radius^2 - offset^2 sin^2(theta)),
    projected onto a short Fourier series (coefficients decay geometrically
    in offset/radius, so ``_OFFSET_MODES`` harmonics are exact to roundoff).
    """
    if not 0.0 <= offset < radius:
        raise ValueError(f"need 0 <= offset < radius, got offset {offset}, radius {radius}")
    if offset == 0.0:
        return StarDomain.ball(radius)

    def rho(theta):
        return offset * math.cos(theta) + math.sqrt(
            radius ** 2 - (offset * math.sin(theta)) ** 2
        )

    return StarDomain.from_function(rho, _OFFSET_MODES)


def offset_family(radius: float, offsets):
    """(offset, domain) pairs for a family of displaced disks."""
    return [(float(d), offset_disk(radius, float(d))) for d in offsets]


def ball_family(radii):
    return [(float(R), StarDomain.ball(float(R))) for R in radii]


@dataclass(frozen=True)
class TraceRow:
    index: int
    evaluations: int
    j: float
    r0: float
    cos_coeffs: tuple
    sin_coeffs: tuple
    spread: float          # step length from the previous best iterate


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    rows: tuple
    best_domain: StarDomain
    best_j: float
    evaluations: int
    converged: bool
    status: str


def _pack(domain: StarDomain, modes: int) -> np.ndarray:
    """(r0, a_1..a_K, b_1..b_K), K = ``modes``, of the domain rotated to b_1 = 0."""
    # Gauge: rotations of a shape are equivalent, so rotate b_1 away and
    # optimize with the first sine coefficient pinned at zero.
    a1, b1 = (coeffs[0] if coeffs else 0.0
              for coeffs in (domain.cos_coeffs, domain.sin_coeffs))
    if b1:
        domain = domain.rotated(math.atan2(b1, a1))
    a = np.zeros(modes)
    b = np.zeros(modes)
    a[: len(domain.cos_coeffs)] = domain.cos_coeffs[:modes]
    b[: len(domain.sin_coeffs)] = domain.sin_coeffs[:modes]
    return np.concatenate([[domain.r0], a, [0.0], b[1:]])


class _TargetReached(Exception):
    """Ends the least-squares run from inside the residual function."""


def optimize_shape(initial: StarDomain, modes: int, profile: WarpingProfile,
                   budget: int, ns: int, ntheta: int) -> OptimizationTrace:
    """Gauss-Newton descent of J over (a_1..a_K, b_2..b_K) at fixed r0.

    J is the squared norm of the weighted trace residuals, so
    ``scipy.optimize.least_squares`` (trust-region reflective) minimizes it
    directly, with the exact Jacobian ``ShapeObjective.jacobian`` of the
    last solved shape.  r0 stays at the start's value: every pole-centred
    ball is rigid, so a J = 0 shape stays reachable, and a free r0 drifts to
    the flat limit where off-centre caps are nearly rigid too.  Every call
    of ``neumann_deviation`` (one factorization) counts as an evaluation;
    least_squares runs with ``max_nfev = budget`` and counts every residual
    call, so ``evaluations`` never exceeds ``budget``.  Invalid trial shapes
    get non-finite residuals, which shrink the trust region.
    The run ends at the first evaluation with J <= ``TARGET_J``, when the
    budget is spent (the best iterate seen is returned with
    ``converged=False``), or when least_squares stops on its own
    tolerances.  A start that cannot be solved raises
    ``NoFeasibleShapeError``.  ``modes`` must lie in 1..ntheta // 2, since
    a higher harmonic aliases on the grid's angles, and ``budget`` must be
    at least 1; either out of range, a grid size ``build_grid`` refuses, or
    a start with a nonzero harmonic above ``modes``, raises ``ValueError``.
    """
    _require_grid_size(ns, ntheta)
    if not (isinstance(modes, (int, np.integer)) and 1 <= modes <= ntheta // 2):
        raise ValueError(f"modes must be an integer in 1..{ntheta // 2}, got {modes!r}")
    if any(initial.cos_coeffs[modes:] + initial.sin_coeffs[modes:]):
        raise ValueError(f"the start shape has a nonzero harmonic above modes = {modes}")
    if budget < 1:
        raise ValueError(f"evaluation budget must be at least 1, got {budget}")

    # x = (a_1..a_K, b_2..b_K) is written into the start's shape vector.
    shape = _pack(initial, modes)
    columns = np.r_[1:modes + 1, modes + 2:2 * modes + 1]
    evaluations = 0
    rows: list[TraceRow] = []
    best_x, best_j, best_domain = None, math.inf, None
    last = (None, None)  # (x, objective) of the last solved shape

    def evaluate(x: np.ndarray):
        nonlocal evaluations, best_x, best_j, best_domain, last
        evaluations += 1
        shape[columns] = x
        try:
            domain = StarDomain(float(shape[0]), tuple(shape[1:modes + 1]),
                                tuple(shape[modes + 1:]))
            obj = neumann_deviation(domain, profile, ns, ntheta)
        except (ValueError, SolverConvergenceError):
            if best_x is None:
                raise NoFeasibleShapeError(
                    "no feasible shape: the start shape cannot be solved") from None
            return None
        if obj.j < best_j:
            step = 0.0 if best_x is None else float(np.linalg.norm(x - best_x))
            best_x, best_j, best_domain = x.copy(), obj.j, domain
            rows.append(TraceRow(len(rows), evaluations, obj.j, domain.r0,
                                 domain.cos_coeffs, domain.sin_coeffs, step))
        if obj.j <= TARGET_J:
            raise _TargetReached
        last = (x.copy(), obj)
        return obj

    def residuals(x: np.ndarray) -> np.ndarray:
        obj = evaluate(x)
        return np.full(ntheta, math.nan) if obj is None else obj.residuals

    def jacobian(x: np.ndarray) -> np.ndarray:
        # trf asks only at the shape it has just evaluated and accepted.
        if not np.array_equal(x, last[0]):
            raise RuntimeError("least_squares asked for a Jacobian away from "
                               "the last solved shape")
        return last[1].jacobian(columns)

    # Imported here: scipy.optimize loads scipy.special, a third of the
    # start-up of every command, and only this descent uses it.
    from scipy.optimize import least_squares
    try:
        result = least_squares(residuals, shape[columns], jac=jacobian,
                               method="trf", max_nfev=budget)
        # Status 0 is trf's own evaluation cap; 1-4 are its tolerance tests,
        # reported under the frozen CLI status name "simplex collapsed".
        status = "simplex collapsed" if result.status > 0 else "budget exhausted"
    except _TargetReached:
        status = "target reached"
    return OptimizationTrace(
        rows=tuple(rows), best_domain=best_domain,
        best_j=best_j, evaluations=evaluations,
        converged=status != "budget exhausted", status=status,
    )


@dataclass(frozen=True)
class SweepRow:
    parameter: float
    j: float
    c_mean: float
    c_std: float
    status: str


def sweep(family, profile: WarpingProfile, ns: int, ntheta: int) -> list:
    """Evaluate J over a parametrized family of domains.

    Rows come back in input order.  A solver failure on one member is
    recorded in its ``status`` and the sweep continues; a grid size
    ``build_grid`` refuses raises ``ValueError`` before any solve.
    """
    _require_grid_size(ns, ntheta)
    table = []
    for parameter, domain in family:
        try:
            obj = neumann_deviation(domain, profile, ns, ntheta)
            table.append(SweepRow(float(parameter), obj.j, obj.c_mean,
                                  obj.c_std, "ok"))
        except (ValueError, SolverConvergenceError) as exc:
            table.append(SweepRow(float(parameter), math.nan, math.nan,
                                  math.nan, f"failed: {exc}"))
    return table
