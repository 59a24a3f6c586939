"""Shape experiments around constant-Neumann rigidity.

On the hemisphere the only domains whose torsion function has constant
normal derivative are geodesic balls centered at the pole; in flat space an
entire family of translated disks works.  The objective J below is the
normalized squared deviation of the Neumann trace from its mean, so J sits
at the discretization floor exactly on rigid shapes.  ``sweep`` maps J over
parametrized families and ``optimize_shape`` descends it with a classical
simplex method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretization import (
    SolverConvergenceError,
    StarDomain,
    neumann_trace,
    solve_torsion,
)
from .geometry import WarpingProfile

__all__ = [
    "NoFeasibleShapeError",
    "ShapeObjective",
    "TraceRow",
    "OptimizationTrace",
    "SweepRow",
    "neumann_deviation",
    "offset_disk",
    "offset_family",
    "ball_family",
    "optimize_shape",
    "sweep",
]


# The simplex has collapsed when its vertices and their J values lie this close.
_XATOL = 1e-7
_FATOL = 1e-14


class NoFeasibleShapeError(RuntimeError):
    """Every shape the descent evaluated was invalid or left the profile's range."""


@dataclass(frozen=True, eq=False)
class ShapeObjective:
    """Neumann-deviation objective J for one domain, with trace statistics."""

    j: float
    c_mean: float
    c_std: float
    domain: StarDomain
    ns: int
    ntheta: int


def neumann_deviation(domain: StarDomain, profile: WarpingProfile, ns: int,
                      ntheta: int, tol: float = 1e-10,
                      max_iter: int | None = None) -> ShapeObjective:
    """Solve the torsion problem and measure how non-constant the trace is.

    J = (weighted variance of the Neumann trace) / (weighted mean)^2, a
    dimensionless number that vanishes exactly when the overdetermined
    problem is solvable on the domain.
    """
    field = solve_torsion(profile, domain, ns, ntheta, tol=tol, max_iter=max_iter)
    values, weights = neumann_trace(field)
    total = float(np.sum(weights))
    mean = float(np.sum(weights * values) / total)
    var = float(np.sum(weights * (values - mean) ** 2) / total)
    return ShapeObjective(j=var / mean ** 2, c_mean=mean,
                          c_std=math.sqrt(max(var, 0.0)),
                          domain=domain, ns=ns, ntheta=ntheta)


def offset_disk(radius: float, offset: float, modes: int = 24) -> StarDomain:
    """Euclidean disk of the given radius centered a distance ``offset`` away.

    In polar coordinates about the original center the boundary radius is
    rho(theta) = offset cos(theta) + sqrt(radius^2 - offset^2 sin^2(theta)),
    projected onto a short Fourier series (coefficients decay geometrically
    in offset/radius, so the default 24 harmonics are exact to roundoff).
    """
    if not 0.0 <= offset < radius:
        raise ValueError(f"need 0 <= offset < radius, got offset {offset}, radius {radius}")
    if offset == 0.0:
        return StarDomain.ball(radius)

    def rho(theta):
        return offset * math.cos(theta) + math.sqrt(
            radius ** 2 - (offset * math.sin(theta)) ** 2
        )

    return StarDomain.from_function(rho, modes)


def offset_family(radius: float, offsets, modes: int = 24):
    """(offset, domain) pairs for a family of displaced disks."""
    return [(float(d), offset_disk(radius, float(d), modes)) for d in offsets]


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
    spread: float          # max vertex distance of the current simplex


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    rows: tuple
    best_domain: StarDomain
    best_j: float
    evaluations: int
    converged: bool
    status: str


def _pack(domain: StarDomain, modes: int) -> np.ndarray:
    a = np.zeros(modes)
    b = np.zeros(modes)
    a[: len(domain.cos_coeffs)] = domain.cos_coeffs[:modes]
    b[: len(domain.sin_coeffs)] = domain.sin_coeffs[:modes]
    # Gauge: rotations of a shape are equivalent, so rotate b_1 away and
    # optimize with the first sine coefficient pinned at zero.
    if abs(b[0]) > 0.0:
        phase = math.atan2(b[0], a[0])
        rotated = domain.rotated(phase)
        a[: len(rotated.cos_coeffs)] = rotated.cos_coeffs[:modes]
        b[: len(rotated.sin_coeffs)] = rotated.sin_coeffs[:modes]
        b[0] = 0.0
    return np.concatenate([[domain.r0], a, b[1:]])


def _unpack(x: np.ndarray, modes: int) -> StarDomain:
    r0 = float(x[0])
    a = tuple(x[1:1 + modes])
    b = (0.0,) + tuple(x[1 + modes:])
    return StarDomain(r0, a, b)


def optimize_shape(initial: StarDomain, modes: int, profile: WarpingProfile,
                   budget: int, ns: int, ntheta: int, *,
                   target_j: float = 1e-7,
                   solver_tol: float = 1e-10) -> OptimizationTrace:
    """Nelder-Mead descent of J over (r0, a_1..a_K, b_2..b_K).

    Standard reflection/expansion/contraction/shrink coefficients
    (1, 2, 1/2, 1/2).  Invalid shapes score +inf so the simplex backs away
    from them.  Exhausting the evaluation budget is an ordinary outcome:
    the best iterate seen is returned with ``converged=False``.  If no
    evaluated shape was feasible, ``NoFeasibleShapeError`` is raised.
    """
    if not (isinstance(modes, (int, np.integer)) and 1 <= modes <= 8):
        raise ValueError(f"modes must be an integer in 1..8, got {modes!r}")
    if budget < 50:
        raise ValueError(f"evaluation budget must be at least 50, got {budget}")

    evaluations = 0
    rows: list[TraceRow] = []
    best = {"x": None, "j": math.inf}

    def objective(x: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            domain = _unpack(x, modes)
            if domain.max_radius >= profile.r_max:
                return math.inf
            return neumann_deviation(domain, profile, ns, ntheta,
                                     tol=solver_tol).j
        except (ValueError, SolverConvergenceError):
            return math.inf

    def spread_of(simplex: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(simplex - simplex[0], axis=1)))

    def record(simplex, fvals):
        k = int(np.argmin(fvals))
        if fvals[k] < best["j"]:
            best["j"] = float(fvals[k])
            best["x"] = simplex[k].copy()
            dom = _unpack(simplex[k], modes)
            rows.append(TraceRow(len(rows), evaluations, best["j"], dom.r0,
                                 dom.cos_coeffs, dom.sin_coeffs,
                                 spread_of(simplex)))

    x0 = _pack(initial, modes)
    dim = x0.size
    steps = np.full(dim, 0.05)
    steps[0] = 0.05 * x0[0]
    simplex = np.vstack([x0] + [x0 + steps[k] * np.eye(dim)[k] for k in range(dim)])
    fvals = np.array([objective(v) for v in simplex])
    record(simplex, fvals)

    status = "budget exhausted"
    converged = False
    while True:
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if fvals[0] <= target_j:
            status, converged = "target reached", True
            break
        if spread_of(simplex) < _XATOL and fvals[-1] - fvals[0] < _FATOL:
            status, converged = "simplex collapsed", True
            break
        if evaluations >= budget:
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = objective(reflected)
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = objective(expanded) if evaluations < budget else math.inf
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid - 0.5 * (centroid - worst)
            f_c = objective(contracted) if evaluations < budget else math.inf
            if f_c < min(f_r, fvals[-1]):
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                # Shrink toward the best vertex.
                for k in range(1, dim + 1):
                    simplex[k] = simplex[0] + 0.5 * (simplex[k] - simplex[0])
                    fvals[k] = objective(simplex[k]) if evaluations < budget \
                        else math.inf
        record(simplex, fvals)

    if best["x"] is None or not math.isfinite(best["j"]):
        raise NoFeasibleShapeError("no feasible shape was found within the budget")
    return OptimizationTrace(
        rows=tuple(rows), best_domain=_unpack(best["x"], modes),
        best_j=best["j"], evaluations=evaluations, converged=converged,
        status=status,
    )


@dataclass(frozen=True)
class SweepRow:
    parameter: float
    j: float
    c_mean: float
    c_std: float
    status: str


def sweep(family, profile: WarpingProfile, ns: int, ntheta: int,
          tol: float = 1e-10) -> list:
    """Evaluate J over a parametrized family of domains.

    Rows come back in input order.  A solver failure on one member is
    recorded in its ``status`` and the sweep continues.
    """
    table = []
    for parameter, domain in family:
        try:
            obj = neumann_deviation(domain, profile, ns, ntheta, tol=tol)
            table.append(SweepRow(float(parameter), obj.j, obj.c_mean,
                                  obj.c_std, "ok"))
        except (ValueError, SolverConvergenceError) as exc:
            table.append(SweepRow(float(parameter), math.nan, math.nan,
                                  math.nan, f"failed: {exc}"))
    return table
