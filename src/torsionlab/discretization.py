"""Boundary-fitted finite differences for the torsion problem on star domains.

The grid solver is surface-only: it discretizes Lap u = 2 h_dot, the case
n = 2 of Lap u = n h_dot, on star-shaped domains  {r < rho(theta)}  by
mapping to the unit square in the coordinates (s, theta) with
r = s rho(theta).  Design points:

  * the grid carries the metric: ``build_grid`` evaluates h and h' at the
    nodes and h on the boundary once, and every later step reads them;
  * staggered radial nodes s_j = (j - 1/2) / Ns keep every unknown off the
    pole, and the stencil arm that would cross the pole is redirected to the
    antipodal column, linking (s_1, theta) with (s_1, theta + pi);
  * the chain rule introduces a mixed s-theta derivative whenever
    rho'(theta) != 0, so interior rows carry a compact 9-point stencil that
    degenerates to the classical polar 5-point stencil on disks;
  * the Dirichlet ring s = 1 is eliminated by a ghost value at s = 1 + ds/2
    extrapolated quadratically through u(1) = 0, which keeps second order
    up to the boundary;
  * assembly fills nine row-order slots of arm weights and columns per
    node, (Ns, Ntheta, 3, 3) arrays written through their (3, 3, Ns,
    Ntheta) views, folds the ghost into the last ring, scales each node's
    slots to unit max-norm and points the pole arms at antipodal columns,
    so the slots are the rows of the equilibrated CSR matrix in place.

The resulting system is nonsymmetric.  On a disk its coefficients do not
depend on theta, so an FFT in theta splits it into one tridiagonal system in
s per Fourier mode (the fast disk solver of Swarztrauber & Sweet, SIAM
J. Numer. Anal. 10, 1973); every other domain is factored by one sparse LU.
Either factor is used for one back-solve, verified by its scaled residual,
and is kept on the solution for the back-solves of its shape derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import WarpingProfile

__all__ = [
    "StarDomain",
    "Grid",
    "LinearSystem",
    "DiscreteField",
    "GradientField",
    "SolverConvergenceError",
    "SOLVER_TOL",
    "build_grid",
    "assemble",
    "solve",
    "solve_torsion",
    "gradient_field",
    "scalar_gradient",
    "neumann_trace",
    "neumann_trace_jacobian",
    "trace_moments",
    "boundary_radial_slope",
    "integrate",
]

# Angular samples of the domain positivity and radius-bound checks, and
# of the projection in ``StarDomain.from_function``.
_VALIDATION_SAMPLES = 4096

# Bound on the verified scaled residual of ``solve``, read at each call.
SOLVER_TOL = 1e-10

# The d-th derivative of a_k cos(k t) + b_k sin(k t) is k^d times
# (sign, basis) of the cosine term and of the sine term, for d = 0, 1, 2.
_SERIES_DERIVATIVES = (
    ((1, np.cos), (1, np.sin)),
    ((-1, np.sin), (1, np.cos)),
    ((-1, np.cos), (-1, np.sin)),
)

# Imaginary step of the complex-step derivatives (Squire & Trapp, SIAM
# Review 40, 1998): for f analytic, Im f(x + i e v) / e is f'(x) v to
# rounding once e is tiny, with no cancellation.  A power of two, so that
# dividing it out is exact.
_COMPLEX_STEP = 2.0 ** -100


@dataclass(frozen=True, eq=False)
class StarDomain:
    """Star-shaped domain boundary rho(theta) as a truncated Fourier series.

    rho(theta) = r0 * (1 + sum_k a_k cos(k theta) + b_k sin(k theta)).
    Positivity of rho is checked on a dense angular grid at construction;
    geometry-specific radius caps (the hemisphere bound) are enforced where
    a profile is available, i.e. by ``build_grid``.
    """

    r0: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ValueError(f"r0 must be positive and finite, got {self.r0!r}")
        a = tuple(float(v) for v in self.cos_coeffs)
        b = tuple(float(v) for v in self.sin_coeffs)
        if not all(math.isfinite(v) for v in a + b):
            raise ValueError("Fourier coefficients must be finite")
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)
        theta = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False)
        radii = self.rho(theta)
        if np.min(radii) <= 0.0:
            raise ValueError("degenerate domain: rho(theta) must stay positive")
        object.__setattr__(self, "min_radius", float(np.min(radii)))
        object.__setattr__(self, "max_radius", float(np.max(radii)))

    @property
    def modes(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def _series(self, theta, derivative: int):
        theta = np.asarray(theta, dtype=float)
        acc = np.ones_like(theta) if derivative == 0 else np.zeros_like(theta)
        for coeffs, (sign, basis) in zip((self.cos_coeffs, self.sin_coeffs),
                                         _SERIES_DERIVATIVES[derivative]):
            if not coeffs:
                continue
            k = np.arange(1, len(coeffs) + 1, dtype=float)
            term = basis(np.multiply.outer(theta, k)) @ (k ** derivative
                                                        * np.asarray(coeffs))
            acc = acc + term if sign > 0 else acc - term
        out = self.r0 * acc
        return out if np.ndim(theta) else float(out)

    def rho(self, theta):
        return self._series(theta, 0)

    def drho(self, theta):
        return self._series(theta, 1)

    def d2rho(self, theta):
        return self._series(theta, 2)

    def parameter_gradient(self, theta) -> np.ndarray:
        """Derivatives of (rho, rho', rho'') in (r0, a_1..a_K, b_1..b_K), K = modes.

        Returns an array of shape (3, 1 + 2K, len(theta)).  Each derivative
        of rho is linear in the coefficients and r0 times its value at
        r0 = 1, so a_k contributes r0 k^d (sign, basis) of the cosine term.
        """
        theta = np.asarray(theta, dtype=float)
        k = np.arange(1, self.modes + 1, dtype=float)[:, None]
        angles = k * theta
        return np.stack([
            np.concatenate([self._series(theta, d)[None, :] / self.r0]
                           + [self.r0 * sign * k ** d * basis(angles)
                              for sign, basis in terms])
            for d, terms in enumerate(_SERIES_DERIVATIVES)
        ])

    def rotated(self, phase: float) -> "StarDomain":
        """Same shape with the angular origin shifted: rho'(theta) = rho(theta + phase)."""
        k = np.arange(1, self.modes + 1, dtype=float)
        a = np.zeros(self.modes)
        b = np.zeros(self.modes)
        a[: len(self.cos_coeffs)] = self.cos_coeffs
        b[: len(self.sin_coeffs)] = self.sin_coeffs
        ck, sk = np.cos(k * phase), np.sin(k * phase)
        return StarDomain(self.r0,
                          tuple(a * ck + b * sk),
                          tuple(b * ck - a * sk))

    @classmethod
    def ball(cls, radius: float) -> "StarDomain":
        return cls(r0=float(radius))

    @classmethod
    def from_function(cls, fn, modes: int) -> "StarDomain":
        """Project a positive boundary-radius function onto ``modes`` harmonics."""
        theta = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_SAMPLES, endpoint=False)
        radii = np.asarray([fn(t) for t in theta], dtype=float)
        spectrum = np.fft.rfft(radii) / _VALIDATION_SAMPLES
        r0 = float(spectrum[0].real)
        if r0 <= 0:
            raise ValueError("mean boundary radius must be positive")
        if modes >= _VALIDATION_SAMPLES // 2:
            raise ValueError("requested more harmonics than samples resolve")
        a = 2.0 * spectrum[1:modes + 1].real / r0
        b = -2.0 * spectrum[1:modes + 1].imag / r0
        return cls(r0, tuple(a), tuple(b))


@dataclass(frozen=True, eq=False)
class Grid:
    """Discretization of (profile, domain) on the mapped unit square.

    Carries the physical radii and the metric's h and h', evaluated once.
    """

    profile: WarpingProfile
    domain: StarDomain
    ns: int
    ntheta: int
    s: np.ndarray          # (ns,) staggered radial coordinates
    theta: np.ndarray      # (ntheta,)
    rho: np.ndarray        # (ntheta,) boundary radius at grid angles
    drho: np.ndarray
    d2rho: np.ndarray
    r: np.ndarray          # (ns, ntheta) physical radii s_j rho_i
    h: np.ndarray          # (ns, ntheta) h(r) at the nodes
    h_dot: np.ndarray      # (ns, ntheta) h'(r) at the nodes
    h_boundary: np.ndarray  # (ntheta,) h(rho) on the boundary
    ds: float
    dtheta: float

    @property
    def size(self) -> int:
        return self.ns * self.ntheta


def _require_grid_size(ns: int, ntheta: int) -> None:
    """Raise ``ValueError`` unless ns >= 8 and ntheta is even and >= 16."""
    if ns < 8:
        raise ValueError(f"ns must be at least 8, got {ns}")
    if ntheta < 16:
        raise ValueError(f"ntheta must be at least 16, got {ntheta}")
    if ntheta % 2:
        raise ValueError(f"ntheta must be even for the antipodal pole coupling, got {ntheta}")


def build_grid(profile: WarpingProfile, domain: StarDomain, ns: int,
               ntheta: int) -> Grid:
    """Staggered polar grid: s_j = (j - 1/2)/ns, theta_i = 2 pi i / ntheta."""
    _require_grid_size(ns, ntheta)
    if domain.max_radius >= profile.r_max:
        raise ValueError(
            f"domain radius {domain.max_radius:.6g} reaches the profile bound "
            f"r_max = {profile.r_max:.6g}"
        )
    s = (np.arange(1, ns + 1) - 0.5) / ns
    theta = 2.0 * math.pi * np.arange(ntheta) / ntheta
    rho = domain.rho(theta)
    r = np.outer(s, rho)
    return Grid(
        profile=profile, domain=domain, ns=ns, ntheta=ntheta, s=s, theta=theta,
        rho=rho, drho=domain.drho(theta), d2rho=domain.d2rho(theta), r=r,
        h=profile.h(r), h_dot=profile.h_dot(r), h_boundary=profile.h(rho),
        ds=1.0 / ns, dtheta=2.0 * math.pi / ntheta,
    )


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """The row-equilibrated system of the operator M and the forcing 2 h'.

    ``matrix`` is diag(row_scale) M and ``rhs`` is diag(row_scale) 2 h' at
    the nodes, flattened; every row of ``matrix`` has unit max-norm, to
    rounding.
    """

    matrix: object  # scipy.sparse.csr_matrix
    rhs: np.ndarray
    row_scale: np.ndarray  # (size,) 1 / max |w| of each row of M
    grid: Grid


@dataclass(frozen=True, eq=False)
class DiscreteField:
    """Solution values on a grid plus the metadata needed to post-process them.

    ``factor`` is the factorization of the system's matrix that produced
    the values and ``row_scale`` the system's row scaling, so
    ``back_solve`` solves the same system for another right-hand side.
    """

    values: np.ndarray     # (ns, ntheta)
    grid: Grid
    residual: float = 0.0
    # Always 0: ``solve`` takes no refinement steps.  Kept only because
    # perfbench/layers.py:_solve_probe reads it for a per-layer metric.
    iterations = 0
    factor: object = None  # ``_DiskFactor`` or SuperLU
    row_scale: np.ndarray = None

    def back_solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with M x = rhs for the discrete operator M (the system's
        matrix is diag(row_scale) M), flattened.

        ``rhs`` is one right-hand side of shape (size,) or m of them as the
        columns of a (size, m) array; x has the shape of ``rhs``.
        """
        return self.factor.solve((self.row_scale * rhs.T).T)


class SolverConvergenceError(RuntimeError):
    """The factor was singular, or the verified back-solve left a scaled
    residual above the bound ``SOLVER_TOL``."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _mapped_coefficients(s, rho, drho, d2rho, hh, hd):
    """Chain-rule coefficients of the operator in (s, theta) coordinates.

    With r = s rho(theta) the surface Laplacian u_rr + (h'/h) u_r
    + u_{tt} / h^2 (physical angle t) becomes

        A u_ss + B u_st + C u_tt + D u_s

    at each node, where the coefficients below absorb the metric and the
    boundary fit.  B vanishes exactly on disks.  Takes the column s, the
    boundary arrays rho, rho', rho'' (theta on the last axis) and h, h' at
    the nodes; only arithmetic, so complex inputs give complex steps.
    """
    alpha = s * (drho / rho)
    inv_h2 = 1.0 / (hh * hh)
    A = 1.0 / rho ** 2 + alpha * alpha * inv_h2
    B = -2.0 * alpha * inv_h2
    C = inv_h2
    D = (hd / hh) / rho \
        - s * (d2rho / rho - 2.0 * (drho / rho) ** 2) * inv_h2
    return A, B, C, D


def assemble(grid: Grid) -> LinearSystem:
    """Sparse operator and right-hand side for Lap u = 2 h_dot on ``grid.domain``.

    The arm from node (j, i) to (j + dj, i + di) has the weight and the flat
    column at index [j, i, 1 + dj, 1 + di] of ``weight_slots`` and
    ``col_slots``, which are filled through their transposed views
    ``weights`` and ``cols`` at [1 + dj, 1 + di, j, i].  On the last ring
    each outer arm w is folded through the quadratic Dirichlet ghost at
    s = 1 + ds/2, u_ghost = u_{last-1}/3 - 2 u_last: it adds -2 w to the
    arm with dj = 0, w/3 to the arm with dj = -1, and becomes 0.  On every
    grid ``_require_grid_size`` admits, the nine slots of node (j, i) become
    CSR row j * ntheta + i as they lie in memory, less their exact zeros.
    Their columns are distinct except on the last ring, where the three
    folded outer arms repeat the dj = 0 columns (6 distinct of 9); those arms
    weigh exactly zero, so ``eliminate_zeros`` drops them before
    ``sort_indices`` could meet a duplicate.

    Stencil weights near the pole exceed boundary weights by several orders
    of magnitude (the 1/h^2 metric factor), which would push the rounding
    floor of the residual b - A x above tight tolerances, so each node's
    slots are scaled to unit max-norm before packing, and the forcing with
    them.  A scaled weight that is not finite (the metric over- or
    underflows at radii below about 1e-153) raises ``SolverConvergenceError``.
    """
    ns, nt = grid.ns, grid.ntheta
    ds, dt = grid.ds, grid.dtheta
    weight_slots = np.empty((ns, nt, 3, 3))
    weights = weight_slots.transpose(2, 3, 0, 1)
    with np.errstate(all="ignore"):
        A, B, C, D = _mapped_coefficients(grid.s[:, None], grid.rho, grid.drho,
                                          grid.d2rho, grid.h, grid.h_dot)
        corner = B / (4.0 * ds * dt)
        weights[1, 1] = -2.0 * A / ds ** 2 - 2.0 * C / dt ** 2
        weights[2, 1] = A / ds ** 2 + D / (2.0 * ds)
        weights[0, 1] = A / ds ** 2 - D / (2.0 * ds)
        weights[1, 0] = weights[1, 2] = C / dt ** 2
        weights[0, 0] = weights[2, 2] = corner
        weights[0, 2] = weights[2, 0] = -corner
        outer = weights[2, :, -1]
        weights[1, :, -1] += -2.0 * outer
        weights[0, :, -1] += outer / 3.0
        weights[2, :, -1] = 0.0
        # Max |w| plane by plane: a reduction over the short (3, 3) axes is
        # several times slower.  Every row holds its nonzero centre weight,
        # so no scale is infinite unless the metric is singular.
        row_max = np.zeros((ns, nt))
        for arms in weights:
            for plane in arms:
                np.maximum(row_max, np.abs(plane), out=row_max)
        row_scale = 1.0 / row_max
        weight_slots *= row_scale[..., None, None]
    if not np.isfinite(weight_slots).all():
        raise SolverConvergenceError(
            "singular metric: the stencil weights are not finite", residual=math.inf)

    step = np.arange(-1, 2)
    ring = np.arange(ns)[:, None] + step[:, None, None]
    angle = (np.arange(nt) + step[:, None]) % nt
    # CSR stores int32 indices while its 9 * size slots fit in int32;
    # columns made in the dtype it keeps are taken without a copy.
    index = np.int32 if 9 * grid.size <= np.iinfo(np.int32).max else np.int64
    col_slots = np.empty((ns, nt, 3, 3), dtype=index)
    cols = col_slots.transpose(2, 3, 0, 1)
    np.add(ring[:, None] * nt, angle[None, :, None, :], out=cols)
    # Across the pole: (s_1 - ds, theta) is (s_1, theta + pi).
    cols[0, :, 0] = (angle + nt // 2) % nt
    # The folded outer arms weigh zero; any column inside the grid will do.
    cols[2, :, -1] = cols[1, :, -1]

    size = grid.size
    # Imported here: scipy.sparse is most of a command's start-up; radial never assembles.
    import scipy.sparse as sp
    matrix = sp.csr_matrix(
        (weight_slots.ravel(), col_slots.ravel(), np.arange(0, 9 * size + 1, 9)),
        shape=(size, size),
    )
    # SuperLU's ordering reads the stored pattern: keep it the true stencil.
    matrix.eliminate_zeros()
    matrix.sort_indices()
    rhs = (row_scale * (2 * grid.h_dot)).ravel()
    return LinearSystem(matrix=matrix, rhs=rhs, row_scale=row_scale.ravel(),
                        grid=grid)


class _DiskFactor:
    """Exact factorization of a disk operator by an FFT in theta.

    On a disk every ring of rows is circulant in theta, so Fourier mode k
    of the unknowns only couples to mode k of the neighbouring rings: the
    system splits into one real tridiagonal system in s per mode.  Its
    entries are the rfft of the ring's first row, read from the assembled
    matrix, so the pole fold (-1)^k and the Dirichlet ghost come with it.
    All modes are stacked into one block tridiagonal matrix, factored by a
    single ``dgttrf``; ``solve`` mirrors SuperLU's, for one right-hand side
    of shape (size,) or m as the columns of a (size, m) array, and runs one
    ``dgttrs`` with the real and imaginary parts as 2m right-hand sides.
    """

    def __init__(self, matrix, ntheta: int):
        ns = matrix.shape[0] // ntheta
        first = matrix[::ntheta].tocoo()
        # Ring offset 0, 1, 2 for the rings j - 1, j, j + 1 of row ring j.
        offset = first.col // ntheta - first.row + 1
        stencil = np.zeros((ns, 3, ntheta))
        stencil[first.row, offset, first.col % ntheta] = first.data
        # The stencil is even in theta, so each mode's symbol is real.
        symbol = np.fft.rfft(stencil, axis=2).real.transpose(1, 2, 0)
        # Row k * ns + j of the stack is ring j of mode k; ring 0 has no
        # inner and ring ns - 1 no outer neighbour, which decouples the modes.
        sub, diag, sup = (part.ravel() for part in symbol)
        # Imported here: of the commands, only a disk solve uses scipy.linalg.
        from scipy.linalg import lapack
        dl, d, du, du2, ipiv, info = lapack.dgttrf(sub[1:], diag, sup[:-1])
        if info:
            raise RuntimeError(f"disk factor is singular in row {info}")
        self._factor = (dl, d, du, du2, ipiv)
        self._shape = (ns, ntheta)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        ns, nt = self._shape
        spectrum = np.fft.rfft(rhs.reshape(ns, nt, -1), axis=1)
        m = spectrum.shape[2]
        stacked = spectrum.transpose(1, 0, 2).reshape(-1, m)
        parts = np.empty((stacked.shape[0], 2 * m), order="F")
        parts[:, :m] = stacked.real
        parts[:, m:] = stacked.imag
        from scipy.linalg import lapack  # imported here as in __init__
        x, _ = lapack.dgttrs(*self._factor, parts, overwrite_b=1)
        modes = (x[:, :m] + 1j * x[:, m:]).reshape(-1, ns, m).transpose(1, 0, 2)
        return np.fft.irfft(modes, n=nt, axis=1).reshape(rhs.shape)


def _is_disk(grid: Grid) -> bool:
    """True when the stencil is the same on every ray of the grid.

    The mapped coefficients depend on theta only through rho, rho' and
    rho'', so they are constant when those are.  The rho' of a periodic rho
    can only be constant at zero; asking for zero also keeps the stencil
    even in theta, which the disk factorization relies on.
    """
    return (np.ptp(grid.rho) == 0.0 and not grid.drho.any()
            and np.ptp(grid.d2rho) == 0.0)


def solve(system: LinearSystem) -> DiscreteField:
    """Direct solve, verified to true relative residual <= ``SOLVER_TOL``.

    The system's matrix A, equilibrated by ``assemble``, is factored as it
    stands, once: on a disk by an FFT in theta and one tridiagonal system
    per mode (``_DiskFactor``), on any other domain by SuperLU under a
    minimum-degree ordering of A^T + A.  One back-solve follows, checked
    against ||b - A x|| / ||b||; it already reaches that residual's
    rounding floor, which fixed-precision iterative refinement cannot go
    below (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    ch. 12).  A residual above the bound raises ``SolverConvergenceError``
    carrying the residual reached (a NaN residual counts as above), and a
    singular factor raises it with an infinite residual.  The field keeps
    the factor and the row scale for ``DiscreteField.back_solve``.
    """
    A, b = system.matrix, system.rhs
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return DiscreteField(values=np.zeros((system.grid.ns, system.grid.ntheta)),
                             grid=system.grid)

    try:
        if _is_disk(system.grid):
            lu = _DiskFactor(A, system.grid.ntheta)
        else:
            # Imported here: a ball never loads scipy.sparse.linalg.
            from scipy.sparse.linalg import splu
            lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverConvergenceError(str(exc), residual=math.inf) from None
    x = lu.solve(b)
    res = float(np.linalg.norm(b - A @ x)) / b_norm
    if not res <= SOLVER_TOL:
        raise SolverConvergenceError(
            f"LU solve reached relative residual {res:.3e}, "
            f"above the bound {SOLVER_TOL:.1e}",
            residual=res,
        )
    return DiscreteField(values=x.reshape(system.grid.ns, system.grid.ntheta),
                         grid=system.grid, residual=res, factor=lu,
                         row_scale=system.row_scale)


def solve_torsion(profile: WarpingProfile, domain: StarDomain, ns: int,
                  ntheta: int) -> DiscreteField:
    """Convenience wrapper: grid, assembly and solve in one call."""
    return solve(assemble(build_grid(profile, domain, ns, ntheta)))


def _padded(field_values: np.ndarray, grid: Grid, dirichlet: bool) -> np.ndarray:
    """Extend a nodal array by the pole row and an outer ghost row.

    The pole row is the antipodal rotation of the innermost ring.  The outer
    ghost is the Dirichlet extrapolation for the solution itself, or plain
    quadratic extrapolation for derived scalar fields with no boundary data.
    """
    u = field_values
    half = grid.ntheta // 2
    pole = np.roll(u[0], half)
    if dirichlet:
        ghost = u[-2] / 3.0 - 2.0 * u[-1]
    else:
        ghost = 3.0 * u[-1] - 3.0 * u[-2] + u[-3]
    return np.vstack([pole, u, ghost])


def _first_derivatives(padded: np.ndarray, grid: Grid):
    """Centred first derivatives of a padded array, mapped back to (r, angle).

    Returns (f_s, alpha, f_r, f_ang): the s-derivative, alpha = s rho'/rho,
    the radial derivative f_s / rho and the physical-angle derivative
    f_t - alpha f_s.
    """
    rho = grid.rho[None, :]
    f_s = (padded[2:] - padded[:-2]) / (2.0 * grid.ds)
    f_t = (np.roll(padded, -1, axis=1)[1:-1]
           - np.roll(padded, 1, axis=1)[1:-1]) / (2.0 * grid.dtheta)
    alpha = grid.s[:, None] * grid.drho[None, :] / rho
    return f_s, alpha, f_s / rho, f_t - alpha * f_s


def _second_derivatives(U: np.ndarray, grid: Grid):
    """Centred u_ss, u_st, u_tt of a padded array: with u_s, what A..D multiply."""
    ds, dt = grid.ds, grid.dtheta
    Up = np.roll(U, -1, axis=1)
    Um = np.roll(U, 1, axis=1)
    u_ss = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / ds ** 2
    u_tt = (Up[1:-1] - 2.0 * U[1:-1] + Um[1:-1]) / dt ** 2
    u_st = ((Up[2:] - Up[:-2]) - (Um[2:] - Um[:-2])) / (4.0 * ds * dt)
    return u_ss, u_st, u_tt


@dataclass(frozen=True, eq=False)
class GradientField:
    """First and second derivatives of a discrete field in the orthonormal frame."""

    u_r: np.ndarray
    u_tan: np.ndarray       # angular derivative / h
    grad_sq: np.ndarray
    hess_rr: np.ndarray
    hess_rt: np.ndarray
    hess_tt: np.ndarray
    laplacian: np.ndarray   # trace hess_rr + hess_tt (surface case)


def gradient_field(field: DiscreteField) -> GradientField:
    """Centered second-order derivatives of the solution, mapped back to (r, theta).

    Uses the same pole and Dirichlet-ghost closures as the operator stencil,
    so the reconstructed Laplacian of a solved field reproduces the
    right-hand side up to the solver residual.
    """
    grid = field.grid
    rho = grid.rho[None, :]
    drho = grid.drho[None, :]
    d2rho = grid.d2rho[None, :]
    s = grid.s[:, None]
    hh, hd = grid.h, grid.h_dot

    U = _padded(field.values, grid, dirichlet=True)
    u_s, alpha, u_r, u_ang = _first_derivatives(U, grid)
    u_ss, u_st, u_tt = _second_derivatives(U, grid)

    u_tan = u_ang / hh
    grad_sq = u_r ** 2 + u_tan ** 2

    u_rr = u_ss / rho ** 2
    u_rt = (u_st - alpha * u_ss) / rho - (drho / rho ** 2) * u_s
    u_angang = (u_tt - 2.0 * alpha * u_st + alpha ** 2 * u_ss
                - s * (d2rho / rho - 2.0 * (drho / rho) ** 2) * u_s)

    hess_rr = u_rr
    hess_rt = u_rt / hh - hd * u_ang / hh ** 2
    hess_tt = u_angang / hh ** 2 + hd * u_r / hh
    return GradientField(
        u_r=u_r, u_tan=u_tan, grad_sq=grad_sq,
        hess_rr=hess_rr, hess_rt=hess_rt, hess_tt=hess_tt,
        laplacian=hess_rr + hess_tt,
    )


def scalar_gradient(field: DiscreteField, values: np.ndarray):
    """Orthonormal-frame gradient (radial, tangential) of a derived scalar field.

    Unlike the solution itself, derived fields carry no boundary condition,
    so the outer ring uses plain quadratic extrapolation, which reduces to
    the standard second-order one-sided difference there.
    """
    grid = field.grid
    W = _padded(np.asarray(values, dtype=float), grid, dirichlet=False)
    _, _, w_r, w_ang = _first_derivatives(W, grid)
    return w_r, w_ang / grid.h


def _slope(u: np.ndarray, ds: float) -> np.ndarray:
    """One-sided second-order u_s at s = 1 of nodal values (s, theta last)."""
    return (-3.0 * u[..., -1, :] + u[..., -2, :] / 3.0) / ds


def boundary_radial_slope(field: DiscreteField) -> np.ndarray:
    """One-sided second-order u_s at s = 1, using u(1) = 0."""
    return _slope(field.values, field.grid.ds)


def _trace(u_s, rho, drho, h_b, dtheta: float):
    """Trace values and weights from u_s, rho, rho' and h(rho) at the boundary."""
    values = (u_s / rho) * np.sqrt(1.0 + (drho / h_b) ** 2)
    weights = np.sqrt(drho ** 2 + h_b ** 2) * dtheta
    return values, weights


def neumann_trace(field: DiscreteField):
    """Outward normal derivative along the boundary and arclength weights.

    Returns (values, weights), both of length ntheta.  The weights are the
    metric arclength elements sqrt(rho'^2 + h(rho)^2) dtheta, so their sum
    is the boundary measure.
    """
    grid = field.grid
    return _trace(boundary_radial_slope(field), grid.rho, grid.drho,
                  grid.h_boundary, grid.dtheta)


def neumann_trace_jacobian(field: DiscreteField, parameters=None):
    """Exact shape derivatives of ``neumann_trace`` for the discrete problem.

    Returns (d_values, d_weights), each of shape (P, ntheta): the
    derivatives of the trace values and weights in the parameters
    (r0, a_1..a_K, b_1..b_K), K = ``field.grid.domain.modes``, or only in
    those at the indices ``parameters`` into that tuple.  A parameter p reaches
    the discrete problem M u = b only through rho, rho', rho'' at the grid
    angles and through h, h' at the nodes r = s rho, with dh/dp = h' dr/dp
    and dh'/dp = h'' dr/dp; so u_p = -M^{-1}(M_p u - b_p), one back-solve
    on the field's factor with one column per parameter.  M_p u applies the
    coefficient derivatives (A_p, B_p, C_p, D_p) to the differences of the
    padded field, and those and the trace's own dependence on the shape are
    taken by complex steps through ``_mapped_coefficients`` and ``_trace``.
    """
    grid = field.grid
    eps = _COMPLEX_STEP
    gradient = grid.domain.parameter_gradient(grid.theta)
    if parameters is not None:
        gradient = gradient[:, parameters]
    d_rho = gradient[0]
    # rho, rho', rho'', each stepped along every parameter: (P, ntheta).
    rho, drho, d2rho = (np.stack([grid.rho, grid.drho, grid.d2rho])[:, None, :]
                        + 1j * eps * gradient)
    s = grid.s[:, None]
    d_r = s * d_rho[:, None, :]                 # (P, ns, ntheta)
    h_ddot = grid.profile.h_ddot(grid.r)
    A_p, B_p, C_p, D_p = (c.imag / eps for c in _mapped_coefficients(
        s, rho[:, None, :], drho[:, None, :], d2rho[:, None, :],
        grid.h + 1j * eps * grid.h_dot * d_r, grid.h_dot + 1j * eps * h_ddot * d_r))
    U = _padded(field.values, grid, dirichlet=True)
    u_s = _first_derivatives(U, grid)[0]
    u_ss, u_st, u_tt = _second_derivatives(U, grid)
    # M_p u - b_p with b = 2 h'(r) at the nodes.
    forcing = (A_p * u_ss + B_p * u_st + C_p * u_tt + D_p * u_s
               - 2.0 * h_ddot * d_r)
    d_u = -field.back_solve(forcing.reshape(len(forcing), -1).T).T
    d_u_s = _slope(d_u.reshape(forcing.shape), grid.ds)
    d_h_b = grid.profile.h_dot(grid.rho) * d_rho
    values, weights = _trace(boundary_radial_slope(field) + 1j * eps * d_u_s,
                             rho, drho, grid.h_boundary + 1j * eps * d_h_b,
                             grid.dtheta)
    return values.imag / eps, weights.imag / eps


def trace_moments(values, weights):
    """Total weight, weighted mean and weighted variance of a boundary trace."""
    total = float(np.sum(weights))
    mean = float(np.sum(weights * values) / total)
    var = float(np.sum(weights * (values - mean) ** 2) / total)
    return total, mean, var


def integrate(values, field: DiscreteField) -> float:
    """Midpoint-rule volume integral: sum f h(r) rho dtheta ds."""
    grid = field.grid
    cell = grid.ds * grid.dtheta
    return float(np.sum(np.asarray(values) * grid.h * grid.rho[None, :]) * cell)
