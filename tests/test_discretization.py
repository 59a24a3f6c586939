"""Grid, assembly, sparse LU solve and discrete calculus on star-shaped domains.

Error tolerances for the finite-difference checks were frozen from a
refinement study run outside the suite; each carries a margin of at least
2x over the measured error at the stated resolution.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg

import torsionlab.discretization as discretization
from torsionlab import (
    DiscreteField,
    SolverConvergenceError,
    StarDomain,
    assemble,
    build_grid,
    custom_profile,
    gradient_field,
    integrate,
    make_profile,
    neumann_trace,
    neumann_trace_jacobian,
    offset_disk,
    scalar_gradient,
    solve,
    solve_torsion,
)

EUCLID = make_profile("euclidean")
SPHERE = make_profile("spherical")
HYPER = make_profile("hyperbolic")

FLOWER = StarDomain(0.8, (0.0, 0.0, 0.15))     # rho = 0.8 (1 + 0.15 cos 3t)


def offset_disk_function(R, d):
    """Boundary radius of the disk of radius R centered at distance d."""
    return lambda t: d * math.cos(t) + math.sqrt(R * R - d * d * math.sin(t) ** 2)


def reference_assembly(grid):
    """The operator built arm by arm through COO triplets.

    Each of the nine arms is pushed with boolean masks for the pole and the
    ghost; the COO to CSR conversion sums the duplicates the folds create.
    """
    ns, nt = grid.ns, grid.ntheta
    ds, dt = grid.ds, grid.dtheta
    A, B, C, D = discretization._mapped_coefficients(
        grid.s[:, None], grid.rho, grid.drho, grid.d2rho, grid.h, grid.h_dot)
    w_center = -2.0 * A / ds ** 2 - 2.0 * C / dt ** 2
    w_jp = A / ds ** 2 + D / (2.0 * ds)
    w_jm = A / ds ** 2 - D / (2.0 * ds)
    w_ang = C / dt ** 2
    w_corner = B / (4.0 * ds * dt)
    jj, ii = np.meshgrid(np.arange(ns), np.arange(nt), indexing="ij")
    base = (jj * nt + ii).ravel()
    half = nt // 2
    rows, cols, vals = [], [], []

    def push(dj, di, weight):
        w = np.broadcast_to(weight, (ns, nt)).ravel()
        tj = (jj + dj).ravel()
        ti = ((ii + di) % nt).ravel()
        inside = (tj >= 0) & (tj < ns)
        rows.append(base[inside])
        cols.append((tj * nt + ti)[inside])
        vals.append(w[inside])
        below = tj < 0
        rows.append(base[below])
        cols.append((ti[below] + half) % nt)
        vals.append(w[below])
        above = tj >= ns
        rows.append(base[above])
        cols.append((ns - 2) * nt + ti[above])
        vals.append(w[above] / 3.0)
        rows.append(base[above])
        cols.append((ns - 1) * nt + ti[above])
        vals.append(-2.0 * w[above])

    push(0, 0, w_center)
    push(1, 0, w_jp)
    push(-1, 0, w_jm)
    push(0, 1, w_ang)
    push(0, -1, w_ang)
    push(1, 1, w_corner)
    push(-1, -1, w_corner)
    push(1, -1, -w_corner)
    push(-1, 1, -w_corner)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size),
    ).tocsr()
    matrix.eliminate_zeros()
    return matrix


class TestStarDomain:
    def test_ball(self):
        ball = StarDomain.ball(0.7)
        assert ball.rho(1.3) == 0.7
        assert ball.drho(1.3) == 0.0
        assert ball.d2rho(1.3) == 0.0
        assert ball.min_radius == ball.max_radius == 0.7
        assert ball.modes == 0

    def test_series_evaluation(self):
        t = 0.9
        want = 0.8 * (1.0 + 0.15 * math.cos(3 * t))
        assert FLOWER.rho(t) == pytest.approx(want, abs=1e-15)
        assert FLOWER.drho(t) == pytest.approx(-0.8 * 0.45 * math.sin(3 * t), abs=1e-15)
        assert FLOWER.d2rho(t) == pytest.approx(-0.8 * 1.35 * math.cos(3 * t), abs=1e-15)

    # rho = r0 (1 + a1 cos t + a3 cos 3t + b2 sin 2t): cosine and sine
    # tuples of different lengths, a sine term in every derivative.
    MIXED = StarDomain(0.9, (0.1, 0.0, -0.05), (0.0, 0.08))
    MIXED_DERIVATIVES = {
        "rho": lambda t: 0.9 * (1.0 + 0.1 * np.cos(t) - 0.05 * np.cos(3 * t)
                                + 0.08 * np.sin(2 * t)),
        "drho": lambda t: 0.9 * (-0.1 * np.sin(t) + 0.15 * np.sin(3 * t)
                                 + 0.16 * np.cos(2 * t)),
        "d2rho": lambda t: 0.9 * (-0.1 * np.cos(t) + 0.45 * np.cos(3 * t)
                                  - 0.32 * np.sin(2 * t)),
    }

    @pytest.mark.parametrize("name", ["rho", "drho", "d2rho"])
    def test_series_derivatives_with_sine_terms(self, name):
        series = getattr(self.MIXED, name)
        want = self.MIXED_DERIVATIVES[name]
        value = series(0.9)
        assert type(value) is float
        assert value == pytest.approx(float(want(0.9)), abs=1e-15)
        t = np.linspace(0.0, 2 * math.pi, 37)
        values = series(t)
        assert values.shape == t.shape
        np.testing.assert_allclose(values, want(t), rtol=0, atol=1e-15)

    def test_extrema(self):
        assert FLOWER.max_radius == pytest.approx(0.92, abs=1e-12)
        assert FLOWER.min_radius == pytest.approx(0.8 * 0.85, abs=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            StarDomain(1.0, (-1.0,))
        with pytest.raises(ValueError):
            StarDomain(-0.5)
        with pytest.raises(ValueError):
            StarDomain(1.0, (float("nan"),))

    def test_rotated_matches_shifted_evaluation(self):
        phase = 0.77
        rot = FLOWER.rotated(phase)
        t = np.linspace(0.0, 2 * math.pi, 101)
        np.testing.assert_allclose(rot.rho(t), FLOWER.rho(t + phase), atol=1e-14)
        np.testing.assert_allclose(rot.drho(t), FLOWER.drho(t + phase), atol=1e-13)

    def test_from_function_round_trip(self):
        dom = StarDomain.from_function(FLOWER.rho, modes=4)
        assert dom.r0 == pytest.approx(0.8, abs=1e-12)
        np.testing.assert_allclose(dom.cos_coeffs, (0.0, 0.0, 0.15, 0.0), atol=1e-12)
        np.testing.assert_allclose(dom.sin_coeffs, 0.0, atol=1e-12)

    def test_from_function_rejects_bad_input(self):
        with pytest.raises(ValueError):
            StarDomain.from_function(lambda t: math.cos(t), modes=2)
        with pytest.raises(ValueError):
            StarDomain.from_function(lambda t: 1.0, modes=2048)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FLOWER.r0 = 2.0


class TestBuildGrid:
    def test_node_count_and_first_radius(self):
        grid = build_grid(EUCLID, StarDomain.ball(1.0), 8, 16)
        assert grid.size == 128
        assert grid.s[0] == 1.0 / 16.0
        assert grid.r[0, 0] == 1.0 / 16.0

    def test_outermost_node_placement(self):
        grid = build_grid(EUCLID, StarDomain.ball(1.0), 32, 64)
        assert grid.s[31] == 0.984375
        assert grid.r[31, 0] == 0.984375 * grid.rho[0]

    def test_flower_max_radius(self):
        grid = build_grid(EUCLID, FLOWER, 16, 48)
        assert np.max(grid.r) == pytest.approx(0.92 * 31.0 / 32.0, abs=1e-12)
        assert np.max(grid.r) == pytest.approx(0.89125, abs=1e-12)

    def test_angles_are_uniform_and_pole_free(self):
        grid = build_grid(EUCLID, FLOWER, 16, 48)
        assert grid.theta[0] == 0.0
        assert grid.dtheta == pytest.approx(2 * math.pi / 48)
        assert np.min(grid.r) > 0.0

    def test_size_validation(self):
        ball = StarDomain.ball(1.0)
        with pytest.raises(ValueError):
            build_grid(EUCLID, ball, 7, 16)
        with pytest.raises(ValueError):
            build_grid(EUCLID, ball, 8, 14)
        with pytest.raises(ValueError):
            build_grid(EUCLID, ball, 8, 17)


class TestAssemble:
    def test_euclidean_disk_reduces_to_polar_five_point(self):
        ball = StarDomain.ball(1.0)
        grid = build_grid(EUCLID, ball, 16, 32)
        system = assemble(grid)
        ds, dt = grid.ds, grid.dtheta
        j, i = 8, 5                     # generic interior node
        row = system.matrix.getrow(j * grid.ntheta + i)
        scale = system.row_scale[j * grid.ntheta + i]
        weights = dict(zip(row.indices, row.data))
        r = grid.r[j, i]
        assert len(weights) == 5
        assert weights[(j + 1) * grid.ntheta + i] == pytest.approx(
            scale * (1.0 / ds ** 2 + 1.0 / (2.0 * r * ds)), rel=1e-13)
        assert weights[(j - 1) * grid.ntheta + i] == pytest.approx(
            scale * (1.0 / ds ** 2 - 1.0 / (2.0 * r * ds)), rel=1e-13)
        ang = 1.0 / (r ** 2 * dt ** 2)
        assert weights[j * grid.ntheta + i + 1] == pytest.approx(scale * ang, rel=1e-13)
        assert weights[j * grid.ntheta + i - 1] == pytest.approx(scale * ang, rel=1e-13)
        assert weights[j * grid.ntheta + i] == pytest.approx(
            scale * (-2.0 / ds ** 2 - 2.0 * ang), rel=1e-13)

    def test_rhs_is_n_hdot_at_nodes(self):
        # Staggered node s = 4.5/9 lands exactly at r = 0.3 on the 0.6-ball.
        ball = StarDomain.ball(0.6)
        grid = build_grid(SPHERE, ball, 9, 16)
        system = assemble(grid)
        assert grid.r[4, 0] == 0.3
        scale = system.row_scale[4 * 16]
        assert system.rhs[4 * 16] == pytest.approx(scale * 2.0 * math.cos(0.3),
                                                   abs=1e-15 * scale)
        assert system.rhs[4 * 16] == pytest.approx(scale * 1.910672978251212,
                                                   abs=1e-14 * scale)
        np.testing.assert_array_equal(
            system.rhs, system.row_scale * (2.0 * SPHERE.h_dot(grid.r)).ravel())

    def test_perturbed_domain_has_nine_point_rows(self):
        grid = build_grid(SPHERE, FLOWER, 16, 48)
        system = assemble(grid)
        # drho vanishes only where sin(3 theta) = 0, i.e. every 8th angle.
        row = system.matrix.getrow(8 * 48 + 3)
        assert row.nnz == 9
        assert int(np.max(np.diff(system.matrix.indptr))) <= 9

    @pytest.mark.parametrize("ns,nt", [(8, 16), (16, 48), (64, 128)])
    def test_assembly_matches_reference_formula(self, ns, nt):
        # Bit-identical to the COO build with its rows scaled to unit
        # max-norm after packing, so every factorization and output byte
        # downstream is unchanged.  SuperLU's ordering reads the stored
        # pattern, so the exact-zero corner arms of disks (and of rays where
        # rho' = 0) must stay dropped.
        for profile in (EUCLID, SPHERE, HYPER):
            for domain in (StarDomain.ball(1.0), FLOWER, offset_disk(1.0, 0.2)):
                grid = build_grid(profile, domain, ns, nt)
                system = assemble(grid)
                got = system.matrix
                want = reference_assembly(grid)
                scale = 1.0 / np.maximum.reduceat(np.abs(want.data), want.indptr[:-1])
                want.data *= np.repeat(scale, np.diff(want.indptr))
                case = (profile.kind, domain.modes)
                assert np.array_equal(got.indptr, want.indptr), case
                assert np.array_equal(got.indices, want.indices), case
                assert np.array_equal(got.data, want.data), case
                assert np.array_equal(system.row_scale, scale), case
                assert np.array_equal(system.rhs, scale * (2 * grid.h_dot).ravel()), case
                # max |w| times its rounded reciprocal is 1 or the float
                # just below it, never more.
                row_max = np.maximum.reduceat(np.abs(got.data), got.indptr[:-1])
                assert np.all((row_max == 1.0) | (row_max == np.nextafter(1.0, 0.0))), case
                assert got.has_canonical_format, case
                assert np.all(got.data != 0.0), case

    def test_rejects_domain_reaching_profile_bound(self):
        big = StarDomain.ball(2.0)
        with pytest.raises(ValueError, match="reaches the profile bound"):
            build_grid(SPHERE, big, 8, 16)


class TestSolve:
    def test_euclidean_center_value(self):
        field = solve_torsion(EUCLID, StarDomain.ball(1.0), 64, 128)
        assert abs(field.values[0, 0] - (-0.5)) < 2e-4

    def test_spherical_center_value(self):
        field = solve_torsion(SPHERE, StarDomain.ball(math.pi / 4), 64, 128)
        assert abs(field.values[0, 0] - (-0.2928932188134524)) < 5e-4

    def test_residual_contract(self):
        field = solve_torsion(SPHERE, FLOWER, 32, 64)
        assert field.residual <= 1e-10
        assert field.iterations == 0

    def test_degenerate_domain_rejected(self):
        # rho touches zero at theta = 0 in both cases; construction refuses,
        # so no solve can ever see the pinched domain.
        with pytest.raises(ValueError):
            StarDomain(1.0, (-1.0,), ())
        with pytest.raises(ValueError):
            StarDomain(1.0, (-0.5, -0.5))

    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch):
        ball = StarDomain.ball(1.0)
        system = assemble(build_grid(EUCLID, ball, 8, 16))
        monkeypatch.setattr(discretization, "SOLVER_TOL", 1e-30)
        with pytest.raises(SolverConvergenceError) as info:
            solve(system)
        err = info.value
        assert err.residual > 1e-30
        assert str(err) == (f"LU solve reached relative residual "
                            f"{err.residual:.3e}, above the bound 1.0e-30")

    @pytest.mark.parametrize("domain", [
        StarDomain.ball(1.0),                       # disk factorization
        StarDomain(1.0, (0.05,), (0.0, 0.1)),      # SuperLU
    ], ids=["disk", "splu"])
    def test_bad_factor_is_caught_by_one_back_solve(self, monkeypatch, domain):
        # Factor a scaled copy 1.25 A instead of A: the back-solve then
        # leaves a residual of about 1/5, which the check must report
        # after exactly one solve on the factor.
        solves = []
        exact_disk = discretization._DiskFactor
        exact_splu = scipy.sparse.linalg.splu

        class Counted:
            def __init__(self, factor):
                self._factor = factor

            def solve(self, rhs):
                solves.append(rhs)
                return self._factor.solve(rhs)

        monkeypatch.setattr(discretization, "_DiskFactor",
                            lambda A, nt: Counted(exact_disk(1.25 * A, nt)))
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda A, **kw: Counted(exact_splu(1.25 * A, **kw)))
        system = assemble(build_grid(EUCLID, domain, 8, 16))
        with pytest.raises(SolverConvergenceError) as info:
            solve(system)
        assert info.value.residual > 1e-10
        assert len(solves) == 1

    @pytest.mark.parametrize("grid", [(8, 16), (16, 32)], ids=["8x16", "16x32"])
    @pytest.mark.parametrize("domain", [
        StarDomain.ball(1e-300),                    # disk factorization
        StarDomain(1e-300, (0.0, 0.1)),             # SuperLU
    ], ids=["disk", "splu"])
    def test_singular_factor_raises_nonconvergence(self, domain, grid):
        # At R0 = 1e-300 the metric factors over- and underflow, and
        # assembly finds the stencil weights non-finite before any factor.
        with pytest.raises(SolverConvergenceError) as info:
            solve_torsion(EUCLID, domain, *grid)
        assert info.value.residual == math.inf
        assert "singular" in str(info.value)

    def test_singular_splu_raises_nonconvergence(self, monkeypatch):
        def singular(A, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        with pytest.raises(SolverConvergenceError,
                           match="^Factor is exactly singular$") as info:
            solve_torsion(EUCLID, StarDomain(1.0, (0.05,), (0.0, 0.1)), 8, 16)
        assert info.value.residual == math.inf

    def test_singular_disk_factor_raises_nonconvergence(self, monkeypatch):
        # dgttrf reports a zero pivot through info > 0, not by raising.
        exact = scipy.linalg.lapack.dgttrf

        def singular(*args):
            *factor, info = exact(*args)
            return (*factor, 5)

        monkeypatch.setattr(scipy.linalg.lapack, "dgttrf", singular)
        with pytest.raises(SolverConvergenceError,
                           match="^disk factor is singular in row 5$") as info:
            solve_torsion(EUCLID, StarDomain.ball(1.0), 8, 16)
        assert info.value.residual == math.inf

    @pytest.mark.parametrize("domain", [
        StarDomain.ball(1.0),                       # disk factorization
        StarDomain(1.0, (0.05,), (0.0, 0.1)),      # SuperLU
    ], ids=["disk", "splu"])
    def test_nan_back_solve_raises_nonconvergence(self, monkeypatch, domain):
        # A factor that completes but back-solves to NaN leaves a NaN
        # residual, which must not pass the residual check.
        exact_disk = discretization._DiskFactor
        exact_splu = scipy.sparse.linalg.splu

        class NaNSolve:
            def __init__(self, factor):
                self._factor = factor

            def solve(self, rhs):
                return np.full_like(self._factor.solve(rhs), np.nan)

        monkeypatch.setattr(discretization, "_DiskFactor",
                            lambda A, nt: NaNSolve(exact_disk(A, nt)))
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda A, **kw: NaNSolve(exact_splu(A, **kw)))
        system = assemble(build_grid(EUCLID, domain, 8, 16))
        with pytest.raises(SolverConvergenceError) as info:
            solve(system)
        assert math.isnan(info.value.residual)

    def test_maximum_principle(self):
        for profile, domain in ((SPHERE, FLOWER),
                                (EUCLID, StarDomain.ball(1.0)),
                                (HYPER, StarDomain(1.0, (0.05,), (0.0, 0.1)))):
            field = solve_torsion(profile, domain, 24, 48)
            assert np.max(field.values) <= 1e-12

    def test_mesh_convergence_second_order(self):
        for profile, R in ((SPHERE, math.pi / 4), (HYPER, 1.0)):
            errors = []
            for ns, nt in ((16, 32), (32, 64), (64, 128)):
                field = solve_torsion(profile, StarDomain.ball(R), ns, nt)
                exact = profile.H(field.grid.r) - profile.H(R)
                errors.append(float(np.max(np.abs(field.values - exact))))
            orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
            assert all(1.5 <= order <= 2.5 for order in orders), (profile.kind, orders)

    def test_fine_ball_has_no_performance_cliff(self):
        # A 256x512 spherical ball took 98 s in the former Krylov path and
        # about 2 s under sparse LU; the disk factorization takes about 10 ms.
        R = math.pi / 4
        errors = []
        for ns in (128, 256):
            field = solve_torsion(SPHERE, StarDomain.ball(R), ns, 2 * ns)
            assert field.residual <= 1e-10
            assert field.iterations == 0
            exact = SPHERE.H(field.grid.r) - SPHERE.H(R)
            errors.append(float(np.max(np.abs(field.values - exact))))
        assert 1.5 <= math.log2(errors[0] / errors[1]) <= 2.5

    @pytest.mark.parametrize("domain", [FLOWER, StarDomain.ball(0.8)],
                             ids=["flower", "ball"])
    def test_solve_keeps_one_copy_of_the_operator(self, domain):
        # The system arrives equilibrated, so solve factors it as it stands:
        # its traced peak stays near the matrix's own bytes (2.15 and 2.51
        # times them when solve scaled a copy, 1.01 and 1.25 without).
        system = assemble(build_grid(SPHERE, domain, 64, 128))
        solve(system)                   # imports and first-call caches
        matrix = system.matrix
        nbytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        tracemalloc.start()
        try:
            solve(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * nbytes

    def test_theta_translation_equivariance(self):
        k, nt = 12, 96
        phase = 2.0 * math.pi * k / nt
        base = solve_torsion(SPHERE, FLOWER, 48, nt)
        rotated = solve_torsion(SPHERE, FLOWER.rotated(phase), 48, nt)
        shift = np.roll(base.values, -k, axis=1)
        assert np.max(np.abs(rotated.values - shift)) < 1e-8


class TestDiskFactor:
    GEOMETRIES = ((EUCLID, 1.0), (SPHERE, math.pi / 4), (HYPER, 1.0))

    @pytest.mark.parametrize("ns,nt", [(8, 16), (64, 128)])
    def test_matches_sparse_lu(self, ns, nt):
        for profile, R in self.GEOMETRIES:
            ball = StarDomain.ball(R)
            system = assemble(build_grid(profile, ball, ns, nt))
            A, b = system.matrix, system.rhs
            got = discretization._DiskFactor(A, nt).solve(b)
            lu = scipy.sparse.linalg.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
            want = lu.solve(b)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), profile.kind

    @pytest.mark.parametrize("ns,nt", [(16, 32), (64, 128)])
    @pytest.mark.parametrize("domain", [
        StarDomain.ball(1.0),                       # disk factorization
        StarDomain(1.0, (0.05,), (0.0, 0.1)),      # SuperLU
    ], ids=["disk", "splu"])
    def test_multi_column_back_solve_is_column_by_column(self, domain, ns, nt):
        field = solve_torsion(SPHERE, domain, ns, nt)
        rhs = np.random.default_rng(7).standard_normal((field.grid.size, 5))
        got = field.back_solve(rhs)
        assert got.shape == rhs.shape
        want = np.stack([field.back_solve(column) for column in rhs.T], axis=1)
        assert np.array_equal(got, want)

    def test_selected_for_disks_only(self, monkeypatch):
        calls = {"disk": 0, "splu": 0}
        exact_disk = discretization._DiskFactor
        exact_splu = scipy.sparse.linalg.splu

        def disk(*args):
            calls["disk"] += 1
            return exact_disk(*args)

        def lu(*args, **kw):
            calls["splu"] += 1
            return exact_splu(*args, **kw)

        monkeypatch.setattr(discretization, "_DiskFactor", disk)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", lu)
        for domain, want in ((StarDomain.ball(1.0), {"disk": 1, "splu": 0}),
                             (StarDomain(1.0, (0.0,), ()), {"disk": 2, "splu": 0}),
                             (StarDomain(1.0, (0.0, 1e-9)), {"disk": 2, "splu": 1})):
            solve_torsion(EUCLID, domain, 8, 16)
            assert calls == want, domain

    @pytest.mark.parametrize("kind,r_max,R", [
        ("euclidean", 50.0, 0.999 * 50.0),
        ("spherical", math.pi / 2, 0.999 * math.pi / 2),
        ("hyperbolic", 50.0, 5.0),
        ("euclidean", 50.0, 0.01),
        ("spherical", math.pi / 2, 0.01),
        ("hyperbolic", 50.0, 0.01),
    ])
    def test_fine_balls_at_radius_edges(self, kind, r_max, R):
        profile = make_profile(kind)
        assert profile.r_max == r_max
        field = solve_torsion(profile, StarDomain.ball(R), 256, 512)
        assert field.residual <= 1e-10
        assert field.iterations == 0

    def test_equilibration_matches_diagonal_scaling(self):
        domain = StarDomain(0.8, (0.05, 0.1), (0.0, 0.05))
        grid = build_grid(SPHERE, domain, 16, 32)
        system = assemble(grid)
        unscaled = reference_assembly(grid)
        row_max = np.abs(unscaled).max(axis=1).toarray().ravel()
        scale = sp.diags(1.0 / row_max)
        want_A = (scale @ unscaled).tocsr()
        np.testing.assert_array_equal(system.matrix.toarray(), want_A.toarray())
        np.testing.assert_array_equal(system.rhs, scale @ (2 * grid.h_dot).ravel())


class TestGradientField:
    def test_injected_radial_solution_gradient(self):
        # Closed-form torsion values on the grid: u_r must reproduce h.
        grid = build_grid(SPHERE, StarDomain.ball(math.pi / 4), 64, 128)
        u = SPHERE.H(grid.r) - SPHERE.H(math.pi / 4)
        g = gradient_field(DiscreteField(values=u, grid=grid))
        assert np.max(np.abs(g.u_r - SPHERE.h(grid.r))) < 1e-4
        assert np.max(np.abs(g.u_tan)) == 0.0

    def test_euclidean_quadratic_is_differentiated_exactly(self):
        grid = build_grid(EUCLID, StarDomain.ball(1.0), 32, 64)
        u = 0.5 * (grid.r ** 2 - 1.0)
        g = gradient_field(DiscreteField(values=u, grid=grid))
        assert np.max(np.abs(g.u_r - grid.r)) < 1e-12
        assert np.max(np.abs(g.hess_rr - 1.0)) < 1e-10
        assert np.max(np.abs(g.hess_tt - 1.0)) < 1e-10
        assert np.max(np.abs(g.laplacian - 2.0)) < 1e-10

    def test_radial_hessian_entries_near_r04(self):
        grid = build_grid(SPHERE, StarDomain.ball(math.pi / 4), 64, 128)
        u = SPHERE.H(grid.r) - SPHERE.H(math.pi / 4)
        g = gradient_field(DiscreteField(values=u, grid=grid))
        j = int(np.argmin(np.abs(grid.r[:, 0] - 0.4)))
        r_node = grid.r[j, 0]
        assert abs(g.hess_rr[j, 0] - math.cos(0.4)) < 1e-3
        assert abs(g.hess_tt[j, 0] - math.cos(0.4)) < 1e-3
        assert abs(g.hess_rr[j, 0] - math.cos(r_node)) < 1e-4
        assert abs(g.hess_tt[j, 0] - math.cos(r_node)) < 1e-4
        assert abs(g.hess_rt[j, 0]) < 1e-12

    @pytest.mark.parametrize("ns,nt,bound", [(64, 128, 2e-3), (128, 256, 5e-4)])
    def test_manufactured_field_derivatives(self, ns, nt, bound):
        # v = sin(r) cos(theta) on the spherical cap: all analytic derivative
        # fields are available, so every output of the FD kernel is checked.
        # The pole neighborhood is excluded: 1/h^2 amplification there costs
        # one order for pointwise Hessians (integrals never see this, the
        # volume form vanishes at the pole).  Outer ring excluded: the ghost
        # assumes Dirichlet data, which v does not satisfy.
        grid = build_grid(SPHERE, StarDomain.ball(1.2), ns, nt)
        r, t = grid.r, grid.theta[None, :]
        v = np.sin(r) * np.cos(t)
        g = gradient_field(DiscreteField(values=v, grid=grid))
        mask = (r >= 0.15) & (np.arange(ns)[:, None] < ns - 1)

        def err(got, want):
            return float(np.max(np.abs(got - want)[mask]))

        assert err(g.u_r, np.cos(r) * np.cos(t)) < bound
        assert err(g.u_tan, -np.sin(t) * np.ones_like(r)) < bound
        assert err(g.hess_rr, -np.sin(r) * np.cos(t)) < bound
        assert err(g.hess_rt, 0.0 * r) < bound
        assert err(g.hess_tt, -np.sin(r) * np.cos(t)) < bound

    def test_scalar_gradient_matches_solution_gradient_off_the_ghost(self):
        # The two differ only in the outer ghost, which ring ns - 1 reads.
        field = solve_torsion(SPHERE, FLOWER, 16, 48)
        g = gradient_field(field)
        w_r, w_tan = scalar_gradient(field, field.values)
        np.testing.assert_array_equal(w_r[:-1], g.u_r[:-1])
        np.testing.assert_array_equal(w_tan[:-1], g.u_tan[:-1])


class TestNeumannTrace:
    def test_euclidean_disk_constant_trace(self):
        field = solve_torsion(EUCLID, StarDomain.ball(1.0), 128, 256)
        trace, weights = neumann_trace(field)
        assert np.max(np.abs(trace - 1.0)) < 1e-3
        assert np.sum(weights) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_spherical_cap_constant_trace(self):
        field = solve_torsion(SPHERE, StarDomain.ball(math.pi / 4), 128, 256)
        trace, weights = neumann_trace(field)
        assert np.max(np.abs(trace - 0.7071067811865476)) < 1e-3
        assert np.sum(weights) == pytest.approx(
            2 * math.pi * math.sin(math.pi / 4), rel=1e-12)

    def test_offset_spherical_domain_nonconstant(self):
        dom = StarDomain.from_function(
            offset_disk_function(math.pi / 4, 0.2), modes=8)
        field = solve_torsion(SPHERE, dom, 64, 128)
        trace, _ = neumann_trace(field)
        spread = (np.max(trace) - np.min(trace)) / np.mean(trace)
        assert spread > 0.05

    def test_offset_euclidean_disk_constant(self):
        # Flat counterpoint: the same off-center shape keeps a constant trace.
        dom = StarDomain.from_function(offset_disk_function(1.0, 0.2), modes=8)
        field = solve_torsion(EUCLID, dom, 64, 128)
        trace, _ = neumann_trace(field)
        spread = (np.max(trace) - np.min(trace)) / np.mean(trace)
        assert spread < 1e-3


class TestFloatOnlyProfile:
    """A custom profile built on ``math`` functions, which take floats only."""

    SINE = custom_profile(math.sin, math.cos, lambda r: -math.sin(r), math.pi / 2)

    @pytest.mark.parametrize("domain", [StarDomain.ball(0.7),
                                        StarDomain(0.7, (0.0, 0.1), (0.0, 0.05))],
                             ids=["ball", "flower"])
    def test_solves_as_the_spherical_profile(self, domain):
        field = solve_torsion(self.SINE, domain, 16, 32)
        want = solve_torsion(SPHERE, domain, 16, 32)
        assert np.allclose(field.values, want.values, rtol=1e-14, atol=0.0)
        for got, ref in zip(neumann_trace_jacobian(field),
                            neumann_trace_jacobian(want)):
            assert got.shape == (1 + 2 * domain.modes, 32)
            assert np.allclose(got, ref, rtol=0.0, atol=1e-14 * np.max(np.abs(ref)))


class TestIntegrate:
    def test_flat_disk_area(self):
        field = solve_torsion(EUCLID, StarDomain.ball(1.0), 64, 128)
        assert integrate(np.ones_like(field.values), field) \
            == pytest.approx(math.pi, abs=1e-3)

    def test_spherical_weighted_integral(self):
        field = solve_torsion(SPHERE, StarDomain.ball(math.pi / 4), 64, 128)
        got = integrate(SPHERE.h_dot(field.grid.r), field)
        assert got == pytest.approx(1.5707963267948966, abs=1e-3)

    def test_spherical_cap_area(self):
        field = solve_torsion(SPHERE, StarDomain.ball(math.pi / 4), 64, 128)
        want = 2 * math.pi * (1 - math.cos(math.pi / 4))
        assert integrate(np.ones_like(field.values), field) \
            == pytest.approx(want, abs=1e-3)
        assert want == pytest.approx(1.8403023690212203, abs=1e-12)
