"""Shape-objective experiments: rigidity contrast, sweeps, Gauss-Newton descent.

The floor values (1e-20 and below) reflect a measured property of the
scheme: on any domain whose discrete trace is theta-independent the
objective J collapses to rounding noise at every resolution, so balls sit
many orders below the truncation scale of non-round shapes.  The exact
shape Jacobian is checked against central differences on star domains and
against the closed form sigma_k on geodesic balls.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.optimize

import torsionlab.rigidity as rigidity
from torsionlab import (
    NoFeasibleShapeError,
    SolverConvergenceError,
    StarDomain,
    ball_family,
    ball_sigma,
    custom_profile,
    make_profile,
    neumann_deviation,
    neumann_trace,
    neumann_trace_jacobian,
    offset_disk,
    offset_family,
    optimize_shape,
    solve_torsion,
    sweep,
)

EUCLID = make_profile("euclidean")
SPHERE = make_profile("spherical")
HYPER = make_profile("hyperbolic")

OFFSETS = (0.0, 0.05, 0.1, 0.2)
PROFILES = {"euclidean": EUCLID, "spherical": SPHERE, "hyperbolic": HYPER}
BALL_RADIUS = {"euclidean": 1.0, "spherical": math.pi / 4, "hyperbolic": 0.8}


def roundness_of(domain):
    rho = domain.rho(np.linspace(0.0, 2 * math.pi, 512, endpoint=False))
    return (np.max(rho) - np.min(rho)) / np.mean(rho)


def spherical_offset_domain(R, d):
    return StarDomain.from_function(
        lambda t: d * math.cos(t) + math.sqrt(R * R - d * d * math.sin(t) ** 2),
        modes=24,
    )


class TestNeumannDeviation:
    def test_spherical_ball_at_floor(self):
        obj = neumann_deviation(StarDomain.ball(math.pi / 4), SPHERE, 128, 256)
        assert obj.j < 1e-6
        assert obj.c_mean == pytest.approx(math.sin(math.pi / 4), abs=1e-3)

    def test_euclidean_offset_disk_at_floor(self):
        obj = neumann_deviation(offset_disk(1.0, 0.2), EUCLID, 128, 256)
        assert obj.j < 1e-5

    def test_sphere_euclid_contrast(self):
        # Same off-center shape, matched resolution: two-lane outcome.
        j_sphere = neumann_deviation(
            spherical_offset_domain(math.pi / 4, 0.2), SPHERE, 64, 128).j
        j_euclid = neumann_deviation(offset_disk(1.0, 0.2), EUCLID, 64, 128).j
        assert j_sphere > 100.0 * max(j_euclid, 1e-12)

    def test_objective_statistics_consistent(self):
        obj = neumann_deviation(StarDomain(0.8, (0.0, 0.0, 0.15)), SPHERE, 32, 64)
        assert obj.j >= 0.0
        assert obj.c_std == pytest.approx(math.sqrt(obj.j) * abs(obj.c_mean),
                                          rel=1e-12)

    def test_residuals_square_to_j(self):
        obj = neumann_deviation(StarDomain(0.8, (0.1,), (0.0, 0.05)), SPHERE, 32, 64)
        assert obj.residuals.shape == (64,)
        assert float(np.sum(obj.residuals ** 2)) == pytest.approx(obj.j, rel=1e-12)

    def test_rotation_invariance(self):
        dom = StarDomain(0.8, (0.1,), (0.0, 0.05))
        j0 = neumann_deviation(dom, SPHERE, 48, 96).j
        for phase in (2.0 * math.pi * 8 / 96, 0.3, 1.234567):
            j_rot = neumann_deviation(dom.rotated(phase), SPHERE, 48, 96).j
            assert abs(j_rot - j0) / j0 < 1e-9

    def test_refinement_stability(self):
        dom = spherical_offset_domain(math.pi / 4, 0.2)
        j_coarse = neumann_deviation(dom, SPHERE, 64, 128).j
        j_fine = neumann_deviation(dom, SPHERE, 128, 256).j
        assert abs(j_fine - j_coarse) / j_fine < 1e-2

    def test_ball_floor_survives_refinement(self):
        values = [neumann_deviation(StarDomain.ball(math.pi / 4), SPHERE,
                                    ns, 2 * ns).j
                  for ns in (32, 64, 128)]
        assert all(v < 1e-20 for v in values)


class TestOffsetDisk:
    def test_matches_exact_boundary_radius(self):
        dom = offset_disk(1.0, 0.3)
        t = np.linspace(0.0, 2 * math.pi, 200)
        exact = 0.3 * np.cos(t) + np.sqrt(1.0 - 0.09 * np.sin(t) ** 2)
        np.testing.assert_allclose(dom.rho(t), exact, atol=1e-12)

    def test_zero_offset_is_ball(self):
        dom = offset_disk(0.75, 0.0)
        assert dom.modes == 0
        assert dom.r0 == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            offset_disk(1.0, -0.1)
        with pytest.raises(ValueError):
            offset_disk(1.0, 1.0)

    def test_families(self):
        fam = offset_family(1.0, (0.0, 0.1))
        assert [p for p, _ in fam] == [0.0, 0.1]
        assert all(isinstance(d, StarDomain) for _, d in fam)
        balls = ball_family((0.5, 1.0))
        assert balls[1][1].r0 == 1.0


class TestSweep:
    def test_spherical_offsets_strictly_increasing(self):
        rows = sweep(offset_family(math.pi / 4, OFFSETS), SPHERE, 64, 128)
        assert [row.parameter for row in rows] == list(OFFSETS)
        assert all(row.status == "ok" for row in rows)
        js = [row.j for row in rows]
        assert all(js[k] < js[k + 1] for k in range(3))

    def test_euclidean_offsets_at_floor(self):
        rows = sweep(offset_family(1.0, OFFSETS), EUCLID, 64, 128)
        assert max(row.j for row in rows) < 1e-5

    def test_hyperbolic_balls_at_floor(self):
        rows = sweep(ball_family((0.5, 1.0)), HYPER, 64, 128)
        assert all(row.j < 1e-6 for row in rows)
        assert all(row.status == "ok" for row in rows)

    def test_grid_size_is_an_argument_error(self):
        for ns, ntheta in ((4, 32), (16, 33)):
            with pytest.raises(ValueError, match="ns must|ntheta must"):
                sweep(ball_family([0.3]), SPHERE, ns, ntheta)

    def test_failures_recorded_and_sweep_continues(self):
        family = [(0.4, StarDomain.ball(0.4)),
                  (1.6, StarDomain.ball(1.6)),      # exceeds the hemisphere
                  (0.6, StarDomain.ball(0.6))]
        rows = sweep(family, SPHERE, 16, 32)
        assert rows[0].status == "ok"
        assert rows[1].status.startswith("failed:")
        assert math.isnan(rows[1].j)
        assert rows[2].status == "ok"


class TestOptimizeShape:
    def test_stationary_ball_start(self):
        trace = optimize_shape(StarDomain.ball(math.pi / 4), 1, SPHERE,
                               budget=200, ns=32, ntheta=64)
        assert trace.status == "target reached"
        assert trace.converged
        assert trace.evaluations <= 10
        assert trace.best_j < 1e-7

    def test_spherical_perturbed_start_recovers_ball(self):
        trace = optimize_shape(StarDomain(math.pi / 4, (0.0, 0.1)), 2, SPHERE,
                               budget=200, ns=32, ntheta=64)
        assert trace.best_j < 1e-5
        rho = trace.best_domain.rho(
            np.linspace(0.0, 2 * math.pi, 512, endpoint=False))
        roundness = (np.max(rho) - np.min(rho)) / np.mean(rho)
        assert roundness < 0.02

    def test_euclidean_cos_start_reaches_floor(self):
        # Flat lane: constant-trace shapes are plentiful (any disk), so the
        # search drops to the target almost immediately.
        trace = optimize_shape(StarDomain(1.0, (0.1,)), 1, EUCLID,
                               budget=200, ns=32, ntheta=64)
        assert trace.status == "target reached"
        assert trace.best_j < 1e-5

    def test_trace_monotone_and_consistent(self):
        trace = optimize_shape(StarDomain(math.pi / 4, (0.0, 0.1)), 2, SPHERE,
                               budget=200, ns=16, ntheta=32)
        js = [row.j for row in trace.rows]
        assert all(js[k + 1] <= js[k] for k in range(len(js) - 1))
        evals = [row.evaluations for row in trace.rows]
        assert all(evals[k + 1] >= evals[k] for k in range(len(evals) - 1))
        assert trace.best_j == js[-1]
        assert all(row.spread >= 0.0 for row in trace.rows)

    def test_budget_exhaustion_returns_best(self, monkeypatch):
        # After two solved shapes every trial shape fails to solve.  trf
        # answers a non-finite trial by shrinking its trust region without
        # testing its tolerances, so only the budget ends the run.
        deviation = rigidity.neumann_deviation
        calls = []

        def solvable_twice(*args, **kwargs):
            calls.append(args[0])
            if len(calls) > 2:
                raise SolverConvergenceError("unsolvable trial shape", math.inf)
            return deviation(*args, **kwargs)

        monkeypatch.setattr(rigidity, "neumann_deviation", solvable_twice)
        monkeypatch.setattr(rigidity, "TARGET_J", 0.0)
        trace = optimize_shape(StarDomain(math.pi / 4, (0.0, 0.1)), 8, SPHERE,
                               budget=50, ns=16, ntheta=32)
        assert trace.best_j == trace.rows[-1].j < trace.rows[0].j
        assert not trace.converged
        assert trace.status == "budget exhausted"
        assert trace.evaluations <= 50
        assert math.isfinite(trace.best_j)
        assert isinstance(trace.best_domain, StarDomain)

    def test_parameter_validation(self):
        ball = StarDomain.ball(0.5)
        with pytest.raises(ValueError):
            optimize_shape(ball, 0, SPHERE, budget=100, ns=16, ntheta=32)
        with pytest.raises(ValueError):
            optimize_shape(ball, 17, SPHERE, budget=100, ns=16, ntheta=32)
        with pytest.raises(ValueError):
            optimize_shape(ball, 2, SPHERE, budget=0, ns=16, ntheta=32)
        with pytest.raises(ValueError, match="harmonic above modes"):
            optimize_shape(StarDomain(0.5, (0.0, 0.0, 0.1)), 1, SPHERE,
                           budget=100, ns=16, ntheta=32)
        # A grid size is checked before any solve, so it is not reported as
        # an infeasible start.
        for ns, ntheta in ((4, 32), (16, 33)):
            with pytest.raises(ValueError, match="ns must|ntheta must"):
                optimize_shape(StarDomain(0.5, (0.0, 0.1)), 2, SPHERE,
                               budget=50, ns=ns, ntheta=ntheta)

    def test_jacobian_away_from_the_last_solved_shape_is_refused(self,
                                                                 monkeypatch):
        # trf asks for a Jacobian only at the shape it has just accepted;
        # a solver that asked elsewhere would break that, not cost a solve.
        def fake_least_squares(fun, x0, jac, **kwargs):
            fun(x0)
            jac(x0 + 0.01)

        monkeypatch.setattr(scipy.optimize, "least_squares", fake_least_squares)
        with pytest.raises(RuntimeError, match="last solved shape"):
            optimize_shape(StarDomain(math.pi / 4, (0.0, 0.1)), 2, SPHERE,
                           budget=50, ns=16, ntheta=32)

    def test_infeasible_start_is_not_an_argument_error(self):
        # The start reaches past the equator, so its solve fails before the
        # descent can take a step: a run outcome, not a bad value.
        start = StarDomain(1.6, (0.0, 0.1))
        with pytest.raises(NoFeasibleShapeError):
            optimize_shape(start, 2, SPHERE, budget=50, ns=16, ntheta=32)

    def test_rotation_gauge_fixed(self):
        # A start with b1 != 0 is rotated by atan2(b1, a1), which takes its
        # first harmonic into the cosine term, and b1 stays pinned at 0.
        initial = StarDomain(math.pi / 4, (0.03, 0.02), (0.04, 0.08))
        trace = optimize_shape(initial, 2, SPHERE, budget=120, ns=16, ntheta=32)
        rotated = initial.rotated(math.atan2(0.04, 0.03))
        first = trace.rows[0]
        assert first.cos_coeffs == rotated.cos_coeffs
        assert first.sin_coeffs[1:] == rotated.sin_coeffs[1:]
        assert first.cos_coeffs[0] == pytest.approx(0.05, rel=1e-12)
        assert all(row.sin_coeffs[0] == 0.0 for row in trace.rows)
        assert math.isfinite(trace.best_j)

    @pytest.mark.parametrize("signs", itertools.product((-1.0, 1.0), repeat=3),
                             ids=lambda signs: "".join("+-"[s < 0] for s in signs))
    def test_octant_starts_recover_the_pole_cap(self, signs):
        a1, a2, b2 = (0.05 * s for s in signs)
        start = StarDomain(math.pi / 4, (a1, a2), (0.0, b2))
        trace = optimize_shape(start, 2, SPHERE, budget=400, ns=16, ntheta=32)
        assert trace.status == "target reached"
        assert roundness_of(trace.best_domain) < 0.02
        assert trace.evaluations <= 20
        assert all(row.r0 == start.r0 for row in trace.rows)
        assert all(row.sin_coeffs[0] == 0.0 for row in trace.rows)

    def test_every_evaluation_is_one_neumann_deviation_call(self, monkeypatch):
        calls = []
        deviation = rigidity.neumann_deviation

        def counted(*args, **kwargs):
            calls.append(args[0])
            return deviation(*args, **kwargs)

        monkeypatch.setattr(rigidity, "neumann_deviation", counted)
        monkeypatch.setattr(rigidity, "TARGET_J", 0.0)
        trace = optimize_shape(StarDomain(1.5, (0.0, 0.04)), 8, SPHERE,
                               budget=50, ns=16, ntheta=32)
        assert trace.evaluations == len(calls)
        assert trace.evaluations <= 50

    def test_start_near_the_hemisphere_bound(self):
        start = StarDomain(1.5, (0.0, 0.04))
        trace = optimize_shape(start, 2, SPHERE, budget=200, ns=16, ntheta=32)
        assert math.isfinite(trace.best_j)
        assert trace.status == "target reached"
        assert trace.evaluations <= 20
        assert trace.best_domain.r0 == start.r0

    def test_start_within_a_difference_step_of_the_bound(self):
        # The start reaches within 1e-9 of r_max.  The exact Jacobian needs
        # no shape beyond the start, so the descent is as from any start
        # (2 evaluations measured).
        start = StarDomain((math.pi / 2 - 1e-9) / 1.04, (0.0, 0.04))
        trace = optimize_shape(start, 2, SPHERE, budget=50, ns=16, ntheta=32)
        assert trace.status == "target reached"
        assert math.isfinite(trace.best_j)
        assert trace.best_j < 1e-7
        assert trace.evaluations <= 4

    def test_every_row_after_the_first_is_a_step(self):
        # Rows are written only at shapes trf chose, so no row is a probe
        # about 1.5e-8 from an iterate.  Measured: one row after the start,
        # with spread 0.1.
        trace = optimize_shape(StarDomain(math.pi / 4, (0.0, 0.1)), 2, SPHERE,
                               budget=200, ns=16, ntheta=32)
        assert len(trace.rows) >= 2
        assert all(row.spread > 1e-3 for row in trace.rows[1:])


def residual_parameters(domain):
    """(r0, a_1..a_K, b_1..b_K) of a domain, K = its modes."""
    a = np.zeros(domain.modes)
    b = np.zeros(domain.modes)
    a[:len(domain.cos_coeffs)] = domain.cos_coeffs
    b[:len(domain.sin_coeffs)] = domain.sin_coeffs
    return np.concatenate([[domain.r0], a, b])


def domain_of(p, modes):
    return StarDomain(p[0], tuple(p[1:modes + 1]), tuple(p[modes + 1:]))


class TestShapeJacobian:
    @pytest.mark.parametrize("ns", (16, 32))
    @pytest.mark.parametrize("geometry", PROFILES)
    def test_matches_central_differences(self, geometry, ns):
        # Step 1e-5: measured agreement 2e-10 to 4.4e-10 of max |J| (a step
        # of 1e-4 reads 2e-8, so this is the differences' own error).
        profile = PROFILES[geometry]
        domain = StarDomain(BALL_RADIUS[geometry], (0.05, -0.06), (0.03, 0.04))
        jac = neumann_deviation(domain, profile, ns, 2 * ns).jacobian()
        p = residual_parameters(domain)
        assert jac.shape == (2 * ns, p.size)
        step = 1e-5
        central = np.empty_like(jac)
        for column in range(p.size):
            e = np.zeros_like(p)
            e[column] = step
            up, down = (neumann_deviation(domain_of(p + sign * e, domain.modes),
                                          profile, ns, 2 * ns).residuals
                        for sign in (1.0, -1.0))
            central[:, column] = (up - down) / (2.0 * step)
        assert np.max(np.abs(jac - central)) < 2e-9 * np.max(np.abs(jac))

    @pytest.mark.parametrize("coefficients", [((0.05, -0.06), (0.03, 0.04)),
                                              ((0.0, 0.0), (0.0, 0.0))],
                             ids=["star", "disk"])
    @pytest.mark.parametrize("geometry", PROFILES)
    def test_kept_columns_are_the_full_columns(self, geometry, coefficients):
        # The descent asks only for (a_1, a_2, b_2); the r0 and b_1 columns
        # are never formed, and the kept ones do not move by a bit.
        obj = neumann_deviation(StarDomain(BALL_RADIUS[geometry], *coefficients),
                                PROFILES[geometry], 16, 32)
        columns = np.r_[1:3, 4:5]
        kept = obj.jacobian(columns)
        assert kept.shape == (32, 3)
        assert np.array_equal(kept, obj.jacobian()[:, columns])

    def test_ball_sigma_closed_form(self):
        assert ball_sigma(EUCLID, 2.0, 1) == 0.0
        assert ball_sigma(EUCLID, 2.0, 3) == -1.0
        assert ball_sigma(SPHERE, 1.2, 3) == pytest.approx(
            (math.cos(1.2) - 3.0) / math.sin(1.2), rel=1e-15)
        assert ball_sigma(HYPER, math.acosh(2.0), 2) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ValueError):
            ball_sigma(SPHERE, math.pi / 2, 1)

    @pytest.mark.parametrize("geometry", PROFILES)
    def test_ball_jacobian_is_sigma(self, geometry):
        # dr_i/da_k = sqrt(w_i / W) r0 sigma_k cos(k theta_i), sin for b_k,
        # and the r0 column vanishes: a ball stays a ball.  Measured relative
        # error at ns = 32/64/128: 1.2e-3, 2.9e-4, 7.4e-5 at most (order 2).
        profile, r0, modes = PROFILES[geometry], BALL_RADIUS[geometry], 3
        k = np.arange(1, modes + 1)
        sigma = np.array([ball_sigma(profile, r0, kk) for kk in k])
        errors = []
        for ns in (32, 64, 128):
            obj = neumann_deviation(StarDomain(r0, (0.0,) * modes, (0.0,) * modes),
                                    profile, ns, 2 * ns)
            jac = obj.jacobian()
            _, weights = neumann_trace(obj.field)
            angles = np.outer(k, obj.field.grid.theta)
            scale = np.sqrt(weights / np.sum(weights)) * r0
            want = scale[:, None] * np.concatenate(
                [sigma[:, None] * np.cos(angles), sigma[:, None] * np.sin(angles)]).T
            assert np.max(np.abs(jac[:, 0])) < 1e-15
            errors.append(np.max(np.abs(jac[:, 1:] - want)) / np.max(np.abs(want)))
        assert errors[1] < errors[0] / 3.0 and errors[2] < errors[1] / 3.0, errors
        assert errors[2] < 1e-4, errors

    def test_ball_jacobian_is_sigma_on_a_custom_profile(self):
        # h = r + 0.3 r^3 (r_max = 2), through np.vectorize: the a_k columns
        # are sqrt(1 / Ntheta) r0 sigma_k cos(k theta), with the largest
        # relative error measured 8.6e-4, 2.1e-4 and 5.3e-5 at ns = 32/64/128.
        profile = custom_profile(lambda r: r + 0.3 * r ** 3,
                                 lambda r: 1.0 + 0.9 * r ** 2,
                                 lambda r: 1.8 * r, 2.0)
        r0, k = 0.8, np.arange(1, 4)
        sigma = np.array([ball_sigma(profile, r0, kk) for kk in k])
        for ns, bound in ((32, 1.2e-3), (64, 3e-4), (128, 8e-5)):
            obj = neumann_deviation(StarDomain(r0, (0.0,) * 3, (0.0,) * 3),
                                    profile, ns, 2 * ns)
            jac = obj.jacobian()
            want = (math.sqrt(1.0 / (2 * ns)) * r0 * sigma[:, None]
                    * np.cos(np.outer(k, obj.field.grid.theta))).T
            assert np.max(np.abs(jac[:, 0])) < 1e-15
            error = np.max(np.abs(jac[:, 1:4] - want)) / np.max(np.abs(want))
            assert error < bound, (ns, error)

    # (geometry, r0, k, predicted J at a_k = 1e-3 to 5 digits)
    SECOND_VARIATION = (
        ("euclidean", 1.0, 2, 5.0000e-7),
        ("euclidean", 1.0, 3, 2.0000e-6),
        ("spherical", math.pi / 4, 1, 5.2917e-8),
        ("spherical", 1.2, 3, 5.7663e-6),
        ("hyperbolic", 0.8, 2, 1.7811e-7),
    )

    @pytest.mark.parametrize("geometry,r0,k,table", SECOND_VARIATION,
                             ids=lambda v: str(v))
    def test_ball_j_is_the_second_variation(self, geometry, r0, k, table):
        # J = r0^2 (a_k^2 + b_k^2) sigma_k^2 / 2 up to a relative O(a_k^2)
        # (J is even in a_k: a rotation by pi/k flips its sign).  Measured
        # relative error at ns = 32/64/128 falls by 3.3x to 4x per doubling,
        # to 1.9e-5 .. 1.6e-4.  In the plane the scheme is exact on the k = 2
        # harmonic r^2 cos 2theta, so that row sits at the amplitude term
        # 3.0e-6 at every ns (3.0e-8 at a_2 = 1e-4).
        profile, amplitude = PROFILES[geometry], 1e-3
        predicted = 0.5 * r0 ** 2 * amplitude ** 2 * ball_sigma(profile, r0, k) ** 2
        assert predicted == pytest.approx(table, rel=1e-4)
        coeffs = (0.0,) * (k - 1) + (amplitude,)
        errors = [abs(neumann_deviation(StarDomain(r0, coeffs), profile, ns, 2 * ns).j
                      - predicted) / predicted
                  for ns in (32, 64, 128)]
        if (geometry, k) == ("euclidean", 2):
            assert max(errors) < 4e-6, errors
        else:
            assert errors[1] < errors[0] / 3.0 and errors[2] < errors[1] / 3.0, errors
            assert errors[2] < 2e-4, errors


class TestDegenerateHyperbolicRadius:
    """Descents on either side of r0 = arccosh 2, where sigma_2 = 0.

    ``ball_sigma`` vanishes there for k = 2, so the k = 2 harmonic no longer
    moves the trace to first order.  Just below, a descent from a2 = 0.15
    stops on a non-round shape with J at the target; just above, both signs
    of a2 return to the ball.  Measured at 32x64, modes 8: below, target
    reached after 3 evaluations at J = 1.04e-9, a2 = 0.134, a4 = 0.0118;
    above, 4 evaluations to |a2| = 1.6e-4.
    """

    R_DEGENERATE = math.acosh(2.0)

    def descend(self, r0, a2):
        return optimize_shape(StarDomain(r0, (0.0, a2)), 8, HYPER, budget=200,
                              ns=32, ntheta=64)

    def test_below_stops_on_a_non_round_shape(self):
        trace = self.descend(self.R_DEGENERATE - 0.03, 0.15)
        a = trace.best_domain.cos_coeffs
        assert trace.status == "target reached"
        assert trace.evaluations <= 3
        assert trace.best_j < 2e-9
        assert 0.13 < a[1] < 0.14, a
        assert 0.011 < a[3] < 0.013, a

    def test_below_descends_past_eight_modes(self, monkeypatch):
        # Below the degenerate radius J's floor is the shape's Fourier
        # truncation: modes 8 stop at J = 9.3e-10, modes 10 at 1.06e-11.
        monkeypatch.setattr(rigidity, "TARGET_J", 0.0)
        trace = optimize_shape(StarDomain(self.R_DEGENERATE - 0.03, (0.0, 0.15)),
                               10, HYPER, budget=50, ns=32, ntheta=64)
        assert trace.best_j < 1e-10
        assert 0.13 < trace.best_domain.cos_coeffs[1] < 0.14

    def test_grid_root_converges_at_second_order(self):
        # The grid's own sigma_2 is the a2 column of the ball's trace
        # Jacobian projected on cos 2 theta; its secant root from
        # arccosh 2 -/+ 0.05 is measured off arccosh 2 by -2.77e-4,
        # -9.22e-5, -2.59e-5 and -6.84e-6 at ns = 16, 32, 64 and 128
        # (orders 1.59, 1.83, 1.92).  Balls take the FFT disk factor.
        def sigma_2(r0, ns):
            field = solve_torsion(HYPER, StarDomain(r0, (0.0, 0.0)), ns, 2 * ns)
            d_values, _ = neumann_trace_jacobian(field, [2])
            return float(d_values[0] @ np.cos(2.0 * field.grid.theta))

        errors = []
        for ns in (16, 32, 64, 128):
            x0, x1 = self.R_DEGENERATE - 0.05, self.R_DEGENERATE + 0.05
            f0, f1 = sigma_2(x0, ns), sigma_2(x1, ns)
            for _ in range(20):
                if abs(x1 - x0) <= 1e-11:
                    break
                x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
                f1 = sigma_2(x1, ns)
            assert abs(x1 - x0) <= 1e-11, ns
            errors.append(x1 - self.R_DEGENERATE)
        assert all(error < 0 for error in errors), errors
        assert abs(errors[0]) < 3e-4, errors
        orders = [math.log2(errors[k] / errors[k + 1]) for k in (1, 2)]
        assert all(order >= 1.8 for order in orders), orders

    @pytest.mark.parametrize("a2", [0.15, -0.15])
    def test_above_returns_to_the_ball(self, a2):
        trace = self.descend(self.R_DEGENERATE + 0.03, a2)
        assert trace.status == "target reached"
        assert trace.evaluations <= 4
        assert abs(trace.best_domain.cos_coeffs[1]) < 5e-4
