"""Shape-objective experiments: rigidity contrast, sweeps, Gauss-Newton descent.

The floor values (1e-20 and below) reflect a measured property of the
scheme: on any domain whose discrete trace is theta-independent the
objective J collapses to rounding noise at every resolution, so balls sit
many orders below the truncation scale of non-round shapes.
"""

import itertools
import math

import numpy as np
import pytest

import torsionlab.rigidity as rigidity
from torsionlab import (
    NoFeasibleShapeError,
    StarDomain,
    ball_family,
    make_profile,
    neumann_deviation,
    offset_disk,
    offset_family,
    optimize_shape,
    sweep,
)

EUCLID = make_profile("euclidean", 10.0)
SPHERE = make_profile("spherical", math.pi / 2)
HYPER = make_profile("hyperbolic", 5.0)

OFFSETS = (0.0, 0.05, 0.1, 0.2)


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
        assert obj.ns == 32 and obj.ntheta == 64

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

    def test_budget_exhaustion_returns_best(self):
        # Eight modes make each difference Jacobian cost 15 solves, so the
        # budget runs out before trf's own tolerances can stop it.
        trace = optimize_shape(StarDomain(math.pi / 4, (0.0, 0.1)), 8, SPHERE,
                               budget=50, ns=16, ntheta=32, target_j=0.0)
        assert not trace.converged
        assert trace.status == "budget exhausted"
        assert trace.evaluations <= 51
        assert math.isfinite(trace.best_j)
        assert isinstance(trace.best_domain, StarDomain)

    def test_parameter_validation(self):
        ball = StarDomain.ball(0.5)
        with pytest.raises(ValueError):
            optimize_shape(ball, 0, SPHERE, budget=100, ns=16, ntheta=32)
        with pytest.raises(ValueError):
            optimize_shape(ball, 9, SPHERE, budget=100, ns=16, ntheta=32)
        with pytest.raises(ValueError):
            optimize_shape(ball, 2, SPHERE, budget=49, ns=16, ntheta=32)
        with pytest.raises(ValueError, match="harmonic above modes"):
            optimize_shape(StarDomain(0.5, (0.0, 0.0, 0.1)), 1, SPHERE,
                           budget=100, ns=16, ntheta=32)

    def test_infeasible_start_is_not_an_argument_error(self):
        # The start reaches past the equator, so its solve fails before the
        # descent can take a step: a run outcome, not a bad value.
        start = StarDomain(1.6, (0.0, 0.1))
        with pytest.raises(NoFeasibleShapeError):
            optimize_shape(start, 2, SPHERE, budget=50, ns=16, ntheta=32)

    def test_rotation_gauge_fixed(self):
        # A sine-led start is rotated into the cosine gauge before descent.
        trace = optimize_shape(StarDomain(math.pi / 4, (), (0.0, 0.08)), 2,
                               SPHERE, budget=120, ns=16, ntheta=32)
        assert math.isfinite(trace.best_j)
        assert trace.best_domain.sin_coeffs[0] == 0.0

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
        trace = optimize_shape(StarDomain(1.5, (0.0, 0.04)), 8, SPHERE,
                               budget=50, ns=16, ntheta=32, target_j=0.0)
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
        # A forward-difference column crosses r_max, so trf cannot form a
        # model there: the run stops with the start as its best shape.
        start = StarDomain((math.pi / 2 - 1e-9) / 1.04, (0.0, 0.04))
        trace = optimize_shape(start, 2, SPHERE, budget=50, ns=16, ntheta=32)
        assert trace.status == "simplex collapsed"
        assert math.isfinite(trace.best_j)
        assert trace.evaluations <= 50
