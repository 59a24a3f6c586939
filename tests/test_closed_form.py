"""Closed-form ball solutions and their pointwise identities.

The ball catalog values are frozen from an independent 1-D quadrature
oracle (volume form 2 pi h dr for n = 2) evaluated outside the package:

    spherical n=2 R=pi/4:  |boundary| = 2 pi sin(pi/4) = 4.442882938158366
                           int hdot   = pi/2           = 1.5707963267948966
                           int h^2 hdot                = 0.39269908169872414
    euclidean n=2 R=1:     int hdot |Du|^2 = pi/2, matching the split form
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from torsionlab import (
    QuadratureError,
    RadialSolution,
    bochner_residual,
    closed_form,
    compute_catalog,
    custom_profile,
    make_profile,
    newton_equality_check,
    pohozaev_pointwise_residual,
    radial_functionals,
    radial_torsion_solution,
)

EUCLID = make_profile("euclidean")
SPHERE = make_profile("spherical")
HYPER = make_profile("hyperbolic")


class TestRadialSolution:
    def test_euclidean_unit_ball(self):
        sol = radial_torsion_solution(EUCLID, 2, 1.0)
        assert sol.u(0.0) == -0.5
        assert sol.c == 1.0
        assert sol.u(1.0) == 0.0

    def test_spherical_quarter_ball(self):
        sol = radial_torsion_solution(SPHERE, 2, math.pi / 4)
        assert sol.u(0.0) == pytest.approx(-0.2928932188134524, abs=1e-15)
        assert sol.c == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_hyperbolic_neumann_constant(self):
        sol = radial_torsion_solution(HYPER, 3, 1.0)
        assert sol.c == pytest.approx(1.1752011936438014, abs=1e-15)

    def test_solution_negative_inside_zero_on_boundary(self):
        for profile, R in ((EUCLID, 1.2), (SPHERE, 0.9), (HYPER, 1.5)):
            sol = radial_torsion_solution(profile, 4, R)
            assert sol.u(R) == 0.0
            for r in np.linspace(0.0, R * 0.999, 20):
                assert sol.u(r) < 0.0
            assert sol.u_r(R) == sol.c > 0.0

    def test_rejects_out_of_range_radius(self):
        with pytest.raises(ValueError):
            radial_torsion_solution(SPHERE, 2, math.pi / 2 + 0.1)
        with pytest.raises(ValueError):
            radial_torsion_solution(EUCLID, 2, 0.0)
        with pytest.raises(ValueError):
            radial_torsion_solution(EUCLID, 1, 1.0)

    def test_evaluation_outside_ball_rejected(self):
        sol = radial_torsion_solution(EUCLID, 2, 1.0)
        with pytest.raises(ValueError):
            sol.u(1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, bad):
        sol = radial_torsion_solution(SPHERE, 2, math.pi / 4)
        for f in (sol.u, sol.u_r,
                  lambda r: bochner_residual(sol, r),
                  lambda r: pohozaev_pointwise_residual(sol, r),
                  lambda r: newton_equality_check(sol, r)):
            with pytest.raises(ValueError, match="radius must lie in"):
                f(bad)

    def test_is_frozen_dataclass(self):
        sol = radial_torsion_solution(EUCLID, 2, 1.0)
        assert isinstance(sol, RadialSolution)
        with pytest.raises(AttributeError):
            sol.R = 2.0


# Shared pointwise sweep: 3 profiles x dimensions x radii x 50 points.
POINTWISE_CASES = [
    (profile, n, R)
    for profile in (EUCLID, SPHERE, HYPER)
    for n in (2, 3, 4, 5)
    for R in (0.3, math.pi / 4, 1.2)
    if R < profile.r_max
]


class TestPointwiseIdentities:
    @pytest.mark.parametrize("profile,n,R", POINTWISE_CASES)
    def test_bochner_residual_vanishes(self, profile, n, R):
        sol = radial_torsion_solution(profile, n, R)
        rs = np.linspace(R / 51, R * 50 / 51, 50)
        assert max(abs(bochner_residual(sol, r)) for r in rs) < 1e-10

    @pytest.mark.parametrize("profile,n,R", POINTWISE_CASES)
    def test_pohozaev_residual_vanishes(self, profile, n, R):
        sol = radial_torsion_solution(profile, n, R)
        rs = np.linspace(R / 51, R * 50 / 51, 50)
        assert max(abs(pohozaev_pointwise_residual(sol, r)) for r in rs) < 1e-10

    @pytest.mark.parametrize("profile,n,R", POINTWISE_CASES)
    def test_newton_gap_exactly_zero(self, profile, n, R):
        sol = radial_torsion_solution(profile, n, R)
        rs = np.linspace(R / 51, R * 50 / 51, 50)
        assert all(newton_equality_check(sol, r) == 0.0 for r in rs)

    def test_euclidean_bochner_terms(self):
        # Flat case: every Bochner term is constant, residual identically 0.
        sol = radial_torsion_solution(EUCLID, 2, 1.0)
        assert bochner_residual(sol, 0.5) == 0.0

    def test_pohozaev_sides_spherical_value(self):
        # Both sides equal -(n+2) h^2 hdot / 2 on radial solutions; at
        # r = 0.5, n = 2 that is -0.4034226801113349 (frozen evaluation).
        sol = radial_torsion_solution(SPHERE, 2, math.pi / 4)
        assert abs(pohozaev_pointwise_residual(sol, 0.5)) < 1e-13

    def test_euclidean_pohozaev_sides(self):
        # Both sides are -2 r^2 in the plane.
        from torsionlab import RadialJet, divergence_radial, warping_jet

        r = 0.7
        phi = RadialJet(-0.5 * r ** 3, -1.5 * r ** 2, 0.0)
        assert divergence_radial(2, warping_jet(EUCLID, r), phi) \
            == pytest.approx(-0.98, abs=1e-15)
        sol = radial_torsion_solution(EUCLID, 2, 1.0)
        assert pohozaev_pointwise_residual(sol, r) == pytest.approx(0.0, abs=1e-13)


def counting_profile(profile, names, calls):
    """``profile`` with each callable in ``names`` counting its calls in ``calls``."""
    def counted(name):
        fn = getattr(profile, name)

        def wrapper(r):
            calls[name] += 1
            return fn(r)
        return wrapper

    return dataclasses.replace(profile, **{k: counted(k) for k in names})


class TestWarpingEvaluations:
    @pytest.mark.parametrize("profile", [EUCLID, SPHERE, HYPER], ids=lambda p: p.kind)
    @pytest.mark.parametrize("residual", [bochner_residual, pohozaev_pointwise_residual,
                                          newton_equality_check],
                             ids=lambda f: f.__name__)
    def test_pointwise_residual_evaluates_each_derivative_at_most_once(
            self, profile, residual):
        calls = Counter()
        names = ("h", "h_dot", "h_ddot", "H")
        sol = radial_torsion_solution(counting_profile(profile, names, calls), 3, 1.0)
        calls.clear()   # H(R) belongs to the solution, not to the residual
        residual(sol, 0.5)
        assert all(calls[name] <= 1 for name in names), calls

    @pytest.mark.parametrize("profile", [EUCLID, SPHERE, HYPER], ids=lambda p: p.kind)
    def test_catalog_evaluates_H_once_per_node_plus_H_of_R(self, profile):
        calls = Counter()
        counting = counting_profile(profile, ("h_dot", "H"), calls)
        compute_catalog(radial_torsion_solution(counting, 3, 0.7))
        # Every quadrature node evaluates the warping jet, so h_dot once.
        assert calls["H"] <= calls["h_dot"] + 1, calls


class TestRadialCatalog:
    def test_spherical_quarter_ball_catalog(self):
        sol = radial_torsion_solution(SPHERE, 2, math.pi / 4)
        cat = compute_catalog(sol)
        assert cat.bdry_measure == pytest.approx(4.442882938158366, abs=1e-10)
        assert cat.int_hdot == pytest.approx(1.5707963267948966, abs=1e-10)
        # perimeter balance: |boundary| - (n/c) int hdot = 0
        assert cat.bdry_measure - 2.0 / cat.c_mean * cat.int_hdot \
            == pytest.approx(0.0, abs=1e-8)
        # both sides of the exact split equal pi/8
        assert cat.bw_lhs == pytest.approx(0.39269908169872414, abs=1e-8)
        assert cat.bw_rhs_exact == pytest.approx(0.39269908169872414, abs=1e-8)
        assert abs(cat.bw_gap) < 1e-8
        assert abs(cat.energy_defect) < 1e-8

    def test_euclidean_unit_ball_catalog(self):
        sol = radial_torsion_solution(EUCLID, 2, 1.0)
        cat = compute_catalog(sol)
        assert cat.int_hdot_gradsq == pytest.approx(math.pi / 2, abs=1e-10)
        rhs_split = 2 * cat.int_u_hdot2 + cat.int_u_ur_hddot
        assert rhs_split == pytest.approx(math.pi / 2, abs=1e-10)
        assert cat.bdry_measure == pytest.approx(2 * math.pi, abs=1e-12)

    def test_identical_integrands_alias(self):
        # With u_r = h the weighted gradient integrals coincide exactly.
        for profile, R in ((EUCLID, 1.0), (SPHERE, 0.8), (HYPER, 1.3)):
            cat = compute_catalog(radial_torsion_solution(profile, 3, R))
            assert cat.int_u_gradsq == cat.int_u_radial_flux
            assert cat.energy_defect == 0.0
            assert cat.c_std == 0.0

    @pytest.mark.parametrize("profile,R", [
        (EUCLID, 0.5), (EUCLID, 1.2), (SPHERE, 0.4), (SPHERE, math.pi / 4),
        (HYPER, 0.5), (HYPER, 1.0),
    ])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equality_cases_all_profiles(self, profile, R, n):
        cat = compute_catalog(radial_torsion_solution(profile, n, R))
        assert abs(cat.bw_gap) < 1e-8
        assert abs(cat.energy_defect) < 1e-8
        assert cat.newton_int == pytest.approx(0.0, abs=1e-10)

    def test_boundary_measure_scales_with_sphere_area(self):
        # n = 3 ball: boundary measure is 4 pi h(R)^2.
        sol = radial_torsion_solution(SPHERE, 3, 0.6)
        cat = compute_catalog(sol)
        want = 4 * math.pi * math.sin(0.6) ** 2
        assert cat.bdry_measure == pytest.approx(want, rel=1e-12)


class TestCatalogQuadrature:
    """One fixed Gauss-Legendre pass per catalog, through ``closed_form.quad``.

    ``closed_form.quad`` is the name perfbench's tracer wraps, so the
    catalog must look it up on the module at call time.
    """

    def test_catalog_calls_the_module_quad(self, monkeypatch):
        sol = radial_torsion_solution(SPHERE, 3, 0.7)
        want = radial_functionals(sol)
        calls = []
        inner = closed_form.quad

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return inner(*args, **kwargs)

        monkeypatch.setattr(closed_form, "quad", counting)
        assert radial_functionals(sol) == want
        assert calls == [(0.0, 0.7)]

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("profile,radii", [
        (EUCLID, (0.3, 1.5, 3.5)), (SPHERE, (0.3, 0.9, 1.5)), (HYPER, (0.3, 0.9, 1.5)),
    ], ids=["euclidean", "spherical", "hyperbolic"])
    def test_each_integral_matches_adaptive_quadrature(self, monkeypatch, profile,
                                                       radii, n):
        # The rule against scipy's adaptive quad on the same nine densities;
        # a density that vanishes on the radial solution must give a
        # (near-)zero integral on both.
        from scipy import integrate

        captured = []
        inner = closed_form.quad

        def capture(f, a, b):
            captured.append(f)
            return inner(f, a, b)

        monkeypatch.setattr(closed_form, "quad", capture)
        for R in radii:
            captured.clear()
            radial_functionals(radial_torsion_solution(profile, n, R))
            (densities,) = captured
            ours = inner(densities, 0.0, R)
            scale = np.max(np.abs(ours))
            ref = np.array([
                integrate.quad(lambda r: densities(np.array([r]))[k, 0], 0.0, R,
                               epsabs=1e-16 * scale, epsrel=2.5e-14, limit=200)[0]
                for k in range(len(ours))])
            for k, (got, want) in enumerate(zip(ours, ref)):
                if abs(want) <= 1e-13 * scale:
                    assert abs(got) <= 1e-13 * scale, (R, k, got, want)
                else:
                    assert abs(got - want) <= 1e-13 * abs(want), (R, k, got, want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("profile,top", [
        (EUCLID, 5.0), (SPHERE, 0.999 * math.pi / 2), (HYPER, 1.5),
    ], ids=["euclidean", "spherical", "hyperbolic"])
    def test_bochner_gap_is_rounding(self, profile, top, n):
        # bw_lhs and bw_rhs_curvature are integrals of different densities;
        # on the ball they agree exactly, so their gap measures the rule's
        # rounding.
        for R in np.geomspace(0.3, top, 7):
            cat = radial_functionals(radial_torsion_solution(profile, n, float(R)))
            assert abs(cat.bw_gap) <= 1e-14 * abs(cat.bw_lhs), (R, cat.bw_gap)

    @pytest.mark.parametrize("profile", [EUCLID, SPHERE, HYPER],
                             ids=["euclidean", "spherical", "hyperbolic"])
    def test_small_balls_keep_their_digits(self, profile):
        # The primitives are the half-angle forms 2 sin^2(r/2) and
        # 2 sinh^2(r/2): 1 - cos r and cosh r - 1 cancel at small r, which
        # left the worst ratio below at 1.7e-12 (spherical) and 9.0e-12
        # (hyperbolic).  Measured with the half-angle forms: 1.2e-15.
        for R in np.geomspace(0.01, 0.3, 12):
            for n in (2, 3, 4, 5):
                cat = radial_functionals(radial_torsion_solution(profile, n, float(R)))
                assert abs(cat.bw_gap) <= 1e-14 * abs(cat.bw_lhs), (R, n)
                assert abs(cat.energy_defect) <= 1e-14 * abs(cat.int_u_h2), (R, n)

    def test_custom_primitive_checks_two_rules(self):
        # h may take floats only; H is the 24-node rule, checked by 32 nodes.
        profile = custom_profile(math.sin, math.cos, lambda r: -math.sin(r),
                                 math.pi / 2)
        r = np.array([0.0, 0.3, 1.0, 1.5])
        assert profile.H(r) == pytest.approx(1.0 - np.cos(r), rel=1e-14, abs=1e-16)
        assert profile.H(0.8) == pytest.approx(1.0 - math.cos(0.8), rel=1e-14)
        # sqrt is not analytic at the pole, so the two rules disagree.
        rough = custom_profile(math.sqrt, lambda r: 0.5 / math.sqrt(r),
                               lambda r: -0.25 * r ** -1.5, 1.0)
        with pytest.raises(QuadratureError, match="24 and 32 nodes differ"):
            rough.H(0.5)

    def test_custom_profile_gives_a_float_for_a_float(self):
        # A float radius is passed to the callables directly, so the jets and
        # validators take their float path; the values are those np.vectorize
        # gives, and arrays still go through it.
        profile = custom_profile(math.sin, math.cos, lambda r: -math.sin(r),
                                 math.pi / 2)
        for r in (0.3, np.float64(0.7), 1e-300):
            for f, g in ((profile.h, math.sin), (profile.h_dot, math.cos)):
                assert type(f(r)) is float
                assert f(r) == float(np.vectorize(g, otypes=[float])(r))
        assert type(profile.H(0.3)) is float
        rs = np.array([0.3, 0.7])
        assert np.array_equal(profile.h(rs), np.sin(rs))
        for n, r in ((2, 0.3), (3, 0.3), (5, 0.65)):
            got = bochner_residual(radial_torsion_solution(profile, n, 0.7), r)
            want = bochner_residual(radial_torsion_solution(SPHERE, n, 0.7), r)
            assert type(got) is float
            assert got == pytest.approx(want, abs=1e-13)
