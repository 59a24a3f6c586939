"""Profile construction and closed-form geometric operators.

Reference values are frozen from independent evaluation: elementary
closed forms via the math module and, where a primitive is involved,
adaptive quadrature cross-checked against the antiderivative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import (
    QuadratureError,
    RadialJet,
    WarpingProfile,
    custom_profile,
    divergence_radial,
    laplacian_radial,
    make_profile,
    newton_gap,
    radial_hessian,
    ricci_quadratic,
    sphere_area,
    warping_jet,
)
from torsionlab.geometry import quad

# Each model profile with the top of the range its checks sample, below its
# bound: near hyperbolic space's r = 50, H reaches 2.6e21, where a central
# difference of H cannot meet a 1e-6 bound.
ALL_KINDS = [("euclidean", 10.0), ("spherical", math.pi / 2), ("hyperbolic", 5.0)]


def jet_of_H(profile, r):
    return RadialJet(profile.H(r), profile.h(r), profile.h_dot(r))


class TestMakeProfile:
    def test_euclidean_closed_forms(self):
        p = make_profile("euclidean")
        assert p.h(1.0) == 1.0
        assert p.H(1.0) == 0.5
        assert p.h_dot(2.3) == 1.0
        assert p.h_ddot(2.3) == 0.0

    @pytest.mark.parametrize("r", [2.3, 2, np.array(2.3), np.array([0.5, 2.0])],
                             ids=["float", "int", "0-d", "1-d"])
    def test_euclidean_derivatives_are_float_arrays_shaped_like_r(self, r):
        p = make_profile("euclidean")
        for fn, value in ((p.h_dot, 1.0), (p.h_ddot, 0.0)):
            got = fn(r)
            assert type(got) is (np.ndarray if np.ndim(r) else np.float64)
            assert got.dtype == np.float64
            assert got.shape == np.shape(r)
            assert np.all(got == value)

    @pytest.mark.parametrize("kind,r_top", ALL_KINDS)
    def test_float_radius_gives_float64(self, kind, r_top):
        p = make_profile(kind)
        for fn in (p.h, p.h_dot, p.h_ddot, p.H):
            assert type(fn(0.5)) is np.float64

    def test_spherical_closed_forms(self):
        p = make_profile("spherical")
        assert p.h(math.pi / 4) == pytest.approx(0.7071067811865475, abs=1e-15)
        assert p.H(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_hyperbolic_primitive_matches_quadrature_oracle(self):
        # Frozen oracle: quad(sinh, 0, 1) = 0.5430806348152437 = cosh(1) - 1.
        p = make_profile("hyperbolic")
        assert p.H(1.0) == pytest.approx(0.5430806348152437, abs=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_profile("parabolic")
        with pytest.raises(ValueError):
            make_profile(["spherical"])

    @pytest.mark.parametrize("kind,r_top", ALL_KINDS)
    def test_h_vanishes_at_origin_and_hdot_positive(self, kind, r_top):
        p = make_profile(kind)
        assert p.h(0.0) == 0.0
        rs = np.linspace(1e-3, r_top - 1e-3, 1000)
        assert np.all(p.h_dot(rs) > 0.0)

    @pytest.mark.parametrize("kind,r_top", ALL_KINDS)
    def test_primitive_derivative_is_h(self, kind, r_top):
        # Central difference of H with step 1e-5 against h itself.
        p = make_profile(kind)
        rs = np.linspace(1e-3, r_top - 1e-3, 1000)
        step = 1e-5
        fd = (p.H(rs + step) - p.H(rs - step)) / (2 * step)
        assert np.max(np.abs(fd - p.h(rs))) < 1e-6

    @pytest.mark.parametrize("kind,r_top", ALL_KINDS)
    def test_second_derivative_relation(self, kind, r_top):
        # hddot is -h, 0, +h for the three canonical profiles.
        sign = {"euclidean": 0.0, "spherical": -1.0, "hyperbolic": 1.0}[kind]
        p = make_profile(kind)
        rs = np.linspace(1e-3, r_top - 1e-3, 200)
        assert np.max(np.abs(p.h_ddot(rs) - sign * p.h(rs))) < 1e-14

    def test_primitive_increasing_from_zero(self):
        for kind, r_top in ALL_KINDS:
            p = make_profile(kind)
            assert p.H(0.0) == 0.0
            rs = np.linspace(1e-3, r_top - 1e-3, 50)
            assert np.all(np.diff(p.H(rs)) > 0)


class TestCustomProfile:
    def test_matches_spherical_closed_form(self):
        p = custom_profile(math.sin, math.cos, lambda r: -math.sin(r),
                           math.pi / 2)
        for r in (0.2, 0.7, 1.2):
            assert p.H(r) == pytest.approx(1.0 - math.cos(r), abs=1e-10)
        assert p.kind == "custom"

    def test_rejects_h_not_vanishing_at_origin(self):
        with pytest.raises(ValueError):
            custom_profile(math.cos, lambda r: -math.sin(r),
                           lambda r: -math.cos(r), 1.0)

    @pytest.mark.parametrize("r_max", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_invalid_r_max(self, r_max):
        with pytest.raises(ValueError, match="r_max must be a positive finite"):
            custom_profile(math.sin, math.cos, lambda r: -math.sin(r), r_max)


class TestWarpingJet:
    @pytest.mark.parametrize("kind,r_top", ALL_KINDS)
    def test_jet_is_h_and_its_derivatives(self, kind, r_top):
        p = make_profile(kind)
        for r in (0.3, np.array([0.3, 1.1])):
            w = warping_jet(p, r)
            for got, fn in ((w.value, p.h), (w.d1, p.h_dot), (w.d2, p.h_ddot)):
                np.testing.assert_array_equal(got, fn(r))

    def test_rejects_pole_and_exterior(self):
        p = make_profile("spherical")
        for r in (0.0, math.pi / 2, 2.0, np.array([0.5, 0.0])):
            with pytest.raises(ValueError, match="radius must lie strictly inside"):
                warping_jet(p, r)


class TestRadialHessian:
    def test_primitive_gives_isotropic_hessian(self):
        # f = H has both eigenvalues equal to h_dot.
        p = make_profile("spherical")
        r = 0.7
        rad, ang = radial_hessian(warping_jet(p, r), jet_of_H(p, r))
        assert rad == pytest.approx(math.cos(0.7), abs=1e-15)
        assert ang == pytest.approx(math.cos(0.7), abs=1e-15)

    def test_euclidean_identity_hessian(self):
        p = make_profile("euclidean")
        rad, ang = radial_hessian(warping_jet(p, 2.0), RadialJet(2.0, 2.0, 1.0))
        assert rad == 1.0
        assert ang == 1.0

    def test_linear_function_in_r(self):
        # f(r) = r: radial eigenvalue 0, angular cot(r); equals 1 at pi/4.
        p = make_profile("spherical")
        r = math.pi / 4
        rad, ang = radial_hessian(warping_jet(p, r), RadialJet(r, 1.0, 0.0))
        assert rad == 0.0
        assert ang == pytest.approx(1.0, abs=1e-14)

    def test_rejects_pole_and_exterior(self):
        p = make_profile("spherical")
        with pytest.raises(ValueError):
            radial_hessian(warping_jet(p, 0.0), RadialJet(0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            radial_hessian(warping_jet(p, 2.0), RadialJet(0.0, 1.0, 0.0))


class TestLaplacianRadial:
    def test_euclidean_half_square(self):
        p = make_profile("euclidean")
        f = RadialJet(0.5, 1.0, 1.0)
        assert laplacian_radial(3, warping_jet(p, 1.0), f) == 3.0

    def test_primitive_trace(self):
        # Laplacian of H is n h_dot; frozen 2 cos(0.5) = 1.7551651237807455.
        p = make_profile("spherical")
        got = laplacian_radial(2, warping_jet(p, 0.5), jet_of_H(p, 0.5))
        assert got == pytest.approx(1.7551651237807455, abs=1e-13)

    def test_half_h_squared(self):
        # Laplacian of h^2/2 is n hdot^2 + h hddot; at r = 0.5, n = 2 the
        # value is 2cos^2(0.5) - sin^2(0.5) = 1.3104534588022096 (frozen
        # from direct evaluation).
        p = make_profile("spherical")
        r = 0.5
        h, hd = p.h(r), p.h_dot(r)
        f = RadialJet(0.5 * h * h, h * hd, hd * hd + h * p.h_ddot(r))
        got = laplacian_radial(2, warping_jet(p, r), f)
        assert got == pytest.approx(1.3104534588022096, abs=1e-13)

    @pytest.mark.parametrize("kind,r_top", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_primitive_trace_everywhere(self, kind, r_top, n):
        p = make_profile(kind)
        for r in np.linspace(1e-3, r_top - 1e-3, 200):
            got = laplacian_radial(n, warping_jet(p, r), jet_of_H(p, r))
            assert got == pytest.approx(n * p.h_dot(r), rel=1e-13, abs=1e-14)


class TestDivergenceRadial:
    def test_metric_field_exact(self):
        # div of h d/dr is exactly n h_dot; 2 cos(0.3) = 1.910672978251212.
        p = make_profile("spherical")
        w = warping_jet(p, 0.3)
        got = divergence_radial(2, w, w)
        assert got == 2.0 * math.cos(0.3)
        assert got == pytest.approx(1.910672978251212, abs=1e-15)

    def test_euclidean_position_field(self):
        p = make_profile("euclidean")
        for r in (0.5, 1.0, 3.0):
            assert divergence_radial(4, warping_jet(p, r), RadialJet(r, 1.0, 0.0)) \
                == 4.0

    def test_cubic_flux_field(self):
        # phi = -h^3/2 has divergence -(n+2) h^2 hdot / 2; at r = 0.5, n = 2
        # this is -2 sin^2(0.5) cos(0.5) = -0.4034226801113349 (frozen from
        # direct evaluation).
        p = make_profile("spherical")
        r = 0.5
        h, hd = p.h(r), p.h_dot(r)
        phi = RadialJet(-0.5 * h ** 3, -1.5 * h * h * hd, 0.0)
        got = divergence_radial(2, warping_jet(p, r), phi)
        assert got == pytest.approx(-0.4034226801113349, abs=1e-13)

    @pytest.mark.parametrize("kind,r_top", ALL_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_metric_field_exact_everywhere(self, kind, r_top, n):
        p = make_profile(kind)
        for r in np.linspace(1e-3, r_top - 1e-3, 100):
            w = warping_jet(p, r)
            assert divergence_radial(n, w, w) == n * p.h_dot(r)


class TestRicciQuadratic:
    def test_spherical_value(self):
        p = make_profile("spherical")
        assert ricci_quadratic(3, warping_jet(p, 0.4), 1.0, 1.0) \
            == pytest.approx(4.0, abs=1e-14)

    def test_euclidean_flat(self):
        p = make_profile("euclidean")
        assert ricci_quadratic(4, warping_jet(p, 1.2), 0.3, 0.9) == 0.0

    def test_hyperbolic_radial_direction(self):
        p = make_profile("hyperbolic")
        assert ricci_quadratic(2, warping_jet(p, 0.8), 1.0, 0.0) \
            == pytest.approx(-1.0, abs=1e-15)

    def test_rejects_negative_tangential_norm(self):
        p = make_profile("spherical")
        with pytest.raises(ValueError):
            ricci_quadratic(2, warping_jet(p, 0.5), 1.0, -1e-3)

    @given(u_r=st.floats(-100, 100), g_tan=st.floats(0, 1e4),
           r=st.floats(0.01, math.pi / 2 - 0.01))
    @settings(max_examples=200, deadline=None)
    def test_spherical_collapse_property(self, u_r, g_tan, r):
        # On the round sphere the quadratic form is (n-1)|Du|^2.
        p = make_profile("spherical")
        for n in (2, 3, 5):
            got = ricci_quadratic(n, warping_jet(p, r), u_r, g_tan)
            want = (n - 1) * (u_r * u_r + g_tan)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_hyperbolic_mirror_of_sphere(self):
        p = make_profile("hyperbolic")
        got = ricci_quadratic(3, warping_jet(p, 0.7), 1.5, 2.0)
        want = -2 * (1.5 ** 2 + 2.0)
        assert got == pytest.approx(want, rel=1e-12)


class TestNewtonGap:
    def test_equal_pair_is_zero(self):
        assert newton_gap(2, (1.0, 1.0)) == 0.0

    def test_unit_spread_pair(self):
        assert newton_gap(2, (1.0, 0.0)) == 1.0

    def test_three_eigenvalues(self):
        assert newton_gap(3, (2.0, 1.0, 0.0)) == 6.0

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            newton_gap(3, (1.0, 2.0))

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_zero_iff_tight(self, n, data):
        lam = data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n))
        gap = newton_gap(n, lam)
        assert gap >= 0.0
        spread = max(lam) - min(lam)
        if spread < 1e-14:
            assert gap == 0.0
        else:
            assert gap > 0.0


class TestSphereArea:
    def test_known_dimensions(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
        assert sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)
        assert sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-14)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            sphere_area(1)


class TestQuad:
    def test_rule_integrates_monomials_to_rounding(self):
        # 24 Gauss-Legendre nodes are exact through degree 47.  With the
        # weights as leggauss returns them t^36 is off by 2.7e-14.
        k = np.arange(48)
        got = quad(lambda t: t ** k[:, None], 0.0, 1.0)
        assert np.max(np.abs(got * (k + 1) - 1.0)) <= 2e-15

    def test_rule_maps_the_interval(self):
        assert quad(lambda r: 3.0 * r * r, 1.0, 2.0) == pytest.approx(7.0, rel=1e-15)


class TestRadialJet:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RadialJet(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            RadialJet(0.0, float("inf"), 0.0)


def test_profile_is_frozen():
    p = make_profile("euclidean")
    with pytest.raises(AttributeError):
        p.r_max = 3.0
    assert isinstance(p, WarpingProfile)


def test_custom_profile_quadrature_error_is_exported():
    assert issubclass(QuadratureError, RuntimeError)
