"""Scalar and array inputs take separate validation paths; both must agree.

The geometry validators, ``RadialJet`` and ``RadialSolution`` accept a float
on plain comparisons and send everything else through numpy.  Each test
feeds the same value as a Python float, an np.float64, a 0-d array and a
1-d array and expects the same verdict; results must agree bitwise.
"""

import math

import numpy as np
import pytest

from torsionlab import (
    GEOMETRIES,
    RadialJet,
    divergence_radial,
    laplacian_radial,
    make_profile,
    newton_gap,
    radial_hessian,
    radial_torsion_solution,
    ricci_quadratic,
    warping_jet,
)

PROFILES = [make_profile(kind) for kind in GEOMETRIES]


def as_four(x):
    """The same value as float, np.float64, 0-d array and 1-d array."""
    return [float(x), np.float64(x), np.array(x), np.array([0.5, x])]


def interior_ops(profile, r):
    jet = RadialJet(1.0, 1.0, 1.0)
    return [
        lambda: radial_hessian(warping_jet(profile, r), jet),
        lambda: laplacian_radial(3, warping_jet(profile, r), jet),
        lambda: divergence_radial(3, warping_jet(profile, r), jet),
        lambda: ricci_quadratic(3, warping_jet(profile, r), 1.0, 0.0),
    ]


def bad_radii(r_max):
    return [0.0, -0.5, r_max, r_max + 1.0, math.nan, math.inf, -math.inf]


class TestRequireInterior:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.kind)
    def test_every_form_of_a_bad_radius_raises(self, profile):
        for bad in bad_radii(profile.r_max):
            for r in as_four(bad):
                for op in interior_ops(profile, r):
                    with pytest.raises(ValueError):
                        op()

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.kind)
    def test_scalar_forms_raise_one_message(self, profile):
        for bad in bad_radii(profile.r_max):
            messages = set()
            for r in as_four(bad)[:3]:
                with pytest.raises(ValueError) as info:
                    warping_jet(profile, r)
                messages.add(str(info.value))
            assert len(messages) == 1, messages

    def test_interior_radius_accepted_in_every_form(self):
        p = PROFILES[1]
        for r in as_four(0.7):
            for op in interior_ops(p, r):
                op()


class TestRequireDimension:
    @pytest.mark.parametrize("n", [2, np.int64(2), 7, np.int32(7)])
    def test_integer_dimensions_accepted(self, n):
        assert laplacian_radial(n, warping_jet(PROFILES[0], 1.0),
                                RadialJet(0.5, 1.0, 1.0)) == 1.0 + (int(n) - 1)

    @pytest.mark.parametrize("n", [1, 0, -3, np.int64(1), 2.0, True, "2", None])
    def test_bad_dimensions_rejected(self, n):
        with pytest.raises(ValueError, match="dimension n must be an integer"):
            laplacian_radial(n, warping_jet(PROFILES[0], 1.0),
                             RadialJet(0.5, 1.0, 1.0))


class TestRadialJet:
    @pytest.mark.parametrize("field", ["value", "d1", "d2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected_in_every_form(self, field, bad):
        for v in as_four(bad):
            args = {"value": 0.0, "d1": 0.0, "d2": 0.0, field: v}
            with pytest.raises(ValueError, match=f"RadialJet.{field} must be finite"):
                RadialJet(**args)

    def test_finite_fields_accepted_in_every_form(self):
        for v in as_four(-2.5):
            jet = RadialJet(v, v, v)
            assert jet.value is v


class TestRicciTangentialNorm:
    @pytest.mark.parametrize("g", [-1e-300, -1e-3, -math.inf])
    def test_negative_norm_rejected_in_every_form(self, g):
        p = PROFILES[1]
        for v in as_four(g):
            with pytest.raises(ValueError, match="grad_tan_sq"):
                ricci_quadratic(3, warping_jet(p, 0.5), 1.0, v)

    def test_zero_norms_accepted_in_every_form(self):
        p = PROFILES[1]
        for g in (0.0, -0.0):
            for v in as_four(g):
                ricci_quadratic(3, warping_jet(p, 0.5), 1.0, v)


class TestNewtonGap:
    SPECTRA = [
        [1.25, 1.25, 1.25],                     # equal
        [1.0, 1.0 + 5e-15, 1.0],                # spread below 1e-14
        [1.0, 1.0 + 4e-14, 1.0],                # spread above 1e-14
        [2.0, 1.0, 0.0],
        [-3.5, 1e6, 0.25, 0.25],
        [math.cos(0.3)] * 5,
    ]

    @pytest.mark.parametrize("lam", SPECTRA)
    def test_scalar_list_matches_array_result(self, lam):
        n = len(lam)
        want = newton_gap(n, np.array(lam))
        for form in (lam, [np.float64(v) for v in lam], tuple(lam)):
            got = newton_gap(n, form)
            assert type(got) is float
            assert got == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spectra_rejected(self, bad):
        for lam in ([bad, bad], [1.0, bad], [bad, 1.0]):
            for form in (lam, [np.float64(v) for v in lam], np.array(lam)):
                with pytest.raises(ValueError, match="eigenvalues must be finite"):
                    newton_gap(2, form)

    def test_wrong_count_rejected(self):
        for lam in ([1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [], [[1.0, 1.0, 1.0]]):
            for form in (lam, np.array(lam)):
                with pytest.raises(ValueError, match="expected 3 eigenvalues"):
                    newton_gap(3, form)


class TestSolutionRadius:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.kind)
    def test_every_form_of_a_bad_radius_raises(self, profile):
        sol = radial_torsion_solution(profile, 3, 0.8)
        for bad in (-1e-12, -1.0, 0.8 + 1e-12, 2.0, math.nan, math.inf, -math.inf):
            for r in as_four(bad):
                for f in (sol.u, sol.u_r):
                    with pytest.raises(ValueError, match=r"radius must lie in \[0, 0.8\]"):
                        f(r)

    def test_closed_interval_accepted_in_every_form(self):
        sol = radial_torsion_solution(PROFILES[1], 3, 0.8)
        for edge in (0.0, 0.8):
            for r in as_four(edge):
                sol.u(r)
                sol.u_r(r)


class TestBitwiseParity:
    """Per-scalar calls give exactly the numbers of one elementwise array call."""

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.kind)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_operators_per_scalar_equal_array(self, profile, n):
        rs = np.linspace(0.01, min(profile.r_max, 3.0) - 0.01, 37)
        f = RadialJet(profile.H(rs), profile.h(rs), profile.h_dot(rs))
        g = RadialJet(-0.5 * rs ** 3, -1.5 * rs ** 2, 0.3 * rs)
        u_r = profile.h(rs)
        tan = 0.25 * rs

        w = warping_jet(profile, rs)
        rad, ang = radial_hessian(w, f)
        lap = laplacian_radial(n, w, f)
        div = divergence_radial(n, w, g)
        ric = ricci_quadratic(n, w, u_r, tan)
        for k, r in enumerate(rs):
            fk = RadialJet(f.value[k], f.d1[k], f.d2[k])
            gk = RadialJet(g.value[k], g.d1[k], g.d2[k])
            for rr in (r, float(r)):
                wk = warping_jet(profile, rr)
                assert radial_hessian(wk, fk) == (rad[k], ang[k])
                assert laplacian_radial(n, wk, fk) == lap[k]
                assert divergence_radial(n, wk, gk) == div[k]
                assert ricci_quadratic(n, wk, u_r[k], tan[k]) == ric[k]

