"""Functional catalog, identity report, and the reduction checks.

Discrete-path tolerances were frozen from a refinement study; closed-form
(quadrature) tolerances sit just above the integrator's error estimate.
"""

import ast
import dataclasses
import graphlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import torsionlab
from torsionlab import closed_form, discretization, functionals, geometry, rigidity
from torsionlab import (
    ANY_U,
    CONST_NEUMANN_CV_MAX,
    CONSTANT_NEUMANN,
    DIRICHLET_ONLY,
    DiscreteField,
    StarDomain,
    build_grid,
    compute_catalog,
    conformal_check,
    identity_report,
    make_profile,
    neumann_deviation,
    radial_torsion_solution,
    solve_torsion,
    sphere_reduction_check,
)

EUCLID = make_profile("euclidean")
SPHERE = make_profile("spherical")
HYPER = make_profile("hyperbolic")

FLOWER = StarDomain(0.8, (0.0, 0.0, 0.15))

LABELS = (
    "pohozaev_balance",
    "radial_exchange",
    "energy_split",
    "energy_defect_sign",
    "perimeter_balance",
    "neumann_square",
    "bw_flux_form",
    "bw_exact_form",
    "pohozaev_constant_flux",
    "bw_lower_bound",
)
INEQUALITIES = {"energy_defect_sign", "bw_lower_bound"}


def offset_domain(R, d):
    return StarDomain.from_function(
        lambda t: d * math.cos(t) + math.sqrt(R * R - d * d * math.sin(t) ** 2),
        modes=8,
    )


@pytest.fixture(scope="module")
def ball_field():
    return solve_torsion(SPHERE, StarDomain.ball(math.pi / 4), 64, 128)


@pytest.fixture(scope="module")
def flower_field():
    return solve_torsion(SPHERE, FLOWER, 32, 64)


class TestCatalog:
    def test_closed_form_spherical_ball(self):
        cat = compute_catalog(radial_torsion_solution(SPHERE, 2, math.pi / 4))
        assert cat.bw_lhs == pytest.approx(math.pi / 8, abs=1e-10)
        assert cat.bw_rhs_exact == pytest.approx(math.pi / 8, abs=1e-10)
        assert abs(cat.bw_gap) < 1e-8

    def test_closed_form_euclidean_perimeter(self):
        cat = compute_catalog(radial_torsion_solution(EUCLID, 2, 1.0))
        residual = cat.bdry_measure - (cat.n / cat.c_mean) * cat.int_hdot
        assert abs(residual) < 1e-10
        assert cat.bdry_measure == pytest.approx(2 * math.pi, rel=1e-14)

    def test_rejects_unknown_input(self):
        with pytest.raises(TypeError):
            compute_catalog(np.zeros((4, 4)))

    def test_all_entries_finite(self, ball_field, flower_field):
        for field in (ball_field, flower_field):
            cat = compute_catalog(field)
            values = cat.as_dict()
            assert len(values) == 23
            assert all(math.isfinite(v) for v in values.values())
            assert cat.c_std >= 0.0

    def test_newton_integral_nonnegative(self, ball_field, flower_field):
        # Weighted Newton inequality: may dip below zero only by FD noise.
        assert compute_catalog(ball_field).newton_int >= -1e-8
        assert compute_catalog(flower_field).newton_int >= -1e-8
        cat = compute_catalog(solve_torsion(HYPER, StarDomain.ball(1.0), 32, 64))
        assert cat.newton_int >= -1e-8

    def test_euclidean_curvature_and_exact_sides_identical(self):
        # Flat profile: h_ddot and the curvature term both vanish, so the
        # two right-hand sides are assembled from the same numbers.
        field = solve_torsion(EUCLID, offset_domain(1.0, 0.2), 32, 64)
        cat = compute_catalog(field)
        assert cat.bw_rhs_curvature == cat.bw_rhs_exact
        closed = compute_catalog(radial_torsion_solution(EUCLID, 2, 1.0))
        assert closed.bw_rhs_curvature == closed.bw_rhs_exact

    def test_discrete_matches_closed_form(self, ball_field):
        got = compute_catalog(ball_field).as_dict()
        want = compute_catalog(
            radial_torsion_solution(SPHERE, 2, math.pi / 4)).as_dict()
        for name in ("bdry_measure", "int_hdot", "int_hdot_gradsq", "bw_lhs",
                     "int_u_h2", "c_mean", "neumann_sq_lhs"):
            assert got[name] == pytest.approx(want[name], rel=1e-3), name


class TestIdentityReport:
    def test_row_layout(self, ball_field):
        report = identity_report(compute_catalog(ball_field), 1e-2)
        assert tuple(rec.label for rec in report) == LABELS
        classes = {rec.label: rec.hypothesis_class for rec in report}
        assert classes["pohozaev_balance"] == ANY_U
        assert classes["radial_exchange"] == DIRICHLET_ONLY
        assert classes["energy_split"] == DIRICHLET_ONLY
        assert classes["energy_defect_sign"] == DIRICHLET_ONLY
        for label in LABELS[4:]:
            assert classes[label] == CONSTANT_NEUMANN

    def test_equality_residual_convention(self, ball_field):
        report = identity_report(compute_catalog(ball_field), 1e-2)
        for rec in report:
            if rec.label in INEQUALITIES:
                assert rec.abs_residual == rec.lhs - rec.rhs
                assert rec.rel_residual >= 0.0
            else:
                assert rec.abs_residual == abs(rec.lhs - rec.rhs)
                want = rec.abs_residual / max(abs(rec.lhs), abs(rec.rhs), 1e-30)
                assert rec.rel_residual == want

    def test_spherical_ball_all_pass(self, ball_field):
        cat = compute_catalog(ball_field)
        report = identity_report(cat, 1e-2)
        assert all(rec.verdict == "pass" for rec in report)
        assert report.all_applicable_pass
        assert abs(cat.bw_gap) < 1e-3
        assert abs(cat.energy_defect) < 1e-5

    def test_generic_domain_tagging(self, flower_field):
        report = identity_report(compute_catalog(flower_field), 1e-2)
        verdicts = {rec.label: rec.verdict for rec in report}
        for label in LABELS[:4]:
            assert verdicts[label] == "pass", label
        for label in LABELS[4:]:
            assert verdicts[label] == "not_applicable", label
        assert report.neumann_cv >= CONST_NEUMANN_CV_MAX
        assert report.all_applicable_pass

    def test_neumann_cv_is_trace_variation(self, flower_field):
        cat = compute_catalog(flower_field)
        report = identity_report(cat, 1e-2)
        assert report.neumann_cv == cat.c_std / abs(cat.c_mean)

    def test_hypothesis_monotonicity(self, ball_field, flower_field):
        # any_u / dirichlet_only rows pass on every solved field; the
        # constant-Neumann block passes whenever it applies.
        fields = [
            ball_field,
            flower_field,
            solve_torsion(EUCLID, offset_domain(1.0, 0.2), 32, 64),
            solve_torsion(HYPER, StarDomain.ball(1.0), 32, 64),
        ]
        for field in fields:
            report = identity_report(compute_catalog(field), 1e-2)
            for rec in report:
                if rec.hypothesis_class in (ANY_U, DIRICHLET_ONLY):
                    assert rec.verdict == "pass", (rec.label, rec.rel_residual)
                else:
                    assert rec.verdict in ("pass", "not_applicable")

    def test_energy_defect_never_positive_beyond_noise(self, flower_field):
        # Balls sit on the equality case, so the discrete defect wobbles
        # around zero at the truncation scale (measured +3e-5 at 48x96,
        # decaying at second order); generic domains are strictly negative.
        for field in (flower_field,
                      solve_torsion(HYPER, StarDomain.ball(1.0), 48, 96)):
            cat = compute_catalog(field)
            assert cat.energy_defect <= 1e-4
            row = [r for r in identity_report(cat, 1e-2)
                   if r.label == "energy_defect_sign"][0]
            assert row.verdict == "pass"

    def test_flux_form_cross_check(self, ball_field):
        # Constant-Neumann closure of the Bochner left side through the
        # boundary term c^3/2 |bdry|.
        cat = compute_catalog(ball_field)
        want = 0.5 * cat.c_mean ** 3 * cat.bdry_measure \
            - 0.5 * cat.n * cat.int_hdot_gradsq
        assert abs(cat.bw_lhs - want) < 1e-3
        row = [r for r in identity_report(cat, 1e-2)
               if r.label == "bw_flux_form"][0]
        assert row.verdict == "pass"
        assert row.rel_residual < 1e-3

    @pytest.mark.parametrize("units", [1e-6, 1.0, 1e6])
    def test_inequality_verdicts_do_not_depend_on_units(self, units):
        # Each row violated by 0.5% and by 2% of its scale, in any units.
        exact = compute_catalog(radial_torsion_solution(EUCLID, 2, 1.0))
        scaled = {f.name: getattr(exact, f.name) * units
                  for f in dataclasses.fields(exact) if f.init and f.name != "n"}
        for share, want in ((5e-3, "pass"), (2e-2, "fail")):
            cat = dataclasses.replace(
                exact, **dict(scaled,
                              int_u_gradsq=scaled["int_u_h2"] * (1.0 + share),
                              bw_rhs_curvature=scaled["bw_lhs"] * (1.0 + share)))
            rows = {r.label: r for r in identity_report(cat, 1e-2)}
            defect, bound = rows["energy_defect_sign"], rows["bw_lower_bound"]
            assert defect.abs_residual == -cat.energy_defect
            assert defect.rel_residual == pytest.approx(share, rel=1e-12)
            assert bound.abs_residual == cat.bw_lhs - cat.bw_rhs_curvature
            assert bound.rel_residual == pytest.approx(share / (1.0 + share), rel=1e-12)
            assert (defect.verdict, bound.verdict) == (want, want)

    def test_zero_mean_trace_leaves_perimeter_balance_not_applicable(
            self, flower_field):
        # n / c_mean has no value at c_mean = 0; the row's right side is inf.
        cat = dataclasses.replace(compute_catalog(flower_field), c_mean=0.0)
        rows = {r.label: r for r in identity_report(cat, 1e-2)}
        assert rows["perimeter_balance"].rhs == math.inf
        assert rows["perimeter_balance"].verdict == "not_applicable"

    def test_tolerance_validation(self, ball_field):
        with pytest.raises(ValueError):
            identity_report(compute_catalog(ball_field), 0.0)


BRANCH = StarDomain(math.acosh(2.0) - 0.03,
                    (0.0, 0.134, 0.0, 0.0118, 0.0, 0.0010, 0.0, 8.5e-5))


def refinement(profile, domain, grids=(32, 64, 128)):
    return [compute_catalog(solve_torsion(profile, domain, ns, 2 * ns))
            for ns in grids]


def falls_at_second_order(values):
    return all(abs(a) >= 3.5 * abs(b) for a, b in zip(values, values[1:]))


class TestSphereReduction:
    def test_closed_form_balls(self):
        for profile in (EUCLID, SPHERE, HYPER):
            for n, R in ((2, math.pi / 4), (3, 0.6), (5, 0.6)):
                cat = compute_catalog(radial_torsion_solution(profile, n, R))
                assert abs(sphere_reduction_check(cat, profile)) < 1e-8

    def test_discrete_ball_small(self, ball_field):
        cat = compute_catalog(ball_field)
        assert abs(sphere_reduction_check(cat, SPHERE)) < 1e-3

    def test_generic_domain_reports_combined_defect(self):
        field = solve_torsion(SPHERE, offset_domain(math.pi / 4, 0.2), 64, 128)
        cat = compute_catalog(field)
        value = sphere_reduction_check(cat, SPHERE)
        assert value == cat.bw_gap - cat.n * cat.energy_defect
        assert math.isfinite(value)

    def test_euclidean_offset_disk_reads_k_zero(self):
        # Constant Neumann data off the pole: bw_gap -> 0 at second order
        # while energy_defect stays at -0.0707, so only K = 0 closes.
        cats = refinement(EUCLID, rigidity.offset_disk(1.0, 0.3))
        values = [sphere_reduction_check(cat, EUCLID) for cat in cats]
        assert values == [cat.bw_gap for cat in cats]
        assert falls_at_second_order(values)
        assert all(abs(cat.energy_defect) > 0.07 for cat in cats)

    def test_hyperbolic_branch_shape_reads_k_minus_one(self):
        # A non-round shape with near-constant Neumann data passes all ten
        # rows; bw_gap + 2 energy_defect closes at second order while the
        # sphere's form bw_gap - 2 energy_defect stays above 0.8.
        cats = refinement(HYPER, BRANCH)
        values = [sphere_reduction_check(cat, HYPER) for cat in cats]
        assert values == [cat.bw_gap + 2 * cat.energy_defect for cat in cats]
        assert falls_at_second_order(values)
        assert all(cat.bw_gap - 2 * cat.energy_defect > 0.8 for cat in cats)
        for cat in cats:
            report = identity_report(cat, 1e-2)
            assert {r.verdict for r in report} == {"pass"}
            assert report.neumann_cv < 2e-4

    def test_custom_profile_raises(self):
        flat = geometry.custom_profile(lambda r: r, lambda r: 1.0,
                                       lambda r: 0.0, 10.0)
        cat = compute_catalog(radial_torsion_solution(EUCLID, 2, 1.0))
        with pytest.raises(ValueError, match="custom profile"):
            sphere_reduction_check(cat, flat)


class TestConformalCheck:
    def test_injected_analytic_solution(self):
        grid = build_grid(SPHERE, StarDomain.ball(math.pi / 4), 64, 128)
        u = SPHERE.H(grid.r) - SPHERE.H(math.pi / 4)
        field = DiscreteField(values=u, grid=grid)
        ratio = conformal_check(field)
        assert ratio.shape == (64, 128)
        assert np.max(np.abs(ratio - 2.0)) < 5e-3

    def test_solved_field(self, ball_field):
        ratio = conformal_check(ball_field)
        assert np.max(np.abs(ratio - 2.0)) < 5e-3

    @pytest.mark.parametrize("profile", [EUCLID, SPHERE, HYPER],
                             ids=lambda p: p.kind)
    def test_every_geometry(self, profile):
        # Lap u = n h' holds on every profile, so the ratio reads n = 2.
        for R0 in (0.5, 0.8):
            for ns in (32, 64):
                field = solve_torsion(profile, StarDomain.ball(R0), ns, 2 * ns)
                assert np.max(np.abs(conformal_check(field) - 2.0)) < 1e-8


class TestCustomProfileGrid:
    """The grid path on h = r + 0.3 r^3 (r_max = 2), which is no space form.

    Plain float callables, so every h, h', h'' evaluation of the grid goes
    through ``np.vectorize``.  Measured relative ``pohozaev_balance``: 3.23e-3,
    8.08e-4, 2.02e-4 on the ball and 3.21e-3, 8.03e-4, 2.01e-4 on the flower
    at ns = 16, 32, 64.
    """

    CUBIC = geometry.custom_profile(lambda r: r + 0.3 * r ** 3,
                                    lambda r: 1.0 + 0.9 * r ** 2,
                                    lambda r: 1.8 * r, 2.0)

    @pytest.mark.parametrize("domain", [StarDomain.ball(0.8),
                                        StarDomain(0.8, (0.0, 0.1), (0.0, 0.05))],
                             ids=["ball", "flower"])
    def test_identities_converge_at_second_order(self, domain):
        reports = [identity_report(cat, 1e-2)
                   for cat in refinement(self.CUBIC, domain, (16, 32, 64))]
        for report in reports:
            assert report.all_applicable_pass, report.records
            # The ball's Neumann trace is constant, so every row applies.
            assert domain.modes or {rec.verdict for rec in report} == {"pass"}
        balance = [rec.rel_residual for report in reports for rec in report
                   if rec.label == "pohozaev_balance"]
        assert falls_at_second_order(balance), balance


class TestMetricEvaluations:
    def test_grid_evaluates_h_and_h_dot_once(self, monkeypatch):
        # Every node and boundary evaluation of the h family, by the
        # function that made it, through a catalog and a shape Jacobian.
        # ricci_quadratic reads the grid's arrays as one warping jet.
        callers = {"h": [], "h_dot": [], "h_ddot": []}

        def counted(name):
            fn = getattr(SPHERE, name)

            def wrapper(r):
                if np.ndim(r):
                    callers[name].append(sys._getframe(1).f_code.co_name)
                return fn(r)
            return wrapper

        profile = dataclasses.replace(SPHERE, **{k: counted(k) for k in callers})
        objective = neumann_deviation(FLOWER, profile, 16, 32)
        compute_catalog(objective.field)
        # The Jacobian reads rho, rho', rho'' from the grid, not the series.
        series = StarDomain._series

        def counted_series(domain, theta, derivative):
            callers.setdefault("series", []).append(derivative)
            return series(domain, theta, derivative)

        monkeypatch.setattr(StarDomain, "_series", counted_series)
        objective.jacobian()
        assert callers == {"h": ["build_grid"] * 2,
                           "h_dot": ["build_grid"] * 2,
                           "h_ddot": ["build_grid"]}
        grid = objective.field.grid
        assert grid.profile is profile
        np.testing.assert_array_equal(grid.h, SPHERE.h(grid.r))
        np.testing.assert_array_equal(grid.h_dot, SPHERE.h_dot(grid.r))
        np.testing.assert_array_equal(grid.h_ddot, SPHERE.h_ddot(grid.r))
        np.testing.assert_array_equal(grid.h_boundary, SPHERE.h(grid.rho))
        np.testing.assert_array_equal(grid.h_dot_boundary, SPHERE.h_dot(grid.rho))


class TestSharedTraceMoments:
    def test_deviation_and_catalog_agree_bitwise(self):
        obj = neumann_deviation(FLOWER, SPHERE, 32, 64)
        cat = compute_catalog(solve_torsion(SPHERE, FLOWER, 32, 64))
        assert obj.c_mean == cat.c_mean
        assert obj.c_std == cat.c_std


class TestModuleLayout:
    def test_catalog_is_one_class(self):
        assert functionals.FunctionalCatalog is closed_form.FunctionalCatalog
        assert torsionlab.FunctionalCatalog is closed_form.FunctionalCatalog

    def test_package_exports_are_the_module_exports(self):
        modules = (geometry, closed_form, discretization, functionals, rigidity)
        union = []
        for module in modules:
            for name in module.__all__:
                assert getattr(torsionlab, name) is getattr(module, name), name
                if name not in union:
                    union.append(name)
        assert torsionlab.__all__ == union

    def test_package_imports_are_acyclic(self):
        """Relative imports among the modules, lazy ones included, form a DAG."""
        package = Path(torsionlab.__file__).parent
        modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
        graph = {}
        for name in modules:
            tree = ast.parse((package / f"{name}.py").read_text())
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    if node.module:
                        imported.add(node.module.split(".")[0])
                    else:
                        imported.update(alias.name for alias in node.names)
            graph[name] = imported & modules
        assert graph["closed_form"] == {"geometry"}
        tuple(graphlib.TopologicalSorter(graph).static_order())   # CycleError
