"""Acceptance suite: eight end-to-end criteria with frozen thresholds.

Each criterion is one test that prints a single PASS/FAIL line (visible in
the live run via capsys.disabled) and then asserts.  Heavy discrete solves
are shared through session fixtures so the whole suite stays fast.
"""

import math
import time

import numpy as np
import pytest

from torsionlab import (
    StarDomain,
    bochner_residual,
    compute_catalog,
    conformal_check,
    identity_report,
    make_profile,
    neumann_trace,
    newton_equality_check,
    offset_disk,
    offset_family,
    optimize_shape,
    pohozaev_pointwise_residual,
    radial_torsion_solution,
    solve_torsion,
    sweep,
)

EUCLID = make_profile("euclidean")
SPHERE = make_profile("spherical")
HYPER = make_profile("hyperbolic")

BALL_GRIDS = ((32, 64), (64, 128), (128, 256))
FLOWER = StarDomain(0.8, (0.0, 0.0, 0.15))
EQUALITY_ROWS = ("pohozaev_balance", "radial_exchange", "energy_split")


def report_line(capsys, index, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance criterion {index}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def ball_solves():
    """Spherical geodesic ball R = pi/4 at three dyadic grids, with timing."""
    start = time.perf_counter()
    fields = {grid: solve_torsion(SPHERE, StarDomain.ball(math.pi / 4), *grid)
              for grid in BALL_GRIDS}
    return fields, time.perf_counter() - start


@pytest.fixture(scope="session")
def flower_reports():
    """Identity reports for the generic hemisphere domain at three grids."""
    out = {}
    for grid in BALL_GRIDS:
        field = solve_torsion(SPHERE, FLOWER, *grid)
        out[grid] = identity_report(compute_catalog(field), 1e-2)
    return out


def test_criterion_1_pointwise_identities(capsys):
    start = time.perf_counter()
    worst_b = worst_p = 0.0
    newton_exact = True
    for profile in (EUCLID, SPHERE, HYPER):
        for n in (2, 3, 4, 5):
            for R in (0.3, math.pi / 4, 1.2):
                if R >= profile.r_max:
                    continue
                sol = radial_torsion_solution(profile, n, R)
                for r in np.linspace(R / 51, R * 50 / 51, 50):
                    worst_b = max(worst_b, abs(bochner_residual(sol, r)))
                    worst_p = max(worst_p, abs(pohozaev_pointwise_residual(sol, r)))
                    newton_exact &= newton_equality_check(sol, r) == 0.0
    elapsed = time.perf_counter() - start
    ok = worst_b < 1e-10 and worst_p < 1e-10 and newton_exact and elapsed < 1.0
    report_line(capsys, 1, ok,
                f"max residuals {worst_b:.2e}/{worst_p:.2e}, "
                f"newton exact: {newton_exact}, {elapsed:.2f}s")
    assert worst_b < 1e-10
    assert worst_p < 1e-10
    assert newton_exact
    assert elapsed < 1.0


def test_criterion_2_closed_form_catalog(capsys):
    cat = compute_catalog(radial_torsion_solution(SPHERE, 2, math.pi / 4))
    perimeter_res = abs(cat.bdry_measure - (cat.n / cat.c_mean) * cat.int_hdot)
    checks = {
        "perimeter residual": perimeter_res < 1e-8,
        "boundary measure": abs(cat.bdry_measure - 4.4428829) < 1e-6,
        "int hdot": abs(cat.int_hdot - 1.5707963) < 1e-6,
        "split lhs": abs(cat.bw_lhs - math.pi / 8) < 1e-8,
        "split rhs": abs(cat.bw_rhs_exact - math.pi / 8) < 1e-8,
        "bw gap": abs(cat.bw_gap) < 1e-8,
        "energy defect": abs(cat.energy_defect) < 1e-8,
    }
    ok = all(checks.values())
    report_line(capsys, 2, ok,
                f"perimeter {perimeter_res:.1e}, gap {cat.bw_gap:.1e}, "
                f"defect {cat.energy_defect:.1e}")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_3_solver_convergence(capsys, ball_solves):
    fields, elapsed = ball_solves
    errors = []
    for grid in BALL_GRIDS:
        field = fields[grid]
        exact = SPHERE.H(field.grid.r) - SPHERE.H(math.pi / 4)
        errors.append(float(np.max(np.abs(field.values - exact))))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    trace, _ = neumann_trace(fields[(128, 256)])
    trace_dev = float(np.max(np.abs(trace - 0.7071068)))
    ok = all(1.5 <= o <= 2.5 for o in orders) and trace_dev < 1e-3 and elapsed < 30.0
    report_line(capsys, 3, ok,
                f"orders {orders[0]:.2f}/{orders[1]:.2f}, "
                f"trace dev {trace_dev:.1e}, {elapsed:.1f}s")
    assert all(1.5 <= o <= 2.5 for o in orders), (errors, orders)
    assert trace_dev < 1e-3
    assert elapsed < 30.0


def test_criterion_4_generic_domain_identities(capsys, flower_reports):
    finest = {rec.label: rec for rec in flower_reports[(128, 256)]}
    residual_ok = all(finest[label].rel_residual < 1e-2
                      for label in EQUALITY_ROWS + ("energy_defect_sign",))
    tagged_ok = all(rec.verdict == "not_applicable"
                    for rec in flower_reports[(128, 256)]
                    if rec.hypothesis_class == "dirichlet_and_constant_neumann")

    orders = {}
    decay_ok = True
    for label in EQUALITY_ROWS + ("energy_defect_sign",):
        seq = [dict((r.label, r) for r in flower_reports[g])[label].rel_residual
               for g in BALL_GRIDS]
        if max(seq) < 1e-10:
            orders[label] = "floor"      # nothing left to decay
            continue
        pair = [math.log2(seq[k] / seq[k + 1]) for k in range(2)]
        orders[label] = f"{pair[0]:.2f}/{pair[1]:.2f}"
        decay_ok &= all(1.0 <= o <= 3.5 for o in pair)

    ok = residual_ok and tagged_ok and decay_ok
    report_line(capsys, 4, ok,
                "finest residuals "
                + ", ".join(f"{l}={finest[l].rel_residual:.1e}" for l in EQUALITY_ROWS)
                + f"; decay orders {orders}")
    assert residual_ok, {l: finest[l].rel_residual for l in EQUALITY_ROWS}
    assert tagged_ok
    assert decay_ok, orders


def test_criterion_5_rigidity_contrast(capsys):
    offsets = (0.0, 0.05, 0.1, 0.2)
    sph_rows = sweep(offset_family(math.pi / 4, offsets), SPHERE, 128, 256)
    euc_rows = sweep(offset_family(1.0, offsets), EUCLID, 128, 256)
    sph_j = [row.j for row in sph_rows]
    euc_j = [row.j for row in euc_rows]
    increasing = all(sph_j[k] < sph_j[k + 1] for k in range(3))
    euclid_floor = max(euc_j) < 1e-4
    ratio = sph_j[3] / max(euc_j[3], 1e-300)
    ok = increasing and euclid_floor and ratio >= 100.0
    report_line(capsys, 5, ok,
                f"J_sphere {['%.1e' % j for j in sph_j]}, "
                f"max J_euclid {max(euc_j):.1e}, ratio {ratio:.1e}")
    assert increasing, sph_j
    assert euclid_floor, euc_j
    assert ratio >= 100.0


def test_criterion_6_shape_recovery(capsys):
    start = time.perf_counter()
    trace = optimize_shape(StarDomain(math.pi / 4, (0.0, 0.1)), 2, SPHERE,
                           budget=400, ns=64, ntheta=128)
    elapsed = time.perf_counter() - start
    rho = trace.best_domain.rho(np.linspace(0.0, 2 * math.pi, 1024, endpoint=False))
    roundness = float((np.max(rho) - np.min(rho)) / np.mean(rho))
    ok = (trace.best_j < 1e-5 and roundness < 0.02
          and trace.evaluations <= 400 and elapsed < 300.0)
    report_line(capsys, 6, ok,
                f"J {trace.best_j:.1e}, roundness {roundness:.1e}, "
                f"{trace.evaluations} evaluations, {elapsed:.1f}s, {trace.status}")
    assert trace.best_j < 1e-5
    assert roundness < 0.02
    assert trace.evaluations <= 400
    assert elapsed < 300.0


def test_criterion_7_conformal_ratio(capsys, ball_solves):
    fields, _ = ball_solves
    ratio = conformal_check(fields[(128, 256)])
    deviation = float(np.max(np.abs(ratio - 2.0)))
    ok = deviation < 5e-3
    report_line(capsys, 7, ok, f"max |ratio - 2| = {deviation:.1e}")
    assert deviation < 5e-3


def test_criterion_8_hyperbolic_equality(capsys):
    worst_gap = worst_defect = 0.0
    all_pass = True
    for n in (2, 3):
        for R in (0.5, 1.0):
            cat = compute_catalog(radial_torsion_solution(HYPER, n, R))
            report = identity_report(cat, 1e-8)
            all_pass &= all(rec.verdict == "pass" for rec in report)
            worst_gap = max(worst_gap, abs(cat.bw_gap))
            worst_defect = max(worst_defect, abs(cat.energy_defect))
    ok = all_pass and worst_gap < 1e-10 and worst_defect == 0.0
    report_line(capsys, 8, ok,
                f"all rows pass: {all_pass}, max |gap| {worst_gap:.1e}, "
                f"max |defect| {worst_defect:.1e}")
    assert all_pass
    assert worst_gap < 1e-10
    assert worst_defect == 0.0
