"""Tests of the benchmark's own machinery: inputs, the tail rule, spans.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import layers  # noqa: E402
import pace  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from torsionlab import cli  # noqa: E402
from torsionlab.geometry import QuadratureError  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def _study(name, seed):
    return workloads.study(workloads.WORKLOADS[name], seed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _study(name, 7) == _study(name, 7)
    assert _study(name, 7) != _study(name, 8)


def test_ball_study_has_one_radius_per_band_and_geometry():
    study = _study("ball_solve", 3)
    for geometry in workloads.GEOMETRIES:
        radii = sorted(p["R0"] for p in study if p["geometry"] == geometry)
        bands = workloads._log_bands(*workloads.BALL_RADII[geometry], workloads.BALL_BANDS)
        assert len(radii) == len(bands)
        assert all(a <= r <= b for r, (a, b) in zip(radii, bands))


def test_radial_study_reaches_both_edges_of_each_range():
    study = _study("radial_catalog", 3)
    spherical_hi = workloads.RADIAL_RADII["spherical"][1]
    assert spherical_hi < workloads.R_MAX["spherical"] <= spherical_hi / 0.99
    for geometry in workloads.GEOMETRIES:
        lo, hi = workloads.RADIAL_RADII[geometry]
        for n in workloads.RADIAL_DIMENSIONS:
            radii = [p["R0"] for p in study
                     if p["geometry"] == geometry and p["n"] == str(n)]
            assert len(radii) == len(workloads.radial_bands(geometry))
            assert min(radii) <= 2 * lo and max(radii) >= 0.9 * hi


# Inputs the CLI accepts but the seed commit fails on, just above the ranges
# the workloads draw from (see workloads.R_TOP and RADIAL_RADII).  Strict:
# once the units defect is fixed these pass, and the ranges can be widened.
@pytest.mark.xfail(raises=QuadratureError, strict=True,
                   reason="catalog quadrature uses an absolute error tolerance")
@pytest.mark.parametrize("geometry, n, R", [
    ("euclidean", 5, 4.2), ("euclidean", 2, 8.0),
    ("hyperbolic", 5, 1.6), ("hyperbolic", 2, 2.55)])
def test_radial_beyond_the_radial_ranges(geometry, n, R, tmp_path):
    path = str(tmp_path / "radial.csv")
    params = {"command": "radial", "geometry": geometry, "n": str(n), "R0": R}
    profiles = workloads.build_profiles()
    workload = workloads.WORKLOADS["radial_catalog"]
    code, extra = workloads.run_op(workload, params, path, profiles)
    assert code == 0
    workload.check(params, path, extra, profiles)


@pytest.mark.xfail(raises=workloads.CheckFailed, strict=True,
                   reason="energy_defect_sign compares an absolute slack with a relative tolerance")
def test_flower_beyond_the_hyperbolic_top(tmp_path):
    path = str(tmp_path / "verify.csv")
    params = {"command": "verify", "geometry": "hyperbolic", "R0": 10.0, "a5": -0.05,
              "Ns": workloads.FLOWER_GRID[0], "Ntheta": workloads.FLOWER_GRID[1]}
    profiles = workloads.build_profiles()
    code, _ = workloads.run_op(workloads.WORKLOADS["flower_verify"], params, path, profiles)
    workloads.flower_check(params, path, None, profiles)
    assert code == 0


def test_flower_inputs_stay_inside_the_stated_shape_family():
    for seed in range(30):
        for params in _study("flower_verify", seed):
            coeffs = {k: v for k, v in params.items() if k[0] in "ab" and k[1:].isdigit()}
            assert 1 <= len(coeffs) <= 2
            assert all(2 <= int(k[1:]) <= 6 and 0.05 <= abs(v) <= 0.15
                       for k, v in coeffs.items())
            bound = cli.RunConfig(geometry=params["geometry"]).profile().r_max
            top = params["R0"] * (1 + sum(map(abs, coeffs.values())))
            assert top <= workloads.R_TOP[params["geometry"]] < bound


def test_descent_study_has_one_start_per_sign_octant():
    study = _study("shape_descent", 3)
    signs = {tuple(p[k] > 0 for k in ("a1", "a2", "b2")) for p in study}
    assert len(study) == len(signs) == 8
    assert all(abs(p[k]) <= 0.1 for p in study for k in ("a1", "a2", "b2"))


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert stats.tail(samples) == (99.0, 990.0, 10)
    samples = [float(i) for i in range(1, 101)]
    assert stats.tail(samples) == (90.0, 90.0, 10)
    # 999 samples: p99 leaves only 9 above it, so p95 is reported.
    samples = [float(i) for i in range(1, 1000)]
    assert stats.tail(samples)[0] == 95.0


def test_tail_counts_only_samples_strictly_beyond():
    assert stats.tail([1.0] * 50 + [2.0] * 5) is None
    assert stats.tail([float(i) for i in range(15)]) is None


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("child", 2.0, 5.0, parent=0),
        Span("grandchild", 3.0, 4.0, parent=1),
        Span("child", 6.0, 8.0, parent=0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_nests_spans_and_restores_names():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    originals = (ns.inner, ns.outer)
    tracer.wrap(ns, "inner", "inner", probe=lambda result: {"result": result})
    tracer.wrap(ns, "outer", "outer")
    tracer.op = 4
    assert ns.outer(1) == 4
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.op) == ("outer", None, 4)
    assert (inner.name, inner.parent, inner.op) == ("inner", 0, 4)
    assert inner.info == {"result": 2}
    assert self_times(tracer.spans) == [2.0, 1.0]
    tracer.restore()
    assert (ns.inner, ns.outer) == originals


def test_tracer_marks_failed_calls_and_reraises():
    tracer = Tracer()
    ns = SimpleNamespace(boom=lambda: 1 / 0)
    tracer.wrap(ns, "boom", "boom")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    assert tracer.spans[0].info == {"failed": 1}
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_study_time_sums_the_median_repeat_of_each_op():
    # A study of two ops, three passes: op 0 = 3, 1, 2; op 1 = 5, 6, 4.
    assert stats.study_time([3.0, 5.0, 1.0, 6.0, 2.0, 4.0], 2) == 7.0
    assert stats.study_time([2.0, 7.0], 2) == 9.0


def test_paced_time_scales_by_the_reference():
    assert pace.paced(1.0, pace.NOMINAL_S) == 1.0
    assert pace.paced(1.0, 2 * pace.NOMINAL_S) == 0.5


def test_pacer_measures_again_only_after_the_interval():
    now = [0.0]
    references = iter([1.0, 2.0, 3.0])
    pacer = pace.Pacer(clock=lambda: now[0], measure=lambda: next(references))
    assert pacer.before_op() == 1.0
    now[0] = pace.INTERVAL_S / 2
    assert pacer.before_op() == 1.0
    now[0] = pace.INTERVAL_S
    assert pacer.before_op() == 2.0
