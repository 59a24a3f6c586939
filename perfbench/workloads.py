"""The four workloads: seeded studies, the op each input drives, and its check.

Every op is one call of ``torsionlab.cli.main`` with generated ``--key value``
flags, writing its output with the CLI's own ``out`` key; ``radial_catalog``
ops add a pointwise identity scan.  A workload's *study* is a list of inputs
drawn from ``random.Random("<workload>:<seed>")``, one from each stratum of
the workload (geometry, radius band, ...).  A run repeats the same study in
passes.  Checks read the written files after the timed loop.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from torsionlab import cli, closed_form

GEOMETRIES = cli.GEOMETRIES
# The CLI's profile bound: it rejects a domain that reaches r_max.
R_MAX = {g: cli.RunConfig(geometry=g).profile().r_max for g in GEOMETRIES}
# Inputs go up to this share of the largest radius the CLI accepts.
EDGE = 0.999

# Largest radius a domain of each geometry reaches in ball_solve and
# flower_verify.  The euclidean and spherical ranges reach the CLI's bound.
# The hyperbolic one stops at 5, where the values the package computes grow
# like e^(nR), for two reasons found at the seed commit:
# - resolution: the error of a 64x128 ball solve grows with R (7e-4 at R = 5,
#   3e-3 at R = 10, 4x less at 128x256), so the closed-form check below would
#   reject a correct second-order solve beyond R ~ 6; a 128x256 star domain
#   fails energy_split by 1.1% at R0 = 12;
# - the units defect (ROADMAP item 5): verify compares the absolute slack of
#   energy_defect_sign with the relative report_tol, so hyperbolic star
#   domains fail it from R0 ~ 9.5 (slack -1e14 at R0 = 10).
R_TOP = {"euclidean": EDGE * R_MAX["euclidean"],
         "spherical": EDGE * R_MAX["spherical"],
         "hyperbolic": 5.0}
# Ball radii: each range is split into BALL_BANDS log-spaced bands, and the
# study draws one radius from every band of every geometry.
BALL_RADII = {g: (0.01, R_TOP[g]) for g in GEOMETRIES}
BALL_BANDS = 8
# Mean radius of a star domain: log-uniform in the lower or the upper half
# (geometric midpoint) of the range from FLOWER_R0_MIN up to the largest R0
# whose boundary stays within R_TOP for the drawn coefficients.
FLOWER_R0_MIN = 0.01
# Radial ranges.  Spherical runs to just below r_max.  Euclidean and
# hyperbolic stop below a defect of the seed commit, the same units defect
# in another form: the catalog quadrature checks its absolute error estimate
# against a fixed tolerance, so `radial` raises QuadratureError, an uncaught
# traceback and no documented exit code, once the integrands grow large:
# euclidean from R0 ~ 4.06 (n = 5) to ~ 7.9 (n = 2), hyperbolic from
# R0 ~ 1.585 (n = 5) to ~ 2.5 (n = 2).  The benchmark needs workloads on
# which no op fails; tests/test_perfbench.py holds the failing inputs as
# strict expected failures, so a fix of the defect shows there.  The study
# draws R near the lower edge, in RADIAL_MID_BANDS log-spaced bands inside,
# and near the upper edge.
RADIAL_RADII = {"euclidean": (0.01, 3.5),
                "spherical": (0.01, EDGE * R_MAX["spherical"]),
                "hyperbolic": (0.01, 1.5)}
RADIAL_MID_BANDS = 3
RADIAL_DIMENSIONS = (2, 3, 4, 5)
SCAN_POINTS = 50

BALL_GRID = ("64", "128")
FLOWER_GRID = ("128", "256")
DESCENT_GRID = ("16", "32")

# Accuracy a correct 64x128 ball solve reaches over the radius ranges above
# (second order: at worst 7.3e-4, at hyperbolic R = 5).
BALL_ERR_MAX = 1e-3
BALL_NEUMANN_ERR_MAX = 1e-3
CLOSED_FORM_MAX = 1e-10
DESCENT_J_MAX = 1e-5
DESCENT_ROUNDNESS_MAX = 0.02
DESCENT_BUDGET = 400
DESCENT_AMPLITUDE = 0.1

VERIFY_LABELS = (
    "pohozaev_balance", "radial_exchange", "energy_split", "energy_defect_sign",
    "perimeter_balance", "neumann_square", "bw_flux_form", "bw_exact_form",
    "pohozaev_constant_flux", "bw_lower_bound",
)
INEQUALITY_LABELS = ("energy_defect_sign", "bw_lower_bound")
REPORT_TOL = cli.RunConfig().report_tol   # verify runs with the default


class CheckFailed(AssertionError):
    """An op's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_bands(lo: float, hi: float, count: int) -> list:
    edges = [lo * (hi / lo) ** (i / count) for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _flags(params: dict) -> list:
    argv = []
    for key, value in params.items():
        argv += [f"--{key}", value if isinstance(value, str) else repr(value)]
    return argv


def _read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- ball_solve -----------------------------------------------------------

def ball_inputs(rng: random.Random) -> list:
    return [{"command": "solve", "geometry": geometry, "R0": _log_uniform(rng, a, b),
             "Ns": BALL_GRID[0], "Ntheta": BALL_GRID[1]}
            for geometry in GEOMETRIES
            for a, b in _log_bands(*BALL_RADII[geometry], BALL_BANDS)]


def ball_check(params, path, extra, profiles) -> dict:
    profile = profiles[params["geometry"]]
    R = params["R0"]
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    _require(header == "record,j,i,theta,r,value,weight", f"header {header!r}")
    ns, nt = int(BALL_GRID[0]), int(BALL_GRID[1])
    nodes, neumann = lines[:ns * nt], lines[ns * nt:]
    _require(len(neumann) == nt
             and all(line.startswith("node,") for line in nodes)
             and all(line.startswith("neumann,") for line in neumann),
             f"expected {ns * nt} node rows then {nt} neumann rows")
    r, u = np.loadtxt(nodes, delimiter=",", usecols=(4, 5), ndmin=2).T
    exact = profile.H(r) - profile.H(R)
    err = float(np.max(np.abs(u - exact)) / np.max(np.abs(exact)))
    _require(err < BALL_ERR_MAX, f"max relative error {err:.3e} against the closed form")
    c = np.loadtxt(neumann, delimiter=",", usecols=(5,), ndmin=1)
    c_err = float(np.max(np.abs(c - profile.h(R))) / profile.h(R))
    _require(c_err < BALL_NEUMANN_ERR_MAX,
             f"Neumann trace off h(R) by {c_err:.3e} relative")
    return {"max_err_rel": err}


# --- flower_verify --------------------------------------------------------

def flower_inputs(rng: random.Random) -> list:
    study = []
    for geometry in GEOMETRIES:
        for band in (0, 1):
            coeffs = {f"{rng.choice('ab')}{k}": rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15)
                      for k in rng.sample(range(2, 7), rng.randint(1, 2))}
            # The boundary radius never exceeds R0 (1 + sum |c|).
            hi = R_TOP[geometry] / (1.0 + sum(abs(c) for c in coeffs.values()))
            lo, hi = _log_bands(FLOWER_R0_MIN, hi, 2)[band]
            study.append({"command": "verify", "geometry": geometry,
                          "R0": _log_uniform(rng, lo, hi), **coeffs,
                          "Ns": FLOWER_GRID[0], "Ntheta": FLOWER_GRID[1]})
    return study


def flower_check(params, path, extra, profiles) -> dict:
    rows = _read_rows(path)
    _require(tuple(row["label"] for row in rows) == VERIFY_LABELS,
             f"unexpected report rows {[row['label'] for row in rows]}")
    worst = 0.0
    for row in rows:
        label, verdict = row["label"], row["verdict"]
        # Constant-Neumann rows apply only when the trace is near-constant,
        # which the CLI decides; every other row always applies.
        if verdict == "not_applicable":
            _require(row["hypothesis_class"] == "dirichlet_and_constant_neumann",
                     f"{label}: not applicable")
            continue
        _require(verdict == "pass", f"{label}: verdict {verdict}")
        if label in INEQUALITY_LABELS:
            _require(float(row["abs_residual"]) >= -REPORT_TOL,
                     f"{label}: slack {row['abs_residual']} reported as pass")
        else:
            rel = float(row["rel_residual"])
            _require(rel <= REPORT_TOL, f"{label}: rel_residual {rel} reported as pass")
            worst = max(worst, rel)
    return {"identity_rel.max": worst}


# --- shape_descent --------------------------------------------------------

def descent_inputs(rng: random.Random) -> list:
    """One start per sign octant of (a1, a2, b2), each uniform in +-0.1."""
    study = []
    for signs in itertools.product((-1.0, 1.0), repeat=3):
        a1, a2, b2 = (s * rng.uniform(0.0, DESCENT_AMPLITUDE) for s in signs)
        study.append({"command": "rigidity", "geometry": "spherical", "R0": math.pi / 4,
                      "a1": a1, "a2": a2, "b2": b2, "modes": "2",
                      "budget": str(DESCENT_BUDGET),
                      "Ns": DESCENT_GRID[0], "Ntheta": DESCENT_GRID[1]})
    return study


def descent_check(params, path, extra, profiles) -> dict:
    rows = _read_rows(path)
    _require(bool(rows), "empty rigidity trace")
    last = rows[-1]
    _require(last["status"] in ("target reached", "simplex collapsed"),
             f"descent ended with status {last['status']!r}")
    evaluations = int(last["evaluations"])
    _require(evaluations <= DESCENT_BUDGET, f"{evaluations} evaluations")
    j = float(last["j"])
    _require(j < DESCENT_J_MAX, f"J = {j:.3e}")
    theta = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    rho = float(last["r0"]) * (
        1.0 + sum(float(last[f"a{k}"]) * np.cos(k * theta)
                  + float(last[f"b{k}"]) * np.sin(k * theta) for k in (1, 2)))
    roundness = float((rho.max() - rho.min()) / rho.mean())
    _require(roundness < DESCENT_ROUNDNESS_MAX, f"roundness {roundness:.3e}")
    return {}


# --- radial_catalog -------------------------------------------------------

def radial_bands(geometry: str) -> list:
    """Radius bands of one geometry: lower edge, inside bands, upper edge."""
    lo, hi = RADIAL_RADII[geometry]
    return [(lo, 2.0 * lo), *_log_bands(2.0 * lo, 0.9 * hi, RADIAL_MID_BANDS), (0.9 * hi, hi)]


def radial_inputs(rng: random.Random) -> list:
    return [{"command": "radial", "geometry": geometry, "n": str(n),
             "R0": _log_uniform(rng, a, b)}
            for geometry in GEOMETRIES
            for a, b in radial_bands(geometry)
            for n in RADIAL_DIMENSIONS]


def radial_scan(params, profiles) -> float:
    """Largest pointwise identity residual at SCAN_POINTS midpoint radii."""
    sol = closed_form.radial_torsion_solution(
        profiles[params["geometry"]], int(params["n"]), params["R0"])
    worst = 0.0
    for j in range(1, SCAN_POINTS + 1):
        r = params["R0"] * (j - 0.5) / SCAN_POINTS
        worst = max(worst,
                    abs(closed_form.bochner_residual(sol, r)),
                    abs(closed_form.pohozaev_pointwise_residual(sol, r)),
                    abs(closed_form.newton_equality_check(sol, r)))
    return worst


def radial_check(params, path, extra, profiles) -> dict:
    rows = _read_rows(path)
    samples = [row for row in rows if row["record"] == "sample"]
    catalog = {row["name"]: float(row["value"])
               for row in rows if row["record"] == "catalog"}
    _require(len(samples) == 2 * cli.RunConfig().Ns,
             f"{len(samples)} sample rows")
    for name in ("bw_gap", "energy_defect"):
        _require(abs(catalog[name]) < CLOSED_FORM_MAX, f"{name} = {catalog[name]:.3e}")
    _require(extra < CLOSED_FORM_MAX, f"pointwise residual {extra:.3e}")
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable                 # rng -> the study: one flag dict per stratum
    check: Callable                  # (params, out path, extra, profiles) -> dict
    scan: Callable | None = None     # (params, profiles) -> extra, timed with the op


WORKLOADS = {w.name: w for w in (
    Workload("ball_solve", ball_inputs, ball_check),
    Workload("flower_verify", flower_inputs, flower_check),
    Workload("shape_descent", descent_inputs, descent_check),
    Workload("radial_catalog", radial_inputs, radial_check, radial_scan),
)}


def study(workload: Workload, seed: int) -> list:
    """The inputs one pass of ``workload`` runs; the same seed gives the same list."""
    return workload.inputs(random.Random(f"{workload.name}:{seed}"))


def build_profiles() -> dict:
    return {g: cli.RunConfig(geometry=g).profile() for g in GEOMETRIES}


def run_op(workload: Workload, params: dict, out_path: str, profiles: dict):
    """One closed-loop op: the CLI call, then the scan if the workload has one.

    Returns (exit code, extra).  ``cli.main`` is looked up on every call so a
    traced run sees its wrapper.
    """
    code = cli.main(_flags(params) + ["--out", out_path])
    extra = workload.scan(params, profiles) if workload.scan else None
    return code, extra
