#!/usr/bin/env python3
"""Dyadic refinement study for the geodesic-ball torsion solve.

For each grid the table reports the max-norm solution error against the
closed form, the observed convergence order, the Neumann-trace deviation
from the exact constant, and the worst relative residual among the
applicable identity rows.
"""

import argparse
import math

import numpy as np

from torsionlab import (
    StarDomain,
    compute_catalog,
    identity_report,
    neumann_trace,
    solve_torsion,
)
from torsionlab.cli import GEOMETRIES, RunConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--geometry", default="spherical", choices=GEOMETRIES)
    ap.add_argument("--radius", type=float, default=math.pi / 4)
    ap.add_argument("--base-ns", type=int, default=16)
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args()

    profile = RunConfig(geometry=args.geometry).profile()
    try:
        ball = StarDomain.ball(args.radius)
    except ValueError as exc:
        ap.error(str(exc))
    c_exact = profile.h(args.radius)

    print(f"# {args.geometry} ball R = {args.radius:.6g}, c = {c_exact:.10g}")
    print(f"{'grid':>10} {'max error':>12} {'order':>6} "
          f"{'trace dev':>12} {'worst identity':>14}")

    previous = None
    for level in range(args.levels):
        ns = args.base_ns * 2 ** level
        try:
            field = solve_torsion(profile, ball, ns, 2 * ns)
        except ValueError as exc:
            ap.error(str(exc))
        exact = profile.H(field.grid.r) - profile.H(args.radius)
        error = float(np.max(np.abs(field.values - exact)))
        order = "" if previous is None else f"{math.log2(previous / error):.2f}"
        trace, _ = neumann_trace(field)
        trace_dev = float(np.max(np.abs(trace - c_exact)))
        report = identity_report(compute_catalog(field),
                                 RunConfig().report_tol)
        worst = max(rec.rel_residual for rec in report
                    if rec.verdict != "not_applicable")
        print(f"{ns:>5}x{2 * ns:<4} {error:>12.3e} {order:>6} "
              f"{trace_dev:>12.3e} {worst:>14.3e}")
        previous = error


if __name__ == "__main__":
    main()
