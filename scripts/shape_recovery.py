#!/usr/bin/env python3
"""Shape recovery by simplex descent of the Neumann-deviation objective.

Starts from a perturbed cap boundary and descends J over the Fourier
coefficients.  On the hemisphere the search collapses back to a round,
pole-centered ball; in the plane it is free to stop on any disk.
"""

import argparse
import math

import numpy as np

from torsionlab import StarDomain, optimize_shape
from torsionlab.cli import RunConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--geometry", default="spherical",
                    choices=("euclidean", "spherical", "hyperbolic"))
    ap.add_argument("--r0", type=float, default=math.pi / 4)
    ap.add_argument("--perturbation", type=float, default=0.1,
                    help="amplitude of the starting cos(2 theta) bump")
    ap.add_argument("--modes", type=int, default=2)
    ap.add_argument("--budget", type=int, default=400)
    ap.add_argument("--ns", type=int, default=64)
    ap.add_argument("--ntheta", type=int, default=128)
    args = ap.parse_args()

    profile = RunConfig(geometry=args.geometry).profile()
    start = StarDomain(args.r0, (0.0, args.perturbation))

    trace = optimize_shape(start, args.modes, profile, args.budget,
                           args.ns, args.ntheta)

    print(f"{'step':>5} {'evals':>6} {'J':>12} {'r0':>10} coefficients")
    for row in trace.rows:
        coeffs = ", ".join(f"{v:+.4f}" for v in row.cos_coeffs + row.sin_coeffs)
        print(f"{row.index:>5} {row.evaluations:>6} {row.j:>12.3e} "
              f"{row.r0:>10.6f} [{coeffs}]")

    theta = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    rho = trace.best_domain.rho(theta)
    roundness = float((np.max(rho) - np.min(rho)) / np.mean(rho))
    print(f"# {trace.status} after {trace.evaluations} evaluations")
    print(f"# best J = {trace.best_j:.3e}, final r0 = {trace.best_domain.r0:.6f}, "
          f"max relative radius spread = {roundness:.2e}")


if __name__ == "__main__":
    main()
