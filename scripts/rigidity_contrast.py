#!/usr/bin/env python3
"""Offset-disk contrast experiment: sphere versus plane.

Sweeps the Neumann-deviation objective J over a family of displaced disks
at matched radius and resolution.  On the hemisphere J grows with the
offset (only pole-centered balls admit a constant trace); in the plane
every disk works and J stays at the discretization floor.
"""

import argparse
import math

from torsionlab import offset_family, sweep
from torsionlab.cli import RunConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=math.pi / 4,
                    help="disk radius on the sphere (euclidean run uses 1.0)")
    ap.add_argument("--offsets", type=float, nargs="+",
                    default=(0.0, 0.05, 0.1, 0.2))
    ap.add_argument("--ns", type=int, default=128)
    ap.add_argument("--ntheta", type=int, default=256)
    args = ap.parse_args()

    sphere = RunConfig(geometry="spherical").profile()
    plane = RunConfig(geometry="euclidean").profile()

    sph_rows = sweep(offset_family(args.radius, args.offsets), sphere,
                     args.ns, args.ntheta)
    euc_rows = sweep(offset_family(1.0, args.offsets), plane,
                     args.ns, args.ntheta)

    print(f"# grid {args.ns}x{args.ntheta}, spherical R = {args.radius:.6g}, "
          f"euclidean R = 1")
    print(f"{'offset':>8} {'J sphere':>12} {'J euclid':>12} {'ratio':>10}")
    for s_row, e_row in zip(sph_rows, euc_rows):
        ratio = s_row.j / max(e_row.j, 1e-300)
        print(f"{s_row.parameter:>8.3f} {s_row.j:>12.3e} {e_row.j:>12.3e} "
              f"{ratio:>10.1e}")

    worst = max(row.j for row in euc_rows)
    print(f"# euclidean family stays below {worst:.3e}; "
          f"spherical J is monotone: "
          f"{all(a.j < b.j for a, b in zip(sph_rows, sph_rows[1:]))}")


if __name__ == "__main__":
    main()
