#!/usr/bin/env python3
"""Digest the CLI output of a fixed set of runs.

Prints one line ``<run> <exit code> <sha256[:16]>`` per run, the digest
being of the run's stdout.  The runs are solve (at 32x64, and on a 64x128
ball, the grid of the benchmark's ``ball_solve``), verify, radial (at
n = 2, 3 and 5) and sweep in every geometry, three rigidity descents, a
sweep whose offsets include -0.0 and 0, a euclidean radial at R0 = 5,
n = 5 and verify at R0 = 40, and the run configs in this directory, each
in both output formats.  The last lines,
``pointwise/<geometry>/n<k> 0 <sha256[:16]>``, digest the ``repr``s of the
three pointwise residuals at 50 midpoint radii of R0 = 0.7 instead, for
n = 2, 3 and 5; they run no CLI, so their code is always 0.
``torsionlab`` is imported from this checkout's ``src``, so running the
script in two checkouts and comparing the outputs shows whether a change
keeps the CLI bytes:

    python3 scripts/cli_digests.py > before.txt   # in the first checkout
    python3 scripts/cli_digests.py > after.txt    # in the second
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS.parent / "src"))

from torsionlab import (  # noqa: E402
    GEOMETRIES,
    bochner_residual,
    newton_equality_check,
    pohozaev_pointwise_residual,
    radial_torsion_solution,
)
from torsionlab.cli import RunConfig, main  # noqa: E402

GRID = ["--Ns", "32", "--Ntheta", "64"]
STAR = ["--a1", "0.05", "--b2", "0.1", "--a3", "-0.04"]
# Each run is at R0 = 0.7; radial keeps the default Ns of 64 samples.
GEOMETRY_RUNS = {
    "solve": ["--command", "solve", *GRID],
    "solve-star": ["--command", "solve", *GRID, *STAR],
    "solve-64x128": ["--command", "solve", "--Ns", "64", "--Ntheta", "128"],
    "verify": ["--command", "verify", *GRID],
    "verify-star": ["--command", "verify", *GRID, *STAR],
    "radial": ["--command", "radial", "--n", "3"],
    "radial-n2": ["--command", "radial", "--n", "2"],
    "radial-n5": ["--command", "radial", "--n", "5"],
    "sweep-ball": ["--command", "sweep", *GRID, "--family", "ball",
                   "--family_values", "0.3,0.6,0.9"],
    "sweep-offset": ["--command", "sweep", *GRID, "--family", "offset",
                     "--family_values", "0,0.1"],
}


def runs():
    """(name, argv) of every run, in print order."""
    for geometry in GEOMETRIES:
        for fmt in ("csv", "json"):
            for name, args in GEOMETRY_RUNS.items():
                yield (f"{geometry}/{name}/{fmt}",
                       ["--geometry", geometry, "--R0", "0.7", *args,
                        "--format", fmt])
    descent = ["--command", "rigidity", "--Ns", "16", "--Ntheta", "32",
               "--a1", "0.05", "--a2", "-0.06", "--b2", "0.04"]
    for fmt in ("csv", "json"):
        yield f"rigidity/{fmt}", ["--command", "rigidity", "--format", fmt]
        yield f"rigidity-16x32/{fmt}", [*descent, "--format", fmt]
        yield (f"rigidity-hyperbolic-16x32/{fmt}",
               [*descent, "--geometry", "hyperbolic", "--R0", "0.8", "--format", fmt])
    # Offsets -0.0 and 0 print as "-0" and "0" in the parameter column.
    signed_zero = ["--command", "sweep", *GRID, "--family", "offset",
                   "--family_values", "-0.0,0,0.1"]
    for fmt in ("csv", "json"):
        yield f"sweep-signed-zero/{fmt}", [*signed_zero, "--format", fmt]
    # Large euclidean balls, whose integrals reach 1e6: the catalog and the
    # inequality verdicts must not depend on the scale of the problem.
    large = {"radial-R5-n5": ["--command", "radial", "--R0", "5", "--n", "5"],
             "verify-R40": ["--command", "verify", "--R0", "40", *GRID]}
    for name, args in large.items():
        for fmt in ("csv", "json"):
            yield (f"euclidean/{name}/{fmt}",
                   ["--geometry", "euclidean", *args, "--format", fmt])
    for path in sorted(SCRIPTS.glob("*.cfg")):
        for fmt in ("csv", "json"):
            yield f"{path.name}/{fmt}", [str(path), "--format", fmt]


def _hex(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(argv):
    """Exit code and the first 16 hex digits of the stdout's sha256."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, _hex(out.getvalue())


def pointwise_digests():
    """(name, digest) of the pointwise residuals per geometry and n."""
    R, samples = 0.7, 50
    for geometry in GEOMETRIES:
        profile = RunConfig(geometry=geometry).profile()
        for n in (2, 3, 5):
            sol = radial_torsion_solution(profile, n, R)
            reprs = [repr(residual(sol, R * (j - 0.5) / samples))
                     for j in range(1, samples + 1)
                     for residual in (bochner_residual,
                                      pohozaev_pointwise_residual,
                                      newton_equality_check)]
            yield f"pointwise/{geometry}/n{n}", _hex("\n".join(reprs))


if __name__ == "__main__":
    for name, argv in runs():
        code, hexdigest = digest(argv)
        print(f"{name} {code} {hexdigest}", flush=True)
    for name, hexdigest in pointwise_digests():
        print(f"{name} 0 {hexdigest}", flush=True)
