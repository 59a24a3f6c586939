"""The machine's pace: a fixed piece of reference work, timed between ops.

On a shared VM the same op can run 1.6-1.8x slower for seconds to minutes
at a time, and a whole run can fall into such a stretch.  The reference
work slows with it: it is a sparse incomplete LU and solve on a 96x96 grid
Laplacian, whose memory traffic is like the package's own.  ``run.py``
times it before every set-up probe and before an op once ``INTERVAL_S`` has
passed since the last time, and scales each time by
``NOMINAL_S / reference time``, which gives the time at a fixed pace.  The
reference work never calls torsionlab, so a change to the package cannot
move it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import spilu

# Median reference time on the x86_64 VM where the baseline was measured
# (Intel Xeon at 2.0 GHz); it only sets the scale of the paced figures.
NOMINAL_S = 0.047
# Machine speed changes over seconds, so one reference per half second
# follows it; ops that take longer get one each.
INTERVAL_S = 0.5

_N = 96
_LINE = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_LAPLACIAN = (kron(identity(_N), _LINE) + kron(_LINE, identity(_N))).tocsc()
_RHS = np.ones(_N * _N)


def reference_time() -> float:
    start = time.perf_counter()
    spilu(_LAPLACIAN, drop_tol=1e-4).solve(_RHS)
    return time.perf_counter() - start


def paced(seconds: float, reference: float) -> float:
    """``seconds`` measured next to a reference time, at the nominal pace."""
    return seconds * NOMINAL_S / reference


class Pacer:
    """The latest reference time, taken again once INTERVAL_S has passed."""

    def __init__(self, clock=time.perf_counter, measure=reference_time):
        self.clock = clock
        self.measure = measure
        self.reference = None
        self.taken = -math.inf

    def before_op(self) -> float:
        if self.clock() - self.taken >= INTERVAL_S:
            self.reference = self.measure()
            self.taken = self.clock()
        return self.reference
