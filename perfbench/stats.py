"""Order statistics for op latencies."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail metric may report; the highest one that still has at
# least TAIL_MIN_BEYOND samples above it is used, so the figure always rests
# on at least that many observations.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail(samples):
    """Highest ladder percentile with >= TAIL_MIN_BEYOND samples strictly above it.

    Returns ``(percentile, value, samples_beyond)``, or ``None`` when even the
    median has fewer samples above it.
    """
    best = None
    for p in TAIL_LADDER:
        if not samples:
            break
        value = percentile(samples, p)
        beyond = sum(1 for x in samples if x > value)
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, value, beyond)
    return best


def study_time(paced, per_pass: int) -> float:
    """Time of one pass of the study: the sum over its ops of each op's
    median paced time over the run's repeats.

    Every pass runs the same inputs, so op ``i`` repeats op ``i % per_pass``
    of the first pass.  Each repeat is timed at the nominal pace
    (``pace.paced``), which takes out most of a shared machine's drift; the
    median over repeats does not depend on how many passes a run fits, and
    every input of the study, hard or easy, counts.
    """
    return sum(statistics.median(paced[k::per_pass]) for k in range(per_pass))
