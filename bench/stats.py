"""Tail percentile for per-job samples."""

from __future__ import annotations

import math

# A tail percentile is reported only with this many samples above it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q < 100) of values.

    Refuses a tail estimate that rests on fewer than MIN_BEYOND samples
    above the chosen rank: with 100 samples p90 has exactly 10 beyond it.
    The median (q = 50) is always allowed.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if q > 50 and len(xs) - rank < MIN_BEYOND:
        raise ValueError("p%g of %d samples has only %d beyond it (need %d)"
                         % (q, len(xs), len(xs) - rank, MIN_BEYOND))
    return xs[rank - 1]

