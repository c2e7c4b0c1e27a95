"""Percentiles of one run and the spread of a metric across runs."""

import math
import statistics


def percentile(samples, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values):
    """Median, quartiles and relative spread of one metric over runs.

    The spread is the distance between the first and third quartile
    (``statistics.quantiles(values, n=4)``) as a share of the median —
    the figure the acceptance check holds against a metric's bound."""
    mid = statistics.median(values)
    if len(values) < 2:
        return {"median": mid, "q1": mid, "q3": mid, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0}
