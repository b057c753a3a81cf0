"""Order statistics the benchmark reports."""

import statistics


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks, the same rule as numpy's default."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return n - int(n * p / 100.0)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf") if q3 != q1 else 0.0
