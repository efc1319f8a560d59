"""Order statistics the benchmark reports."""

from __future__ import annotations

import mpmath


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics, weights from the Beta((n+1)/2, (n+1)/2) distribution.

    A batch mixes verdicts of very different cost, so its sorted times have
    gaps; the plain median jumps from one verdict to the next when two
    neighbours swap, and this estimate moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("median of no values")
    a = b = mpmath.mpf(n + 1) / 2
    total = mpmath.mpf(0)
    for i, x in enumerate(xs):
        w = mpmath.betainc(a, b, mpmath.mpf(i) / n, mpmath.mpf(i + 1) / n, regularized=True)
        total += w * x
    return float(total)
