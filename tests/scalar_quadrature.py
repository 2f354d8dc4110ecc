"""The scalar quadrature routines the library used before it priced arrays,
kept as oracles: first_true bisects a monotone predicate of one float to
float resolution, and tail_gauss prices one tail with the same doubling
segments, kink splits and geometric stop as quadrature.tail_gauss, summing
each segment's nodes with a matrix product."""

import math
import sys
from typing import Callable

import numpy as np

from remenu.errors import DivergenceError

_TINY = sys.float_info.min  # smallest normal float


def tail_gauss(f: Callable, lo: float, hi: float, scale: float, splits=()) -> float:
    """Integral over [lo, hi] (hi may be inf) of a nonnegative nonincreasing f.

    Segments [e_j, e_j + min(scale 2^j, (hi - e_j) / 2)] from e_0 = lo double
    away from lo and halve their distance to a finite hi; each, split at the
    kinks in splits, takes 24-node Gauss-Legendre, 16 segments per call of f.
    With r the larger of the last two segment ratios, the rest after segment j
    is about seg_{j-1} r^2 / (1 - r); the sum stops once r < 1 and that is at
    most 1e-13 |total|.  A subnormal total cannot meet that test, so it stops
    at its first zero segment instead: f is nonincreasing, so the rest is 0.
    (After a normal total a zero may be a survival that underflowed under a
    steep h, and proves nothing.)  DivergenceError when it has not stopped
    within 1024 segments, or when an edge overflows.
    """
    if not scale > 0.0:
        raise ValueError(f"segment scale must be positive, got {scale!r}")
    u, w = np.polynomial.legendre.leggauss(24)
    pts = np.asarray(splits, dtype=float)
    total, prev, last, r, edges = 0.0, 0.0, math.inf, math.nan, [float(lo)]
    for n in range(0, 1024, 16):
        edges = edges[-1:]
        for j in range(n, n + 16):
            nxt = edges[-1] + min(scale * 2.0**j, 0.5 * (hi - edges[-1]))
            if not nxt < math.inf:
                break
            edges.append(nxt)
        e = np.array(edges)
        cuts = np.union1d(e, pts[(e[0] < pts) & (pts < e[-1])])
        half = 0.5 * np.diff(cuts)
        y = np.asarray(f(cuts[:-1, None] + half[:, None] * (u + 1.0)), dtype=float)
        for seg in np.bincount(np.searchsorted(e, cuts[:-1], side="right") - 1, half * (y @ w), len(e) - 1):
            total += seg
            ratio = seg / prev if prev > 0.0 else math.inf
            r, last = max(ratio, last), ratio
            if (seg == 0.0 and abs(total) < _TINY) or (r < 1.0 and prev * r * r / (1.0 - r) <= 1e-13 * abs(total)):
                return total
            prev = seg
        if len(edges) <= 16:  # the next edge overflows
            break
    raise DivergenceError(f"tail integral from d={lo!r} does not settle by edge {edges[-1]:.6g}, last ratio r={r:.6g}")


def first_true(pred: Callable[[float], bool], hi: float = math.inf) -> float:
    """Smallest x in [0, hi] at which a monotone predicate (false, then true)
    holds, bisected to float resolution; +inf if it holds nowhere there.

    An infinite hi is bracketed by doubling from 1, at most 300 times.
    """
    lo = 0.0
    if pred(lo):
        return lo
    if math.isinf(hi):
        hi = 1.0
        for _ in range(300):
            if pred(hi):
                break
            lo, hi = hi, 2.0 * hi
        else:
            return math.inf
    elif not pred(hi):
        return math.inf
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return hi
