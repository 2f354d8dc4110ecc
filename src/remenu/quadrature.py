"""Deterministic Gauss-Legendre rules and a bisection for monotone predicates.

tail_gauss prices distorted tails on doubling segments that stop on a
geometric remainder estimate; adaptive_gauss_batched raises the node count
of a batch of finite integrals.  All routines are pure and use fixed node
sets, so repeated runs are bitwise identical.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DivergenceError

_TINY = sys.float_info.min  # smallest normal float
_BATCH_TOL = 1e-10  # adaptive_gauss_batched's relative change to stop at
# Its node counts, in order.  Between forced splits its integrands are smooth
# (j_general's is even constant in a there), so even a batch of every k-segment
# of a market, or of every live (alpha-segment, k node) row, mostly stops at 16.
_BATCH_SIZES = (8, 16, 32, 64, 128, 256, 512)


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


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
    u, w = _leggauss(24)
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


def adaptive_gauss_batched(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Batch of Gauss-Legendre integrals with increasing node counts.

    lo and hi have shape (m,); f maps an (m, p) array of abscissae to an
    (m, p) array of integrand values.  All nodes are interior, so integrands
    may jump at the segment endpoints without spoiling convergence.
    DivergenceError when the batch has not settled by the last node count.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    width = hi - lo
    live = width > 0.0
    if not live.any():
        return np.zeros_like(width)
    prev = None
    for n in _BATCH_SIZES:
        u, w = _leggauss(n)
        x = lo[:, None] + width[:, None] * 0.5 * (u[None, :] + 1.0)
        y = np.asarray(f(x), dtype=float)
        s = 0.5 * width * (y @ w)
        s = np.where(live, s, 0.0)
        if prev is not None and np.all(np.abs(s - prev) <= _BATCH_TOL * np.maximum(1.0, np.abs(s))):
            return s
        last, prev = prev, s
    change = np.max(np.abs(prev - last) / np.maximum(1.0, np.abs(prev)))
    raise DivergenceError(f"batched Gauss-Legendre has not settled by {n} nodes: relative change {change:.3g}")


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
