"""Deterministic quadrature rules and a bisection for monotone predicates.

All routines are pure and use fixed node sets so that repeated runs are
bitwise identical.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def split_edges(lo: float, hi: float, points: Sequence[float]) -> list[float]:
    """Sorted segment edges for [lo, hi] with forced splits at interior points."""
    inner = sorted({float(p) for p in points if lo < p < hi})
    return [lo, *inner, hi]


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_depth: int = 13,
) -> float:
    """Composite Simpson with uniform interval doubling until the estimate is
    stable to tol (absolute, with a relative guard for large values).

    f must accept a 1-d numpy array.
    """
    if hi <= lo:
        return 0.0
    prev = None
    n = 4
    for _ in range(max_depth):
        x = np.linspace(lo, hi, n + 1)
        y = np.asarray(f(x), dtype=float)
        h = (hi - lo) / n
        s = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
        if prev is not None and abs(s - prev) <= tol * max(1.0, abs(s)):
            return s
        prev = s
        n *= 2
    return prev


def adaptive_gauss_batched(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = 1e-10,
    sizes: Sequence[int] = (32, 64, 128, 256, 512),
) -> np.ndarray:
    """Batch of Gauss-Legendre integrals with increasing node counts.

    lo and hi have shape (m,); f maps an (m, p) array of abscissae to an
    (m, p) array of integrand values.  All nodes are interior, so integrands
    may jump at the segment endpoints without spoiling convergence.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = hi - lo
    live = width > 0.0
    if not live.any():
        return np.zeros_like(width)
    prev = None
    for n in sizes:
        u, w = _leggauss(n)
        x = lo[:, None] + width[:, None] * 0.5 * (u[None, :] + 1.0)
        y = np.asarray(f(x), dtype=float)
        s = 0.5 * width * (y @ w)
        s = np.where(live, s, 0.0)
        if prev is not None and np.all(np.abs(s - prev) <= tol * np.maximum(1.0, np.abs(s))):
            return s
        prev = s
    return prev


def first_true(pred: Callable[[float], bool], lo: float = 0.0, hi: float = math.inf) -> float:
    """Smallest x in [lo, hi] at which a monotone predicate (false, then true)
    holds, bisected to float resolution; +inf if it holds nowhere there.

    An infinite hi is bracketed by doubling from max(1, 2 lo), at most 300 times.
    """
    if pred(lo):
        return lo
    if math.isinf(hi):
        hi = max(1.0, 2.0 * lo)
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
        if pred(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi
