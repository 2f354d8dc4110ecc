"""Deterministic Gauss-Legendre rules and an exact search for monotone predicates.

tail_gauss prices distorted tails, a batch of lower limits at a time, on
doubling segments that stop on a geometric remainder estimate;
adaptive_gauss_batched raises the node count of a batch of finite integrals;
first_true finds, for a batch of rows at once, the smallest float at which a
monotone predicate holds.  Their Gauss-Legendre rules come from Newton's
method on the Legendre recurrence, without LAPACK.  All routines are pure and
use fixed node sets, so repeated runs are bitwise identical.  A tail_gauss or first_true row is its own
call bit for bit; adaptive_gauss_batched stops on the whole batch, so its rows
can differ from their own calls by rounding.
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
TAIL_RTOL = 1e-13  # tail_gauss stops once its estimated rest is at most this part of the total
_TAIL_ELEMS = 1 << 16  # Gauss nodes per block of tail_gauss rows; bounds its memory
_POW2 = 2.0 ** np.arange(1024)  # tail_gauss's segment j spans scale 2^j
_SEGS = 32  # tail_gauss's segments per row and call of f
_PROBES = np.arange(1, 64) / 64.0  # first_true's probes per row and round, as parts of the gap


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and (x^2 - 1) P_n'(x) = n (x P_n - P_{n-1}), by the three-term
    recurrence (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}."""
    p, q = x, np.ones_like(x)
    for j in range(1, n):
        p, q = ((2 * j + 1) * x * p - j * q) / (j + 1), p
    return p, n * (x * p - q)


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on [-1, 1], nodes ascending: Newton on P_n
    from cos(pi (i - 1/4) / (n + 1/2)) to a rounding-level step, nodes made
    antisymmetric, weights 2 / ((1 - x^2) P_n'^2) (1 - x^2 as (1 - x)(1 + x),
    exact near the ends) scaled to sum to 2."""
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, d = _legendre(n, x)
        step = p * ((x - 1.0) * (x + 1.0)) / d
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    x = 0.5 * (x - x[::-1])
    d = _legendre(n, x)[1]
    w = 2.0 * ((1.0 - x) * (1.0 + x)) / (d * d)
    return x, w * (2.0 / w.sum())


def gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def tail_gauss(f: Callable, lo, hi: float, scale, splits=()):
    """Integral over [lo, hi] (hi may be inf) of a nonnegative nonincreasing f,
    for a float lo (a float back) or at each entry of a 1-D array lo (an array
    back, row i equal to the call on lo[i] alone, bit for bit).

    scale broadcasts against lo; splits holds the kinks of f, 1-D (shared) or
    one row per entry of lo (NaN for none).  Segments
    [e_j, e_j + min(scale 2^j, (hi - e_j) / 2)] from e_0 = lo double away from
    lo and halve their distance to a finite hi; each, split at the kinks,
    takes 24-node Gauss-Legendre, 32 segments of every live row per call of f
    (rows in blocks of about _TAIL_ELEMS nodes).  With r the larger of the
    last two segment ratios, the rest after segment j is about
    seg_{j-1} r^2 / (1 - r); a row stops once r < 1 and that is at most
    TAIL_RTOL |total| (1e-13).  A subnormal total cannot meet that test, so
    it stops at its first zero segment instead: f is nonincreasing, so the
    rest is 0.
    (After a normal total a zero may be a survival that underflowed under a
    steep h, and proves nothing.)  DivergenceError when a row has not stopped
    within 1024 segments, or when its next edge overflows.
    """
    rows = np.atleast_1d(np.asarray(lo, dtype=float))
    scales = np.broadcast_to(np.asarray(scale, dtype=float), rows.shape)
    if not np.all(scales > 0.0):
        raise ValueError(f"segment scale must be positive, got {float(np.min(scales))!r}")
    pts = np.asarray(splits, dtype=float)
    pts = np.broadcast_to(pts if pts.ndim == 2 else pts.reshape(1, -1), (len(rows), pts.shape[-1]))
    if pts.shape[1]:
        pts = np.sort(np.where(np.isnan(pts), math.inf, pts), axis=1)
    out = np.empty(len(rows))
    step = max(1, _TAIL_ELEMS // (24 * _SEGS * (1 + pts.shape[1])))
    for s in range(0, len(rows), step):
        b = slice(s, s + step)
        out[b] = _tail_rows(f, rows[b], hi, scales[b], pts[b])
    return float(out[0]) if np.ndim(lo) == 0 else out


def _tail_rows(f: Callable, lo: np.ndarray, hi: float, scale: np.ndarray, kinks: np.ndarray) -> np.ndarray:
    """tail_gauss on one block of rows, kinks sorted in each row (inf for
    none): every row's segments in order, the ops of each row those of a
    lone row."""
    u, w = _leggauss(24)
    m, nk = kinks.shape
    out = np.empty(m)
    rows = np.arange(m)  # where each row still summing goes in out
    # Per row still summing: its last edge, running total, last segment,
    # last ratio and r.
    edge, total, prev, last, r = lo, np.zeros(m), np.zeros(m), np.full(m, math.inf), np.full(m, math.nan)
    for n in range(0, 1024, _SEGS):
        e = np.empty((len(rows), _SEGS + 1))
        e[:, 0] = edge
        with np.errstate(over="ignore", invalid="ignore"):  # past an overflow
            e[:, 1:] = scale[:, None] * _POW2[n : n + _SEGS]
            if math.isinf(hi):  # every step is scale 2^j: a running sum
                e = np.add.accumulate(e, axis=1)
            else:
                for j in range(_SEGS):
                    e[:, j + 1] = e[:, j] + np.minimum(e[:, j + 1], 0.5 * (hi - e[:, j]))
        # A row's edges end before its first one that is not finite.
        new = np.logical_and.accumulate(e[:, 1:] < math.inf, axis=1)
        e[:, 1:][~new] = math.inf
        nseg = new.sum(axis=1)
        top = e[np.arange(len(rows)), nseg]
        # Segment j of a row is cuts[:, j, :]: cut at the row's kinks inside
        # it, a kink outside giving a piece of zero width.
        cuts = np.empty((len(rows), _SEGS, nk + 2))
        cuts[..., 0], cuts[..., -1] = e[:, :-1], e[:, 1:]
        if nk:
            cuts[..., 1:-1] = np.minimum(np.maximum(kinks[:, None, :], e[:, :-1, None]), e[:, 1:, None])
        left, right = cuts[..., :-1], cuts[..., 1:]
        live = (left < right) & (right < math.inf)
        a = left[live]
        half = 0.5 * (right[live] - a)
        y = np.asarray(f(a[:, None] + half[:, None] * (u + 1.0)), dtype=float)
        pieces = np.zeros(left.shape)
        # (y * w).sum, not y @ w: a matrix product may round a lone row
        # unlike the same row of a batch.
        pieces[live] = half * (y * w).sum(axis=-1)
        # sums[:, 0] carries the row's state, sums[:, 1:] its segments,
        # each the sum of its pieces in order.
        sums = np.empty((len(rows), _SEGS + 1))
        sums[:, 1:] = pieces[..., 0]
        for i in range(1, nk + 1):
            sums[:, 1:] += pieces[..., i]
        segs = sums[:, 1:]
        # The segment loop of a lone row, unrolled over its segments.
        sums[:, 0] = total
        tot = np.add.accumulate(sums, axis=1)[:, 1:]
        sums[:, 0] = prev
        before = sums[:, :-1]
        ratios = np.empty((len(rows), _SEGS + 1))
        ratios[:, 0], ratios[:, 1:] = last, math.inf
        np.divide(segs, before, out=ratios[:, 1:], where=before > 0.0)
        rr = np.maximum(ratios[:, 1:], ratios[:, :-1])
        q = np.where(rr < 1.0, rr, 0.0)  # the remainder estimate, where it counts
        size = np.abs(tot)
        done = ((segs == 0.0) & (size < _TINY)) | ((rr < 1.0) & (before * q * q / (1.0 - q) <= TAIL_RTOL * size))
        done &= np.arange(_SEGS) < nseg[:, None]
        hit = done.any(axis=1)
        out[rows[hit]] = tot[hit, done[hit].argmax(axis=1)]
        if hit.all():
            return out
        stuck = ~hit & (nseg < _SEGS)  # the next edge overflows
        if stuck.any():
            i = int(np.argmax(stuck))
            _diverged(lo[i], top[i], rr[i, nseg[i] - 1] if nseg[i] else r[i])
        keep = ~hit
        rows, lo, scale, kinks = rows[keep], lo[keep], scale[keep], kinks[keep]
        edge, total, prev, last, r = top[keep], tot[keep, -1], segs[keep, -1], ratios[keep, -1], rr[keep, -1]
    _diverged(lo[0], edge[0], r[0])


def _diverged(lo: float, edge: float, r: float):
    raise DivergenceError(
        f"tail integral from d={float(lo)!r} does not settle by edge {edge:.6g}, last ratio r={r:.6g}"
    )


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


def first_true(pred: Callable[[np.ndarray], np.ndarray], hi=math.inf):
    """Smallest x in [0, hi] at which a monotone predicate (false, then true)
    holds, exactly; +inf if it holds nowhere there.

    A float hi gives a float; a 1-D array hi gives an array, one search per
    entry.  The bit patterns of the floats in [0, hi] order them, so the
    search runs over those integers: each round calls pred once on an
    (m, 63) array, row i holding 63 probes spread evenly over search i's
    bracket, and keeps the first false-to-true step of each row.  A round
    cuts a bracket of g patterns to about g / 64, so 11 rounds take any hi
    (at most 2^63 patterns) to adjacent patterns.  pred returns booleans
    broadcastable to that shape; an overflow on the largest probes is not
    warned about.
    """
    top = np.atleast_1d(np.asarray(hi, dtype=float)).view(np.int64)
    rows = np.arange(len(top))
    # Each row: its last false (virtually -1), 63 probes, its first true
    # (virtually top + 1, which means nowhere); and which probes hold, then
    # a true that stands for up.
    br = np.empty((len(top), 65), dtype=np.int64)
    hits = np.ones((len(top), 64), dtype=bool)
    lo, up = np.full(len(top), -1), top + 1
    with np.errstate(over="ignore"):
        for _ in range(11):
            br[:, 0], br[:, 64] = lo, up
            # lo + floor(gap j / 64): inexact past 2^53 in floats, but still
            # nondecreasing in j and below up.  A probe at lo repeats a known
            # false, and one at the virtual -1 probes 0 instead.
            np.add(lo[:, None], ((up - lo)[:, None] * _PROBES).astype(np.int64), out=br[:, 1:64])
            np.maximum(br[:, 1:64], 0, out=br[:, 1:64])
            hits[:, :63] = pred(br[:, 1:64].view(np.float64))
            k = hits.argmax(axis=1)  # the first probe that holds, 63 for none
            lo, up = br[rows, k], br[rows, k + 1]
    x = np.where(up > top, math.inf, up.view(np.float64))
    return float(x[0]) if np.ndim(hi) == 0 else x
