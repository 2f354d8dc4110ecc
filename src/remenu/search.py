"""Outer one-dimensional search over the indirect-utility kink tau.

One rule, shared by all three classes, weighs candidate kinks against
shut-down (J(+inf) = 0): the first best wins, shut-down only if it pays more.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Kinks per zoom round: each round narrows the bracket 16-fold.
_ZOOM_POINTS = 33


def _best(objective: Callable[[np.ndarray], np.ndarray], taus: np.ndarray) -> tuple[int, float]:
    vals = objective(np.asarray(taus, dtype=float))
    i = int(np.argmax(vals))
    return i, float(vals[i])


def _or_shut_down(tau: float, val: float) -> tuple[float, float]:
    return (tau, val) if val >= 0.0 else (math.inf, 0.0)


def maximize_over_points(objective: Callable, taus) -> tuple[float, float]:
    """(tau_star, value) over the ascending candidates taus, evaluated in one
    array call of objective; tau_star is +inf when shutting everyone down
    dominates."""
    i, val = _best(objective, taus)
    return _or_shut_down(float(taus[i]), val)


def maximize_over_tau(
    objective: Callable,
    lo: float,
    hi: float,
    grid_points: int = 10001,
    refine_tol: float = 1e-6,
) -> tuple[float, float]:
    """The same on [lo, hi]: a grid scan, then rounds of _ZOOM_POINTS kinks
    over the two intervals around the last round's best kink, each scan and
    round one array call.  A kink must strictly improve to displace the best.
    Rounds stop once the bracket is at most 0.1 * refine_tol * max(1, |tau|)
    wide or no narrower than the last one (float resolution)."""
    taus, width = np.linspace(lo, hi, grid_points), math.inf
    best_tau, best_val = math.inf, -math.inf
    while True:
        i, val = _best(objective, taus)
        if val > best_val:
            best_tau, best_val = float(taus[i]), val
        b_lo, b_hi = float(taus[max(i - 1, 0)]), float(taus[min(i + 1, len(taus) - 1)])
        tol = 0.1 * refine_tol * max(1.0, abs(0.5 * (b_lo + b_hi)))
        if not tol < b_hi - b_lo < width:
            return _or_shut_down(best_tau, best_val)
        taus, width = np.linspace(b_lo, b_hi, _ZOOM_POINTS), b_hi - b_lo
