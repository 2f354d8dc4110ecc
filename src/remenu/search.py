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


def first_maximum(taus, vals) -> tuple[float, float]:
    """(tau_star, value) at the first maximum of vals over the kinks taus;
    tau_star is +inf, at value 0.0, when shutting everyone down pays more."""
    i = int(np.argmax(vals))
    tau, val = float(taus[i]), float(vals[i])
    return (tau, val) if val >= 0.0 else (math.inf, 0.0)


def maximize_over_tau(
    objective: Callable,
    lo: float,
    hi: float,
    grid_points: int = 10001,
    refine_tol: float = 1e-6,
) -> tuple[float, float]:
    """first_maximum of objective on [lo, hi] over the best kinks of a grid
    scan, then of rounds of _ZOOM_POINTS kinks over the two intervals around
    the last round's best kink, each scan and round one array call.  A
    kink must strictly improve to displace the best.
    Rounds stop once the bracket is at most 0.1 * refine_tol * max(1, |tau|)
    wide or no narrower than the last one (float resolution)."""
    taus, width, rounds = np.linspace(lo, hi, grid_points), math.inf, []
    while True:
        vals = objective(taus)
        i = int(np.argmax(vals))
        rounds.append((taus[i], vals[i]))
        b_lo, b_hi = float(taus[max(i - 1, 0)]), float(taus[min(i + 1, len(taus) - 1)])
        tol = 0.1 * refine_tol * max(1.0, abs(0.5 * (b_lo + b_hi)))
        if not tol < b_hi - b_lo < width:
            return first_maximum(*zip(*rounds))
        taus, width = np.linspace(b_lo, b_hi, _ZOOM_POINTS), b_hi - b_lo
