"""Outer one-dimensional search over the indirect-utility kink tau.

One rule, shared by all three classes, weighs candidate kinks against
shut-down (J(+inf) = 0): the first best wins, shut-down only if it pays more.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .quadrature import golden_section_max


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
    """The same on [lo, hi]: a grid scan in one array call of objective, then
    golden-section refinement around the best grid point through scalar
    calls, which must strictly improve to displace it."""
    grid = np.linspace(lo, hi, grid_points)
    i, best_val = _best(objective, grid)
    best_tau = float(grid[i])
    b_lo = float(grid[max(i - 1, 0)])
    b_hi = float(grid[min(i + 1, grid_points - 1)])
    tau_r, val_r = golden_section_max(objective, b_lo, b_hi, rel_tol=refine_tol)
    if val_r > best_val:
        best_tau, best_val = tau_r, val_r
    return _or_shut_down(best_tau, best_val)
