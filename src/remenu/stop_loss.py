"""Optimal menu of stop-loss policies.

For a fixed kink tau the pointwise-optimal deductible is

    a > tau :  theta*_k /\\ tau
    a = tau :  theta*_k          if tau >= xi_k, else null
    a < tau :  null,

with per-type profit density Phi: tau - xi_k for a served type, or
-H[(X_k - tau)_+] where the cap theta*_k > tau binds (possible only for tau
below sup_k theta*_k).  ``objective(tau, dist, cost, profile=None)`` and
``solve(dist, cost, grid_points, refine_tol)`` are the shared threshold
menu's (see ``threshold``) for this class; the scalar rule below is kept as
an independent reference for them.
"""

from __future__ import annotations

import math
from functools import partial

from . import threshold
from .risk_model import CostFunctional, LossModel


def optimal_deductible(tau: float, a: float, cost: CostFunctional, loss: LossModel) -> float:
    """Pointwise-optimal deductible for a type at risk level a given kink tau."""
    if a > tau:
        return min(cost.theta_star(loss), tau)
    if a == tau:
        return cost.theta_star(loss) if tau >= cost.xi(loss) else math.inf
    return math.inf


def phi(tau: float, a: float, cost: CostFunctional, loss: LossModel) -> float:
    """Per-type profit density at the pointwise-optimal deductible."""
    d = optimal_deductible(tau, a, cost, loss)
    if math.isinf(d):
        return 0.0
    slc = cost.stop_loss_cost(loss, d)
    return max(a - d, 0.0) - slc - max(a - tau, 0.0)


class StopLossMenu(threshold.ThresholdMenu):
    contract_class = "stop_loss"


objective = partial(threshold.objective, "stop_loss")
solve = partial(threshold.solve, StopLossMenu)
