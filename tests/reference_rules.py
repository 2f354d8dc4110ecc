"""Scalar per-type stop-loss rules, kept as independent references for the
library's array routes: the pointwise-optimal deductible at a kink tau, its
profit density, and the curve B_X(d) that theta* maximizes."""

import math

from remenu import CostFunctional, LossModel


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


def b_curve(cost: CostFunctional, loss: LossModel, d: float) -> float:
    """B_X(d) = -d - H[(X - d)_+]; concave, maximized at theta_star."""
    return -d - cost.stop_loss_cost(loss, d)
