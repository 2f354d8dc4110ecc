"""Per-type menu rules, kept as independent references for the library's
array routes: the stop-loss pointwise-optimal deductible at a kink tau, its
profit density and the curve B_X(d) that theta* maximizes, and the threshold
menu's terms of every class as boolean gathers and scatters priced them."""

import math

import numpy as np

from remenu import CostFunctional, LossModel
from remenu.threshold import reference


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


def masked_terms(menu, a, k):
    """ThresholdMenu.terms with theta*_k and the premium computed on the
    served types only, gathered and scattered through boolean masks."""
    a, k = np.broadcast_arrays(np.atleast_1d(np.asarray(a, float)), np.asarray(k, float))
    tau, kind, prof = menu.tau_star, menu.contract_class, menu.profile
    served = a > tau
    kink = a == tau
    if kink.any():
        served[kink] = tau >= reference(kind, prof)(k[kink])
    if kind == "quota_share":
        d = np.zeros(a.shape)
    else:
        d = np.full(a.shape, math.inf)
        d[served] = prof.theta_star(k[served])
        d = np.where(a > tau, np.minimum(d, tau), d)
    premium = np.zeros(a.shape)
    premium[served] = tau - d[served]
    return served, d, premium
