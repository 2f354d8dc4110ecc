"""Optimal menu of change-loss policies (lam * (x - d)_+ with lam, d free).

Valid when every type's unconstrained optimal deductible theta*_k stays
below the lowest risk level L in the market.  Under that condition the
optimum is bang-bang in lam and puts every served deductible at theta*_k,
so the change-loss menu is the stop-loss menu: the class shares the
stop-loss rule and objective and differs only in its label and in the
validity check.  A type at risk level a > tau (or a = tau with
tau >= xi_k) takes lam = 1, d = theta*_k, premium tau - theta*_k, and its
profit density is tau - xi_k.

``j_phi_cl(t, dist, cost, profile=None)`` and ``solve(dist, cost,
grid_points, refine_tol)`` are the shared threshold menu's (see
``threshold``) for this class; ``solve`` raises AssumptionError when
sup_k theta*_k exceeds L, where the reduction is not valid.
"""

from functools import partial

from . import threshold
from .threshold import assumption_check  # noqa: F401  (part of this module's API)


class ChangeLossMenu(threshold.ThresholdMenu):
    contract_class = "change_loss"


j_phi_cl = partial(threshold.objective, "change_loss")
solve = partial(threshold.solve, ChangeLossMenu)
