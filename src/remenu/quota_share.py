"""Optimal menu of quota-share (proportional) policies.

Within this class the optimum is bang-bang: each type either buys full
coverage (lam = 1, premium tau) or stays out.  A type at risk level a is
served when a > tau (or a = tau with tau >= H[X_k]), and the profit density
of a served type is tau - H[X_k].  ``j_phi(t, dist, cost, profile=None)`` and
``solve(dist, cost, grid_points, refine_tol)`` are the shared threshold
menu's (see ``threshold``) for this class.
"""

from functools import partial

from . import threshold


class QuotaShareMenu(threshold.ThresholdMenu):
    contract_class = "quota_share"


j_phi = partial(threshold.objective, "quota_share")
solve = partial(threshold.solve, QuotaShareMenu)
