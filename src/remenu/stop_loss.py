"""Optimal menu of stop-loss policies.

For a fixed kink tau the pointwise-optimal deductible is

    a > tau :  theta*_k /\\ tau
    a = tau :  theta*_k          if tau >= xi_k, else null
    a < tau :  null,

with per-type profit density Phi: tau - xi_k for a served type, or
-H[(X_k - tau)_+] where the cap theta*_k > tau binds (possible only for tau
below sup_k theta*_k).  ``objective(tau, dist, cost, profile=None)`` and
``solve(dist, cost, grid_points, refine_tol)`` are the shared threshold
menu's (see ``threshold``) for this class.
"""

from __future__ import annotations

from functools import partial

from . import threshold


class StopLossMenu(threshold.ThresholdMenu):
    contract_class = "stop_loss"


objective = partial(threshold.objective, "stop_loss")
solve = partial(threshold.solve, StopLossMenu)
