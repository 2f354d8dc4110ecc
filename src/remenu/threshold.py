"""The threshold menu shared by the stop-loss, quota-share and change-loss classes.

Every class has the optimal indirect utility v(a) = (a - tau)_+: types above
the kink tau are served, types below take the null contract, and a type at
a = tau is served iff tau >= ref_k (H[X_k] for quota-share, xi_k otherwise).
A served type pays tau - d for the deductible d (``ThresholdMenu.terms``):
0 for quota-share, theta*_k ∧ tau otherwise.  It yields the profit
tau - ref_k, or -H[(X_k - tau)_+] where the cap binds (``served_profit``).

Change-loss is the stop-loss rule; it differs only in its label and in the
validity check sup_k theta*_k <= L, under which the cap never binds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import ClassVar

import numpy as np

from .errors import AssumptionError
from .menus import Contract, MenuEntry
from .risk_model import CostFunctional, KProfile
from .search import maximize_over_points, maximize_over_tau
from .type_space import DiscreteTypes, TypeDistribution


@dataclass(frozen=True)
class AssumptionReport:
    """Whether sup_k theta*_k <= L holds on the given market."""

    sup_theta_star: float
    lower_support: float
    holds: bool

    def to_dict(self) -> dict:
        return asdict(self)


def assumption_check(
    dist: TypeDistribution, cost: CostFunctional, profile: KProfile | None = None
) -> AssumptionReport:
    """Compute sup_k theta*_k over the market's k-support and compare to L."""
    sup_ts = (profile or KProfile(cost, dist.family)).sup_theta_star(dist.k_ends)
    low = dist.lower_support()
    return AssumptionReport(sup_ts, low, sup_ts <= low)


def require_assumption(dist: TypeDistribution, cost: CostFunctional, profile=None) -> None:
    """Raise AssumptionError unless the change-loss reduction is valid."""
    report = assumption_check(dist, cost, profile)
    if not report.holds:
        raise AssumptionError(
            "change-loss reduction requires sup theta* <= lowest risk level: "
            f"sup theta* = {report.sup_theta_star:.6g} > L = {report.lower_support:.6g}"
        )


def reference(kind: str, profile: KProfile):
    """ref_k as a vectorized function of k: H[X_k] for quota-share, else xi_k."""
    return profile.full_cost if kind == "quota_share" else profile.xi


def served_profit(kind: str, profile: KProfile, t: np.ndarray, k: np.ndarray, cap_below: float):
    """Profit P - H[I(X_k)] of served types at kinks t (shaped like k):
    t - ref_k.  Where t < cap_below (sup theta*; -inf for quota-share) and
    theta*_k > t, the type takes the deductible t and yields -H[(X_k - t)_+]."""
    out = t - reference(kind, profile)(k)
    cap = t < cap_below
    if cap.any():
        cap &= profile.theta_star(k) > t
        out[cap] = -profile.stop_loss_cost(k[cap], t[cap])
    return out


def objective(
    kind: str,
    tau,
    dist: TypeDistribution,
    cost: CostFunctional,
    profile: KProfile | None = None,
):
    """Reinsurer's expected profit J(tau) of the threshold-tau menu.

    The profit vanishes below tau and is constant in a above it, so the
    integral reduces exactly to a k-integral against the conditional tail
    mass P(a > tau | k), plus exact atom terms tau - ref_k at a = tau; at
    tau = +inf both are empty.  A scalar tau gives a float; a 1-D array of
    kinks gives an array whose row i is the scalar call at tau[i], bit for bit.
    """
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    prof = profile if profile is not None else KProfile(cost, dist.family)
    ref = reference(kind, prof)
    # The cap theta*_k ∧ tau binds only below sup theta*, where the capped
    # density has a kink at the k with theta*_k = tau.
    kink = None if kind == "quota_share" else prof.theta_star
    cap_below = -math.inf if kink is None else prof.sup_theta_star(dist.k_ends)
    out = dist.tail_integral(
        lambda k, tk: served_profit(kind, prof, tk, k, cap_below),
        t,
        kink,
        at=lambda k, tk: np.maximum(tk - ref(k), 0.0),
    )
    return float(out[0]) if np.ndim(tau) == 0 else out


def tau_range(kind: str, dist: TypeDistribution) -> tuple[float, float]:
    """Search interval for the kink: from 0 for quota-share, else from L."""
    lo = 0.0 if kind == "quota_share" else dist.lower_support()
    return lo, dist.upper_support()


@dataclass(frozen=True)
class ThresholdMenu:
    """Solved menu: kink tau_star plus the class's contract rule for every type.

    Subclasses set contract_class to stop_loss, quota_share or change_loss.
    """

    tau_star: float
    objective_value: float
    cost: CostFunctional
    dist: TypeDistribution

    contract_class: ClassVar[str]

    @cached_property
    def profile(self) -> KProfile:
        """The per-k costs of the menu's market, built once and memoized."""
        return KProfile(self.cost, self.dist.family)

    def terms(self, a, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(served, deductible, premium) of the entries for types (a, k).

        Arrays broadcast; a served type takes lam = 1 at premium tau - d,
        an unserved one the null contract (deductible +inf, or 0 for
        quota-share) at premium 0.
        """
        a, k = np.broadcast_arrays(np.atleast_1d(np.asarray(a, float)), np.asarray(k, float))
        tau, kind, prof = self.tau_star, self.contract_class, self.profile
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

    def entry(self, a: float, k: float) -> MenuEntry:
        served, d, premium = (float(x[0]) for x in self.terms(a, k))
        return MenuEntry(a, k, Contract(self.contract_class, served, d), premium)


def solve(
    menu_cls: type[ThresholdMenu],
    dist: TypeDistribution,
    cost: CostFunctional,
    grid_points: int = 10001,
    refine_tol: float = 1e-6,
) -> ThresholdMenu:
    """Maximize J over the class's tau range (shut-down included), by a grid
    scan and zoom rounds that each make one array call of J.

    On a discrete market J cannot decrease between consecutive atoms, so the
    best atom is the exact optimum and grid_points and refine_tol go unused.
    Raises AssumptionError for change-loss when sup_k theta*_k exceeds the
    lowest market risk level; the reduction is not valid then.
    """
    kind = menu_cls.contract_class
    profile = KProfile(cost, dist.family)  # shared by the validity check and J
    if kind == "change_loss":
        require_assumption(dist, cost, profile)
    j = partial(objective, kind, dist=dist, cost=cost, profile=profile)
    if isinstance(dist, DiscreteTypes):
        tau, val = maximize_over_points(j, np.sort(dist.a_vals))
    else:
        tau, val = maximize_over_tau(j, *tau_range(kind, dist), grid_points, refine_tol)
    return menu_cls(tau, val, cost, dist)
