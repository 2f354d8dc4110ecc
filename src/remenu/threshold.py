"""The one threshold menu of the stop-loss, quota-share and change-loss classes.

Every class has the optimal indirect utility v(a) = (a - tau)_+: types above
the kink tau are served, types below take the null contract, and a type at
a = tau is served iff tau >= ref_k (H[X_k] for quota-share, xi_k otherwise).
The class is the menu's ``contract_class`` field and sets its rule:

- stop-loss: a served type takes the deductible d = theta*_k ∧ tau
  (theta*_k at a = tau) at premium tau - d, for the profit tau - xi_k, or
  -H[(X_k - tau)_+] where the cap binds (only below sup_k theta*_k).
- quota-share: full coverage (lam = 1, d = 0) at premium tau, for the profit
  tau - H[X_k]; the optimum within the class is bang-bang in lam.
- change-loss: the stop-loss rule under its own label, valid only when
  sup_k theta*_k <= L (the lowest risk level); then lam is bang-bang, every
  served deductible is theta*_k and the cap never binds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, partial

import numpy as np

from .errors import AssumptionError, DomainError, UnsupportedError
from .menus import Contract, MenuEntry, check_class
from .risk_model import CostFunctional, KProfile
from .search import first_maximum, maximize_over_tau
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


def require_assumption(
    kind: str, dist: TypeDistribution, cost: CostFunctional, profile=None
) -> None:
    """Raise AssumptionError unless the reduction is valid for the class:
    only change-loss has a validity condition, sup_k theta*_k <= L."""
    if kind != "change_loss":
        return
    report = assumption_check(dist, cost, profile)
    if not report.holds:
        raise AssumptionError(
            "change-loss reduction requires sup theta* <= lowest risk level: "
            f"sup theta* = {report.sup_theta_star:.6g} > L = {report.lower_support:.6g}"
        )


def reference(kind: str, profile: KProfile):
    """ref_k as a vectorized function of k: H[X_k] for quota-share, else xi_k."""
    return profile.full_cost if kind == "quota_share" else profile.xi


def cap_ratio(kind: str, profile: KProfile) -> float:
    """theta*_1: the stop-loss deductible theta*_k ∧ tau is capped at tau for
    the types with theta*_1 k > tau.  0 for quota-share, which has no cap."""
    return 0.0 if kind == "quota_share" else float(profile.theta_star(1.0))


def capped_profit(profile: KProfile, k, t):
    """Profit of a served type whose deductible theta*_k ∧ t is capped at t:
    -H[(X_k - t)_+], at most t - xi_k as theta*_k maximizes
    (t - d) - H[(X_k - d)_+]; the min keeps it so in floats."""
    return np.minimum(t - profile.xi(k), -profile.stop_loss_cost(k, t))


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
    Raises DomainError for an unknown class or a kink that is not >= 0 (NaN too),
    and UnsupportedError where ref_k is not finite (stop-loss at theta* = inf).
    """
    check_class(kind)
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    bad = ~(t >= 0.0)  # a NaN kink is not >= 0 either
    if bad.any():
        raise DomainError(f"kink tau must be >= 0, got {t[bad].min():.17g}")
    prof = profile if profile is not None else KProfile(cost, dist.family)
    out = _tail_objective(kind, t, dist, prof, cap_ratio(kind, prof))
    return float(out[0]) if np.ndim(tau) == 0 else out


def _tail_objective(kind: str, t: np.ndarray, dist: TypeDistribution, prof: KProfile, ratio: float) -> np.ndarray:
    """J at the kinks t, the stop-loss deductible capped at t for the types
    with ratio k > t (ratio 0: none)."""
    slope = float(reference(kind, prof)(1.0))  # ref_k = k ref_1 by positive homogeneity
    if not math.isfinite(slope):
        theta = float(prof.theta_star(1.0))
        raise UnsupportedError(f"{kind} J is undefined: ref_1 = {slope} is not finite (theta*_1 = {theta})")
    return dist.tail_integral(t, slope, ratio, partial(capped_profit, prof))


def _discrete_maximum(kind: str, j, dist: DiscreteTypes, profile: KProfile) -> tuple[float, float]:
    """(tau_star, J) over the atom levels of dist, as pricing J at every level:
    J with the cap off (ratio 0), in one call, is J at and above sup theta*
    and at least J below it, where the cap adds terms <= 0 (see
    capped_profit).  j prices the levels below sup theta*, best first,
    while their cap-off value still reaches the best."""
    t = dist.levels
    vals = _tail_objective(kind, t, dist, profile, 0.0)
    cut = int(np.searchsorted(t, cap_ratio(kind, profile) * dist.k_ends[1]))  # t[:cut] may be capped
    best = vals[cut:].max(initial=-math.inf)
    reach = np.flatnonzero(vals[:cut] >= best)  # best only grows: no other level is priced
    for i in reach[np.argsort(-vals[reach], kind="stable")]:
        if vals[i] < best:
            break  # this level and the rest stay below best
        vals[i] = j(float(t[i]))
        best = max(best, vals[i])
    return first_maximum(t, vals)


def tau_range(kind: str, dist: TypeDistribution) -> tuple[float, float]:
    """Search interval for the kink: from 0 for quota-share, else from L."""
    lo = 0.0 if kind == "quota_share" else dist.lower_support()
    return lo, dist.upper_support()


@dataclass(frozen=True)
class ThresholdMenu:
    """Solved menu: kink tau_star plus the contract rule of its class
    (stop_loss, quota_share or change_loss) for every type."""

    tau_star: float
    objective_value: float
    cost: CostFunctional
    dist: TypeDistribution
    contract_class: str

    def __post_init__(self) -> None:
        check_class(self.contract_class)

    @cached_property
    def profile(self) -> KProfile:
        """The per-k costs of the menu's market, built once and memoized."""
        return KProfile(self.cost, self.dist.family)

    def terms(self, a, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(served, deductible, premium) of the entries for types (a, k).

        Arrays broadcast; a served type takes lam = 1 at premium tau - d,
        an unserved one the null contract (deductible +inf, or 0 for
        quota-share) at premium 0.  A served stop-loss deductible is
        theta*_k ∧ tau: at a = tau too, as serving there needs
        tau >= xi_k >= theta*_k (xi_1 = theta*_1 + a cost >= 0, each rounded
        up or to itself).
        """
        a, k = np.broadcast_arrays(np.atleast_1d(np.asarray(a, float)), np.asarray(k, float))
        tau, kind, prof = self.tau_star, self.contract_class, self.profile
        served = a > tau
        kink = a == tau
        if kink.any():
            served[kink] = tau >= reference(kind, prof)(k[kink])
        # Selection by arithmetic, as a masked write mispredicts a branch per
        # element: on is +inf where served and -inf where not, so the premium
        # is min(tau - d, on) floored at 0 (by fmax: NaN at tau = d = inf),
        # and a stop-loss deductible max(d, -on), inf where not served.
        on = np.subtract(served, 0.5)
        on *= math.inf
        if kind == "quota_share":
            d, premium = np.zeros(a.shape), np.minimum(on, tau, out=on)
        else:
            d = prof.theta_star(k)
            np.minimum(d, tau, out=d)
            premium = np.subtract(tau, d)
            np.minimum(premium, on, out=premium)
            np.maximum(d, np.negative(on, out=on), out=d)
        return served, d, np.fmax(premium, 0.0, out=premium)

    def entry(self, a: float, k: float) -> MenuEntry:
        served, d, premium = (float(x[0]) for x in self.terms(a, k))
        return MenuEntry(a, k, Contract(self.contract_class, served, d), premium)


def solve(
    kind: str,
    dist: TypeDistribution,
    cost: CostFunctional,
    grid_points: int = 10001,
    refine_tol: float = 1e-6,
) -> ThresholdMenu:
    """The menu of class kind: maximize J over the class's tau range
    (shut-down included), by a grid scan and zoom rounds that each make one
    array call of J.

    On a discrete market J cannot decrease between consecutive atoms, so the
    best atom is the exact optimum and grid_points and refine_tol go unused:
    _discrete_maximum gives tau_star and J of pricing every atom, bit for
    bit, in O(n log n) for n atoms plus O(n) per capped level it prices.
    Raises AssumptionError for change-loss when sup_k theta*_k exceeds the
    lowest market risk level; the reduction is not valid then.
    """
    profile = KProfile(cost, dist.family)  # shared by the validity check and J
    require_assumption(kind, dist, cost, profile)
    j = partial(objective, kind, dist=dist, cost=cost, profile=profile)
    if isinstance(dist, DiscreteTypes):
        tau, val = _discrete_maximum(kind, j, dist, profile)
    else:
        tau, val = maximize_over_tau(j, *tau_range(kind, dist), grid_points, refine_tol)
    return ThresholdMenu(tau, val, cost, dist, kind)
