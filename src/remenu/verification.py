"""Independent audits of solved menus.

These checkers deliberately avoid the solvers' own shortcuts: incentive
compatibility and participation are tested entry-against-entry (every row
of a tabulated menu), candidate indirect utilities are integrated by
brute-force quadrature, and profit is re-estimated by Monte Carlo.

IC and IR judge each row or sampled type of risk level a against
IC_TOL * max(1, |a|): a valid menu's slack is rounding in a - d, about one
ulp of a, so the verdict is the same at any scale of k.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import menus
from .errors import DomainError
from .menus import GenericMenu, risk_reduction
from .risk_model import CostFunctional, KProfile
from .threshold import reference, require_assumption
from .type_space import TypeDistribution

IC_TOL = 2.5e-14  # per unit of |a|: 1e-9 at a = 40,000


# -- candidate indirect utilities ---------------------------------------


@dataclass(frozen=True)
class PiecewiseLinearConvexUtility:
    """v(a) = sum_i w_i (a - t_i)_+ with t_1 < ... < t_n and w_i >= 0.

    Membership in the feasible class requires sum w_i <= 1, which makes v
    increasing, convex, 1-Lipschitz, and zero at the origin.
    """

    kinks: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        t = np.asarray(self.kinks, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if len(t) != len(w):
            raise DomainError("kinks and weights must have equal length")
        if len(t) and np.any(np.diff(t) <= 0.0):
            raise DomainError("kink locations must be strictly increasing")
        if len(t) and t[0] < 0.0:
            raise DomainError("kink locations must be >= 0")
        if np.any(w < 0.0):
            raise DomainError("slope increments must be nonnegative")
        if w.sum() > 1.0 + 1e-12:
            raise DomainError("slope increments must sum to at most 1 (1-Lipschitz)")

    def _sum(self, term, a):
        """sum_i w_i term(a, t_i), accumulated in kink order from zero."""
        a = np.asarray(a, dtype=float)
        return sum((w * term(a, t) for t, w in zip(self.kinks, self.weights)), np.zeros_like(a))

    def value(self, a):
        return self._sum(lambda a, t: np.maximum(a - t, 0.0), a)

    __call__ = value

    def slope_plus(self, a):
        """Right derivative: sum of increments at kinks t_i <= a."""
        return self._sum(np.greater_equal, a)

    def slope_minus(self, a):
        """Left derivative: sum of increments at kinks t_i < a."""
        return self._sum(np.greater, a)

    @classmethod
    def single_kink(cls, t: float) -> "PiecewiseLinearConvexUtility":
        """The elementary candidate (a - t)_+."""
        return cls((float(t),), (1.0,))


def bl_decompose(v: PiecewiseLinearConvexUtility) -> list[tuple[float, float]]:
    """Kinks with slope increments; sum_i w_i (a - t_i)_+ reconstructs v."""
    return [(float(t), float(w)) for t, w in zip(v.kinks, v.weights) if w != 0.0]


def j_general(
    v: PiecewiseLinearConvexUtility,
    dist: TypeDistribution,
    cost: CostFunctional,
    solver_class: str,
) -> float:
    """Reinsurer's expected profit of the menu generated by v, by quadrature.

    The per-type profit is slope(a) * (a - ref_k) - v(a), where ref_k is
    H[X_k] for the quota-share class and xi_k for the change-loss class;
    the right slope applies where a >= ref_k and the left slope below.
    """
    if solver_class not in ("quota_share", "change_loss"):
        raise DomainError(f"j_general supports quota_share/change_loss, got {solver_class!r}")
    profile = KProfile(cost, dist.family)  # shared by the validity check and ref_k
    require_assumption(solver_class, dist, cost, profile)
    ref = reference(solver_class, profile)

    def integrand(a, k):
        r = ref(k)
        return np.where(a >= r, v.slope_plus(a), v.slope_minus(a)) * (a - r) - v.value(a)

    return dist.integrate(integrand, breakpoints=v.kinks)


# -- menu audits --------------------------------------------------------


def indirect_utility(menu: GenericMenu, a) -> np.ndarray:
    """Largest risk reduction available from the menu (outside option 0)."""
    return np.maximum(menu.best_offer(a), 0.0)


@dataclass(frozen=True)
class ViolationReport:
    """Audit outcome: worst slack found and the records exceeding the tolerance."""

    check: str
    n_checked: int
    max_violation: float
    passed: bool
    violations: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {**asdict(self), "violations": list(self.violations)}


def _report(check: str, n_checked: int, slack: np.ndarray, a, k, alt=None) -> ViolationReport:
    """Worst slack and the first 20 records of types (a, k) whose slack exceeds
    IC_TOL * max(1, |a|); alt(i) gives the alternatives' (a, k) at indices i."""
    worst = float(slack.max()) if len(slack) else 0.0
    ok = slack <= IC_TOL * np.maximum(1.0, np.abs(a))  # a NaN slack fails
    bad = np.flatnonzero(~ok)[:20]
    records = [
        {"own_type": [float(a_i), float(k_i)], "violation": float(v)}
        for a_i, k_i, v in zip(a[bad], k[bad], slack[bad])
    ]
    if alt is not None:
        for record, a_j, k_j in zip(records, *alt(bad)):
            record["alt_type"] = [float(a_j), float(k_j)]
    return ViolationReport(check, n_checked, worst, bool(ok.all()), tuple(records))


def check_ic(
    menu,
    dist: TypeDistribution | None = None,
    n_pairs: int = 10000,
    rng: np.random.Generator | None = None,
) -> ViolationReport:
    """Own entry at least as good as any other type's entry.

    A GenericMenu is checked exactly: a contract's value lam * (a - d)_+ - P
    does not depend on k, so a row is IC iff its own value is the best offer
    at its a (n_checked = len(menu)**2; alt_type is the first row attaining
    it).  A threshold menu is probed at n_pairs type pairs drawn from dist
    with rng; only threshold menus read dist, n_pairs and rng.
    """
    if isinstance(menu, GenericMenu):
        a, k, *terms = menu.columns
        best = menu.best_offer(a)
        slack = best - risk_reduction(terms, a)

        def alt_types(i):
            j = (risk_reduction(terms, a[i, None]) == best[i, None]).argmax(axis=1)
            return a[j], k[j]

        n_checked = len(menu) ** 2
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        a, k = dist.sample(n_pairs, rng)
        a_alt, k_alt = dist.sample(n_pairs, rng)
        slack = risk_reduction(menu.terms(a_alt, k_alt), a) - risk_reduction(menu.terms(a, k), a)
        alt_types, n_checked = (lambda i: (a_alt[i], k_alt[i])), len(slack)
    return _report("incentive_compatibility", n_checked, slack, a, k, alt_types)


def check_ir(
    menu,
    dist: TypeDistribution | None = None,
    n_types: int = 10000,
    rng: np.random.Generator | None = None,
) -> ViolationReport:
    """Own entry at least as good as no contract, for every row of a GenericMenu
    or n_types types drawn from dist with rng on a threshold menu."""
    if isinstance(menu, GenericMenu):
        a, k, *terms = menu.columns
    else:
        a, k = dist.sample(n_types, np.random.default_rng(0) if rng is None else rng)
        terms = menu.terms(a, k)
    slack = -risk_reduction(terms, a)
    return _report("individual_rationality", len(slack), slack, a, k)


# -- first-best failure demo --------------------------------------------


@dataclass(frozen=True)
class FirstBestReport:
    """Why full surplus extraction breaks once types are private.

    The full-information benchmark (within the deductible class) offers each
    type d = theta*_k when a >= xi_k, at the premium extracting the entire
    risk reduction.  A lower-risk type's contract then strictly attracts a
    higher-risk type whenever its deductible bites below a1, and mimicry
    caps the profit earned on the high type below its benchmark level.
    Pairs list type 1, then type 2.
    """

    type_1: tuple[float, float]
    type_2: tuple[float, float]
    deductibles: tuple[float, float]
    premiums: tuple[float, float]
    risk_reductions: tuple[float, float]
    mimic_gain: float
    mimic_profit: float
    first_best_profits: tuple[float, float]

    @property
    def profit_inequality_holds(self) -> bool:
        return self.mimic_profit <= self.first_best_profits[0] + 1e-12

    def to_dict(self) -> dict:
        return {**asdict(self), "profit_inequality_holds": self.profit_inequality_holds}


def first_best_demo(
    a1: float,
    k1: float,
    a2: float,
    k2: float,
    dist: TypeDistribution,
    cost: CostFunctional,
) -> FirstBestReport:
    """Evaluate the mimicry chain for a pair of types with a2 < a1.

    Each type is priced from theta*_k, xi_k and H[(X_k - d)_+] of one
    KProfile; an infinite theta*_k gives xi_k = inf, so the type is unserved
    (d = inf, no premium, no profit, nothing to mimic).
    """
    for name, x, lo in (("a1", a1, -math.inf), ("a2", a2, -math.inf), ("k1", k1, 0.0), ("k2", k2, 0.0)):
        if not lo < x < math.inf:
            raise DomainError(f"{name} must lie in ({lo}, inf), got {x}")
    if a2 >= a1:
        raise DomainError(f"need a2 < a1, got a1={a1}, a2={a2}")
    prof = KProfile(cost, dist.family)
    a, k = np.array([a1, a2], dtype=float), np.array([k1, k2], dtype=float)
    served = a >= prof.xi(k)
    d = np.where(served, prof.theta_star(k), math.inf)
    premium = np.where(served, np.maximum(a - d, 0.0), 0.0)
    profit = premium - prof.stop_loss_cost(k, d)
    # Risk reduction at the intended type is zero by construction.
    rr = np.maximum(a - d, 0.0) - premium
    # Type 1 taking type 2's contract, against type 2 taking it.
    gain = (max(a1 - d[1], 0.0) - premium[1]) - rr[1]
    mimic_profit = premium[1] - prof.stop_loss_cost(k1, d[1])
    d, premium, rr, profit = (tuple(x.tolist()) for x in (d, premium, rr, profit))
    return FirstBestReport((a1, k1), (a2, k2), d, premium, rr, float(gain), float(mimic_profit), profit)


# -- Monte Carlo profit -------------------------------------------------


def monte_carlo_profit(
    menu,
    dist: TypeDistribution,
    cost: CostFunctional,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate the expected profit by sampled self-selection.

    Each sampled type takes a contract (lam, d, P), priced analytically at
    P - lam H[(X_k - d)_+].  On a threshold menu it takes its own entry, from
    menu.terms.  On a GenericMenu, GenericMenu.self_select picks its own entry
    if within tie = 1e-12 * max(1, |best|) of the best, else the first entry
    within tie of the best, and no contract when the best is below -tie; rows
    worth the same up to rounding go by menu order only where tie exceeds that
    rounding.  Either way contracts are priced in blocks of _BLOCK_ELEMS
    samples, only the rows with lam > 0 through the tail cost, so memory
    beyond the samples and their profits does not grow with n or the menu's
    length.  Returns (estimate, standard error); deterministic given the
    seed.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    a, k = dist.sample(n, np.random.default_rng(seed))
    if isinstance(menu, GenericMenu):
        chosen = menu.self_select(a, k)
    else:
        step = menus._BLOCK_ELEMS
        blocks = (slice(s, s + step) for s in range(0, n, step))
        chosen = ((b, menu.terms(a[b], k[b])) for b in blocks)
    profile = KProfile(cost, dist.family)
    profits = np.empty(n)
    for block, (lam, d, premium) in chosen:
        paid = np.flatnonzero(lam.astype(bool, copy=False))  # as bools: a float lam scans 6x slower
        paid_cost = lam.take(paid) * profile.stop_loss_cost(k[block].take(paid), d.take(paid))
        profit = profits[block]
        np.copyto(profit, premium)
        profit[paid] -= paid_cost
    # The moments of the profits scaled down by a power of two, which moves no
    # bit short of underflow: the squares in std overflowed past about 1e154.
    # The deviations are squared in place, as np.std forms them in a copy.
    scale = 2.0 ** -max(0, math.frexp(max(profits.max(), -profits.min()))[1])
    profits *= scale
    mean = profits.mean()
    est = float(mean / scale)
    if n == 1:
        return est, 0.0
    profits -= mean
    profits *= profits
    se = float(np.sqrt(np.add.reduce(profits) / (n - 1)) / scale / math.sqrt(n))
    return est, se


def random_utilities(
    n: int,
    lo: float,
    hi: float,
    rng: np.random.Generator,
) -> list[PiecewiseLinearConvexUtility]:
    """Random feasible candidates: 1 to 5 kinks uniform on [lo, hi], increments
    Dirichlet-scaled so their sum is at most 1."""
    out = []
    for _ in range(n):
        m = int(rng.integers(1, 6))
        kinks = np.sort(rng.uniform(lo, hi, m))
        while len(np.unique(kinks)) < m:
            kinks = np.sort(rng.uniform(lo, hi, m))
        w = rng.dirichlet(np.ones(m)) * rng.uniform(0.2, 1.0)
        out.append(PiecewiseLinearConvexUtility(tuple(kinks), tuple(w)))
    return out
