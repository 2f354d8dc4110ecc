"""The discrete solve prices J with the cap off at every atom level and
with the cap only below sup theta*, best first, yet reports the bits of the
full enumeration: objective at every level, the first maximum winning and
shut-down only if it pays more."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remenu import (
    AssumptionError,
    CostFunctional,
    DiscreteTypes,
    Distortion,
    ExponentialFamily,
    GenericLoss,
    ScaleFamily,
    threshold,
    type_space,
)
from remenu.risk_model import KProfile
from remenu.search import first_maximum

MENUS = ("stop_loss", "quota_share", "change_loss")


def full_enumeration(kind, dist, cost):
    """(tau*, J) with objective at every atom level, in one array call."""
    levels = np.unique(dist.a_vals)
    return first_maximum(levels, threshold.objective(kind, levels, dist, cost, KProfile(cost, dist.family)))


def assert_matches_full_enumeration(dist, cost):
    for kind in MENUS:
        if kind == "change_loss" and not threshold.assumption_check(dist, cost).holds:
            try:
                threshold.solve(kind, dist, cost)
            except AssumptionError:
                continue
            raise AssertionError("change-loss solved where sup theta* > L")
        menu = threshold.solve(kind, dist, cost)
        tau, val = full_enumeration(kind, dist, cost)
        assert (menu.tau_star.hex(), menu.objective_value.hex()) == (tau.hex(), val.hex()), kind


EXPONENT_FORM = st.tuples(
    st.just(None), st.sampled_from([0.1, 1.0]), st.sampled_from([Distortion.identity(), Distortion.power(0.8)])
)
LOMAX = ScaleFamily(GenericLoss(lambda y: (1.0 + y / 2.0) ** -3.0))  # mean 1
TABULATED = Distortion.tabulated([(0.0, 0.0), (0.2, 0.2**0.75), (0.55, 0.55**0.75), (1.0, 1.0)])
# Families and distortions without closed forms: every cost is a quadrature tail.
QUADRATURE = st.sampled_from(
    [(LOMAX, 1.0, Distortion.identity()), (LOMAX, 1.0, TABULATED), (ExponentialFamily(), 1.0, TABULATED)]
)


@st.composite
def markets(draw, costs=EXPONENT_FORM):
    """Up to 13 atoms with alpha in one of three ranges and k in (1000, 30000)
    or (1000, 6000), some repeated exactly or moved 1 ulp (in alpha or k),
    some of zero weight.

    At theta = 1 under the identity distortion theta*_1 = ln 2, and alpha
    near 0.5 puts a = -k ln(alpha) near theta*_k: kinks where the stop-loss
    cap binds and quota-share kinks below H[X_k] = 2k.  With every alpha
    above 0.3 at theta = 1, every type sits below its break-even level
    xi_k = 1.69 k, so no kink pays: J* = 0, the first kink to reach it wins
    and shut-down, which pays no more, loses (J at the top atom is its atom
    term, never negative, so a discrete market never shuts down).

    costs draws (family, theta, distortion), the family None for the
    exponential default."""
    alpha_lo, alpha_hi = draw(st.sampled_from([(0.05, 0.15), (0.05, 0.5), (0.3, 0.5)]))
    k_hi = draw(st.sampled_from([30000.0, 6000.0]))
    base = draw(
        st.lists(
            st.tuples(st.floats(alpha_lo, alpha_hi), st.floats(1000.0, k_hi), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=8,
        )
    )
    # A light atom of large k puts most kinks below sup theta*.
    light = st.tuples(st.floats(0.05, 0.5), st.floats(20000.0, 30000.0), st.floats(0.0, 0.1))
    atoms = base + draw(st.lists(light, max_size=1))
    copies = st.tuples(st.integers(0, len(base) - 1), st.sampled_from(["same", "alpha", "k"]))
    for i, how in draw(st.lists(copies, max_size=4)):
        al, k, w = base[i]
        if how == "alpha":
            al = math.nextafter(al, 0.0)
        elif how == "k":
            k = math.nextafter(k, math.inf)
        atoms.append((al, k, draw(st.sampled_from([0.0, w, 0.5]))))
    weights = np.array([w for _al, _k, w in atoms])
    if weights.sum() == 0.0:
        weights[0] = 1.0
    weights = weights / weights.sum()
    family, theta, distortion = draw(costs)
    dist = DiscreteTypes([(al, k, float(w)) for (al, k, _w), w in zip(atoms, weights)], family)
    return dist, CostFunctional(theta, distortion)


@settings(max_examples=300, deadline=None)
@given(markets())
def test_solve_gives_the_full_enumeration_bits(market):
    assert_matches_full_enumeration(*market)


# theta*_k of the second atom lies a few ulps above the first atom's level
# t, where its computed -H[(X_k - t)_+] exceeds t - xi_k: without the min in
# capped_profit J at t would exceed its value with the cap off.
MIN_BINDS = (
    DiscreteTypes([(0.3, 8143.219674818934, 0.1), (0.05, 10909.0, 0.9)]),
    CostFunctional(1.0, TABULATED),
)


@settings(max_examples=100, deadline=None)
@given(markets(QUADRATURE))
@example(MIN_BINDS)
def test_quadrature_costs_give_the_full_enumeration_bits(market):
    # Lomax and tabulated-distortion costs are quadrature tails, each within
    # about 1e-13 of exact: the capped profit's min keeps J with the cap on
    # at most J with it off all the same.
    assert_solve_invariants_hold(*market)
    assert_matches_full_enumeration(*market)


def test_levels_below_sup_theta_star_where_no_cap_binds():
    # At the lower kink t ~ 3160 < sup theta* the only type above it has
    # theta*_k ~ 900 <= t: no deductible is capped, and the quadrature tail
    # costs are asked for an empty array of deductibles.
    dist = DiscreteTypes([(0.001, 1000.0, 0.5), (0.9, 30000.0, 0.5)])
    cost = CostFunctional(1.0, TABULATED)
    assert_solve_invariants_hold(dist, cost)
    assert_matches_full_enumeration(dist, cost)


def slope_free_objective(kind, t, dist, cost, profile):
    """J at the kinks t priced atom by atom, without suffix sums: the sum of
    w p(k, t) over every atom above t, p being t - ref_k, or capped_profit
    where the stop-loss deductible is capped (theta*_k > t), plus the atom
    terms w max(t - ref_k, 0) at a = t."""
    ref, ratio = threshold.reference(kind, profile), threshold.cap_ratio(kind, profile)
    out = np.empty(len(t))
    for i, ti in enumerate(t.tolist()):
        above, at = dist.a_vals > ti, dist.a_vals == ti
        k = dist.ks[above]
        p = ti - ref(k)
        cap = ratio * k > ti
        p[cap] = threshold.capped_profit(profile, k[cap], np.full(int(cap.sum()), ti))
        out[i] = np.dot(dist.weights[above], p) + np.dot(dist.weights[at], np.maximum(ti - ref(dist.ks[at]), 0.0))
    return out


def assert_solve_invariants_hold(dist, cost):
    """At every atom level t: objective is within
    4 (n + 6) (2^-53 (t W + |ref_1| Wk) + 2^-1074) of the slope-free call
    (W and Wk sum w and w k over the n atoms with a >= t; each sum rounds an
    atom's term at most three times and adds at most n + 3 numbers), and
    below sup theta* it is at most J with the cap off, as floats."""
    profile = KProfile(cost, dist.family)
    t = np.unique(dist.a_vals)
    w, wk = (np.array([np.sum(x[dist.a_vals >= level]) for level in t]) for x in (dist.weights, dist.weights * dist.ks))
    for kind in ("stop_loss", "quota_share"):  # change-loss prices as stop-loss
        got = threshold.objective(kind, t, dist, cost, profile)
        ref_1 = float(threshold.reference(kind, profile)(1.0))
        tol = 4.0 * (len(dist.ks) + 6) * (2.0**-53 * (t * w + abs(ref_1) * wk) + 2.0**-1074)
        assert np.all(np.abs(got - slope_free_objective(kind, t, dist, cost, profile)) <= tol), kind
        capped = t < threshold.cap_ratio(kind, profile) * dist.k_ends[1]
        cap_off = threshold._tail_objective(kind, t, dist, profile, 0.0)
        assert np.all(got[capped] <= cap_off[capped]), kind
        assert np.array_equal(got[~capped], cap_off[~capped]), kind


# Weights of 3e-323 are subnormal: their products underflow, with an absolute
# error no relative bound covers.
SUBNORMAL = (
    DiscreteTypes(
        [
            (0.49999999999999994, 4149.2966908152375, 1.0),
            (0.06715609999370581, 4612.905572470486, 3e-323),
            (0.0671560999937058, 4612.905572470486, 3e-323),
            (0.4999999999999999, 4149.2966908152375, 0.0),
        ]
    ),
    CostFunctional(0.1, Distortion.power(0.8)),
)


@settings(max_examples=300, deadline=None)
@given(markets())
@example(SUBNORMAL)
def test_slope_route_matches_the_slope_free_call(market):
    assert_solve_invariants_hold(*market)


def with_neighbours(dist, cost, kind):
    """The market plus atoms of zero and of small weight at k one ulp either
    side of an optimal atom's: kinks a ulp or two from tau*, where J differs
    by about a rounding error, so rounding decides the order."""
    tau, _val = full_enumeration(kind, dist, cost)
    i = int(np.flatnonzero(dist.a_vals == tau)[0])
    al, k = float(dist.alphas[i]), float(dist.ks[i])
    below, above = math.nextafter(k, 0.0), math.nextafter(k, math.inf)
    extra = [(al, below, 0.0), (al, above, 0.0), (al, below, 1e-3)]
    atoms = [(float(a), float(b), float(w) * (1.0 - 1e-3)) for a, b, w in zip(dist.alphas, dist.ks, dist.weights)]
    return DiscreteTypes(atoms + extra)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(20, 400),
    seed=st.integers(0, 2**32 - 1),
    alpha_hi=st.sampled_from([0.15, 0.5]),
    theta=st.sampled_from([0.1, 1.0]),
    kind=st.sampled_from(MENUS),
)
def test_near_ties_at_the_optimum_keep_the_full_enumeration_bits(n, seed, alpha_hi, theta, kind):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n))
    alpha, k = rng.uniform(0.05, alpha_hi, n), rng.uniform(1000.0, 30000.0, n)
    dist = DiscreteTypes(list(zip(alpha.tolist(), k.tolist(), (w / w.sum()).tolist())))
    cost = CostFunctional(theta)
    assert_solve_invariants_hold(dist, cost)
    assert_matches_full_enumeration(with_neighbours(dist, cost, "stop_loss" if kind == "change_loss" else kind), cost)


def test_capped_levels_are_priced_best_bound_first(monkeypatch):
    # At theta = 1, sup theta* = 29000 ln 2 ~ 20101 lies above the levels
    # 5000 ln(1 / 0.08) ~ 12629 and 5000 ln(1 / 0.06) ~ 14067, where the cap
    # binds for the large type.  With the cap off 12629 is best: solve prices
    # it first and finds J < 0, then prices 14067, whose cap-off value still
    # beats the best so far (J = 0 at the top level), and that wins.
    dist = DiscreteTypes([(0.39, 29000.0, 0.1), (0.06, 5000.0, 0.64), (0.08, 5000.0, 0.26)])
    cost = CostFunctional(1.0)
    profile = KProfile(cost, dist.family)
    priced, objective = [], threshold.objective

    def j(kind, tau, *args, **kwargs):
        if np.ndim(tau) == 0:
            priced.append(tau)
        return objective(kind, tau, *args, **kwargs)

    monkeypatch.setattr(threshold, "objective", j)
    menu = threshold.solve("stop_loss", dist, cost)
    levels = np.unique(dist.a_vals)
    cap_off = threshold._tail_objective("stop_loss", levels, dist, profile, 0.0)
    exact = objective("stop_loss", levels, dist, cost, profile)
    assert priced == levels[:2].tolist() and levels[1] < profile.sup_theta_star(dist.k_ends) < levels[2]
    assert cap_off[0] > cap_off[1] > exact[1] > exact[2] == 0.0 > exact[0]
    assert (menu.tau_star, menu.objective_value) == (levels[1], exact[1]) == full_enumeration("stop_loss", dist, cost)


def seeded_market(n, alpha_hi, theta):
    """n atoms with Dirichlet weights, k ~ U(5000, 25000) and alpha ~ U(0.05, alpha_hi)."""
    rng = np.random.default_rng(1)
    w = rng.dirichlet(np.ones(n))
    k = rng.uniform(5000.0, 25000.0, n)
    alpha = rng.uniform(0.05, alpha_hi, n)
    return DiscreteTypes(list(zip(alpha.tolist(), k.tolist(), (w / w.sum()).tolist()))), CostFunctional(theta)


def test_large_markets_price_few_kinks(monkeypatch):
    # Pricing J at every atom by g takes 20,000 masked kinks per solve here
    # (about 10 s on the capped market); the suffix sums leave one each.
    priced = []
    masked_sum = type_space.DiscreteTypes._masked_sum

    def counting(self, h, t, *args):
        priced.append(len(t))
        return masked_sum(self, h, t, *args)

    monkeypatch.setattr(type_space.DiscreteTypes, "_masked_sum", counting)
    for alpha_hi, theta in ((0.15, 0.1), (0.5, 1.0)):  # sup theta* < L, then > L: the cap binds
        dist, cost = seeded_market(20000, alpha_hi, theta)
        capped = not threshold.assumption_check(dist, cost).holds
        assert capped == (theta == 1.0)
        for kind in ("stop_loss", "quota_share"):
            priced.clear()
            threshold.solve(kind, dist, cost)
            assert sum(priced) <= 4, (alpha_hi, kind, sum(priced))
