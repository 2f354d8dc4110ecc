import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from remenu import (
    AssumptionError,
    Contract,
    CostFunctional,
    DegenerateAlpha,
    DiscreteTypes,
    Distortion,
    DomainError,
    ExponentialFamily,
    ExponentialLoss,
    GenericLoss,
    ProductUniform,
    ScaleFamily,
    ScenarioConfig,
    UnsupportedError,
    first_best_demo,
    threshold,
    type_space,
)
from remenu.quadrature import gauss_legendre
from remenu.risk_model import KProfile
from remenu.search import maximize_over_tau

from reference_rules import masked_terms, phi
from tail_oracle import all_node_tail_block

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
LN11 = math.log(1.1)
MENUS = ("stop_loss", "quota_share", "change_loss")

# Atoms (alpha, k, weight) with a = -k ln(alpha).  The atoms at a = 20000 and
# a ~ 10 sit below their own break-even level (a < xi_k < H[X_k]); a kink at
# a ~ 10 lies below every other type's theta*_k, so the stop-loss cap binds.
MARKET = DiscreteTypes(
    [
        (math.exp(-2), 5000.0, 0.2),
        (math.exp(-3), 10000.0, 0.2),
        (math.exp(-1), 20000.0, 0.2),
        (math.exp(-5), 8000.0, 0.2),
        (0.99, 1000.0, 0.2),
    ]
)


def closed_form_terms(kind: str, tau: float, a: float, k: float) -> tuple[bool, float, float]:
    """(served, deductible, premium) at theta = 0.1 with the identity distortion."""
    theta_star, xi, full_cost = k * LN11, k * (1.0 + LN11), 1.1 * k
    ref = full_cost if kind == "quota_share" else xi
    served = a > tau or (a == tau and tau >= ref)
    if kind == "quota_share":
        d = 0.0
    elif not served:
        d = math.inf
    elif kind == "stop_loss" and a > tau:
        d = min(theta_star, tau)
    else:
        d = theta_star
    return served, d, tau - d if served else 0.0


@pytest.mark.parametrize("kind", MENUS)
def test_terms_follow_the_contract_rule(kind, cost):
    # Change-loss menus exist only for kinks above sup theta*.
    sup_theta_star = MARKET.ks.max() * LN11
    taus = [float(t) for t in MARKET.a_vals if kind != "change_loss" or t >= sup_theta_star]
    kink_outcomes = set()
    for tau in [*taus, math.inf]:
        menu = threshold.ThresholdMenu(tau, 0.0, cost, MARKET, kind)
        served, d, premium = menu.terms(MARKET.a_vals, MARKET.ks)
        for i, (a, k) in enumerate(zip(MARKET.a_vals.tolist(), MARKET.ks.tolist())):
            want_served, want_d, want_premium = closed_form_terms(kind, tau, a, k)
            assert served[i] == want_served
            assert d[i] == pytest.approx(want_d, rel=1e-12)
            assert premium[i] == pytest.approx(want_premium, rel=1e-12, abs=1e-9)
            entry = menu.entry(a, k)
            assert entry.contract.lam == float(served[i])
            assert entry.contract.deductible == d[i]
            assert entry.premium == premium[i]
            if not served[i]:
                assert entry.contract == Contract(kind, 0.0, 0.0 if kind == "quota_share" else math.inf)
            if a == tau:
                kink_outcomes.add(bool(served[i]))
    assert kink_outcomes == {True, False}


@pytest.mark.parametrize("kind", ["stop-loss", "StopLossMenu", ""])
def test_unknown_class_name_raises(kind, cost, product_dist):
    # A class is a string: a typo must not act as stop-loss.
    with pytest.raises(DomainError, match="unknown contract class"):
        threshold.ThresholdMenu(30000.0, 0.0, cost, product_dist, kind)
    with pytest.raises(DomainError, match="unknown contract class"):
        threshold.objective(kind, 30000.0, product_dist, cost)
    with pytest.raises(DomainError, match="unknown contract class"):
        threshold.solve(kind, product_dist, cost, grid_points=11)


@pytest.mark.parametrize("kind", MENUS)
def test_negative_kink_raises(kind, cost, product_dist):
    # A kink below 0 prices a negative deductible, which no contract has.
    for tau in (-1.0, np.array([0.0, 30000.0, -1e-300])):
        with pytest.raises(DomainError, match="kink tau must be >= 0"):
            threshold.objective(kind, tau, product_dist, cost)


@pytest.mark.parametrize("kind", MENUS)
def test_nan_kink_raises(kind):
    # NaN < 0 is false too: a NaN kink priced J = 0.0 on this market.
    config = ScenarioConfig.from_file(str(SCRIPTS / "uniform_alpha_stop_loss.json"))
    dist, cost = config.build_dist(), config.build_cost()
    for tau in (math.nan, np.array([30000.0, math.nan, 40000.0]), np.array([-1.0, math.nan])):
        with pytest.raises(DomainError, match="kink tau must be >= 0, got nan"):
            threshold.objective(kind, tau, dist, cost)


# Three atoms at a = 10000, ~30700.37 and 50000.  The middle one, which a
# 10,001-point grid on [10000, 50000] misses, is the optimum of every class.
INTERIOR = DiscreteTypes(
    [(math.exp(-1), 10000.0, 0.2), (math.exp(-3), 10233.456, 0.5), (math.exp(-2), 25000.0, 0.3)]
)


@pytest.mark.parametrize("kind", MENUS)
def test_discrete_optimum_is_an_atom(kind, cost):
    menu = threshold.solve(kind, INTERIOR, cost)
    atom = float(INTERIOR.a_vals[1])
    assert menu.tau_star == atom
    assert menu.objective_value == threshold.objective(kind, atom, INTERIOR, cost)


# On the market a = c k, tau* = c^2 k_hi / (2c - 1 - e) maximizes J, with
# e = ln(1 + theta) for stop-loss and theta for quota-share.
@pytest.mark.parametrize(
    "kind, excess", [("stop_loss", math.log1p), ("quota_share", lambda theta: theta)],
    ids=["stop_loss", "quota_share"],
)
@settings(max_examples=40, deadline=None)
@given(
    k_lo=st.floats(1000.0, 20000.0),
    ratio=st.floats(1.2, 4.0),
    theta=st.floats(0.01, 0.5),
    alpha0=st.floats(math.exp(-8.0), math.exp(-2.0)),
)
def test_degenerate_closed_form_optimum(kind, excess, k_lo, ratio, theta, alpha0):
    c, k_hi = -math.log(alpha0), k_lo * ratio
    tau = c * c * k_hi / (2.0 * c - 1.0 - excess(theta))
    # An interior optimum, and sup theta* <= L, so no deductible cap binds.
    assume(c * k_lo < tau < c * k_hi and k_hi * math.log1p(theta) <= c * k_lo)
    dist = DegenerateAlpha(k_lo, k_hi, alpha0)
    menu = threshold.solve(kind, dist, CostFunctional(theta), grid_points=2001)
    assert menu.tau_star == pytest.approx(tau, rel=1e-6)


def test_nearly_coincident_atoms_count_once(cost):
    # Two atoms 1.2e-8 apart: at a kink on either one, the other is counted
    # once, as the menu serves it (through the tail, or not at all).
    dist = DiscreteTypes([(math.exp(-3), 10000.0, 0.5), (math.exp(-3), 10000.0 * (1 + 4e-13), 0.5)])
    menu = threshold.solve("quota_share", dist, cost)
    assert menu.tau_star == float(dist.a_vals[0])
    assert menu.objective_value == pytest.approx(30000.0 - 1.1 * 10000.0, rel=1e-12)


# -- the objective over arrays of kinks -----------------------------------

# sup theta* = 25000 ln 2 ~ 17329 lies above L = 10000, so the stop-loss cap
# binds for kinks in between.
CAPPED = ProductUniform(5000.0, 25000.0, math.exp(-3), math.exp(-2))
CAPPED_COST = CostFunctional(1.0)


def every_k_end(dist):
    """The ends of a uniform k-range, or every distinct atom k."""
    return np.unique(getattr(dist, "ks", dist.k_ends))


def kink_batch(dist, n=301):
    """Kinks across and beyond the support, plus +inf, in one unsorted array."""
    lo, hi = dist.lower_support(), dist.upper_support()
    taus = np.linspace(0.5 * lo, 1.2 * hi, n)
    return np.concatenate([taus[::2], [math.inf], taus[1::2], [lo, hi], every_k_end(dist)])


@pytest.mark.parametrize("kind", MENUS)
@pytest.mark.parametrize("market", ["product", "degenerate", "discrete", "capped"])
def test_terms_equal_the_masked_oracle(market, kind, cost, product_dist, degenerate_dist):
    # Kinks at L, at tau* (stop-loss's where the class has no menu), at the
    # first sample's a (an atom's on the discrete market), so a == tau for
    # some types, and at +inf.  On the capped market sup theta* ~ 17329
    # exceeds L, so theta*_k > tau for part of the k-range at the kink L.
    dist, c = {
        "product": (product_dist, cost),
        "degenerate": (degenerate_dist, cost),
        "discrete": (MARKET, cost),
        "capped": (CAPPED, CAPPED_COST),
    }[market]
    try:
        tau_star = threshold.solve(kind, dist, c, grid_points=501).tau_star
    except AssumptionError:
        tau_star = threshold.solve("stop_loss", dist, c, grid_points=501).tau_star
    lo, hi = dist.lower_support(), dist.upper_support()
    a, k = dist.sample(2000, np.random.default_rng(3))
    ends = every_k_end(dist)
    for tau in (lo, tau_star, float(a[0]), math.inf):
        menu = threshold.ThresholdMenu(tau, 0.0, c, dist, kind)
        at_kink = [] if math.isinf(tau) else np.full(len(ends), tau)
        types_a = np.concatenate([a, np.linspace(0.5 * lo, 1.2 * hi, 101), at_kink])
        types_k = np.concatenate([k, np.full(101, float(np.median(k))), ends[: len(at_kink)]])
        got, want = menu.terms(types_a, types_k), masked_terms(menu, types_a, types_k)
        for x, y in zip(got, want):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    if market == "capped":
        assert menu.profile.sup_theta_star(dist.k_ends) > lo


# At theta = 1, sup theta* = 27000 ln 2 ~ 18715 lies between the atom levels
# ~1139, ~14448 and ~21560: below it the discrete objective prices by g the
# atoms whose deductible is capped, above it J comes from the suffix sums.
CAPPED_DISCRETE = DiscreteTypes([(0.09, 6000.0, 0.45), (0.45, 27000.0, 0.02), (0.32, 1000.0, 0.53)])


# By default a block holds 2^15 elements, 8 per edge or atom of a kink: 819
# kinks (product, capped), 1024 (degenerate), 819 or 1365 (the 5- and 3-atom
# discrete markets, whose kinks priced by g form the blocks), and Gauss
# segments take nodes 32 at a time; so a batch of ~310 kinks is one block.
# With 800 elements, a block holds 20, 25, 20 or 33 kinks, and Gauss
# segments go one at a time. With 3072, 76, 96, 76 or 128 kinks and 3
# segments at a time, so a kink's segments split between sub-blocks at
# varying offsets.
@pytest.mark.parametrize("chunk", [None, 800, 3072], ids=["default-chunk", "small-chunk", "split-rows"])
@pytest.mark.parametrize("kind", MENUS)
@pytest.mark.parametrize("market", ["product", "degenerate", "discrete", "capped", "capped-discrete"])
def test_batched_rows_equal_scalar_calls(
    market, kind, chunk, cost, product_dist, degenerate_dist, monkeypatch
):
    dist, c = {
        "product": (product_dist, cost),
        "degenerate": (degenerate_dist, cost),
        "discrete": (MARKET, cost),
        "capped": (CAPPED, CAPPED_COST),
        "capped-discrete": (CAPPED_DISCRETE, CAPPED_COST),
    }[market]
    if chunk is not None:
        monkeypatch.setattr(type_space, "_CHUNK_ELEMS", chunk)
    taus = kink_batch(dist)
    if isinstance(dist, DiscreteTypes):
        taus = np.concatenate([taus, dist.a_vals])
    if market == "capped-discrete":
        below = taus < KProfile(c, dist.family).sup_theta_star(dist.k_ends)
        assert 100 < below.sum() < len(taus) - 50
    batch = threshold.objective(kind, taus, dist, c)
    assert batch.shape == taus.shape
    for i, t in enumerate(taus.tolist()):
        assert batch[i] == threshold.objective(kind, t, dist, c)
    assert isinstance(threshold.objective(kind, float(taus[0]), dist, c), float)
    assert batch[np.isinf(taus)].tolist() == [0.0]


def test_batched_capped_rows_match_brute_force():
    # Both kinks lie in (L, sup theta*), where the cap theta*_k ∧ tau binds.
    # The profit density kinks in k at theta*_k = k ln 2 = tau, so the brute
    # force integrates the sub-markets on either side of it, by k-share.
    taus = np.array([12000.0, 16000.0])
    batch = threshold.objective("stop_loss", taus, CAPPED, CAPPED_COST)
    alphas, k_lo, k_hi = (CAPPED.alpha_lo, CAPPED.alpha_hi), CAPPED.k_lo, CAPPED.k_hi
    for tau, fast in zip(taus.tolist(), batch.tolist()):
        profit = np.vectorize(lambda a, k: phi(tau, a, CAPPED_COST, ExponentialLoss(k)))
        kink = tau / math.log(2.0)
        brute = sum(
            (hi - lo) / (k_hi - k_lo) * ProductUniform(lo, hi, *alphas).integrate(profit, breakpoints=[tau])
            for lo, hi in ((k_lo, kink), (kink, k_hi))
        )
        assert fast == pytest.approx(brute, rel=1e-12)


# With an atom of 0.15 at zero and theta = 0.1, theta*_1 = ln 1.1 + ln 0.85 < 0
# is 0: the stop-loss kink theta*_k = tau has ratio 0 and splits no k-segment.
ZERO_THETA_STAR = ProductUniform(5000.0, 25000.0, 0.03, 0.1, ExponentialFamily(0.15))


def test_zero_theta_star_splits_nowhere(cost):
    # Below L ~ 10700 every type is served at profit tau - xi_k = tau - 0.935 k.
    got = threshold.objective("stop_loss", np.array([0.0, 1000.0, 50000.0]), ZERO_THETA_STAR, cost)
    assert got == pytest.approx([-14025.0, -13025.0, 8388.186408651098], rel=1e-12)
    assert threshold.solve("stop_loss", ZERO_THETA_STAR, cost).tau_star == pytest.approx(39554.51937377825, rel=1e-12)


# The distorted survival 1.1 (0.95 - 1e-4 y) stays above the target 1 up to
# the support's end at 100: theta*_1 = inf, so xi_k is not finite, and a
# stop-loss J of -inf at finite true values would be wrong.
NEVER_CROSSES = ScaleFamily(GenericLoss(lambda y: 0.95 - 1e-4 * y, support_hi=100.0))
INFINITE_THETA_STAR = {
    "discrete": DiscreteTypes([(0.945, 1.0, 0.5), (0.945, 2.0, 0.5)], NEVER_CROSSES),
    "degenerate": DegenerateAlpha(1.0, 2.0, 0.945, NEVER_CROSSES),
}


@pytest.mark.parametrize("market", INFINITE_THETA_STAR)
def test_stop_loss_with_infinite_theta_star_is_unsupported(market, cost):
    dist = INFINITE_THETA_STAR[market]
    for kind in ("stop_loss", "change_loss"):
        with pytest.raises(UnsupportedError, match=r"theta\*"):
            threshold.objective(kind, np.array([0.0, 10.0, 50.0, 100.0]), dist, cost)
        with pytest.raises(UnsupportedError, match=r"theta\*"):
            threshold.solve(kind, dist, cost, grid_points=101)
    # Quota-share needs only H[X_k], which is finite.
    menu = threshold.solve("quota_share", dist, cost, grid_points=101)
    assert math.isfinite(menu.tau_star) and menu.objective_value >= 0.0


def test_first_best_leaves_types_of_infinite_theta_star_unserved(cost):
    r = first_best_demo(60.0, 2.0, 50.0, 1.0, INFINITE_THETA_STAR["discrete"], cost)
    assert r.deductibles == (math.inf, math.inf)
    assert r.premiums == r.first_best_profits == (0.0, 0.0)
    assert r.mimic_gain == r.mimic_profit == 0.0


def doubled(dist):
    """The market with every k doubled, so every a = k VaR_1(alpha) doubles."""
    if isinstance(dist, DiscreteTypes):
        atoms = zip(dist.alphas, dist.ks, dist.weights)
        return DiscreteTypes([(al, 2.0 * k, w) for al, k, w in atoms], dist.family)
    if isinstance(dist, DegenerateAlpha):
        return DegenerateAlpha(2.0 * dist.k_lo, 2.0 * dist.k_hi, dist.alpha0, dist.family)
    return ProductUniform(2.0 * dist.k_lo, 2.0 * dist.k_hi, dist.alpha_lo, dist.alpha_hi, dist.family)


def lomax_base(y):
    """S(y) = (1 + y/2)^-3: a Lomax loss of mean 1, priced by quadrature."""
    return (1.0 + y / 2.0) ** -3.0


# The product market on a Lomax base; sup theta* ~ 1614 < L ~ 9477 at theta = 0.1.
LOMAX = ProductUniform(5000.0, 25000.0, math.exp(-3), math.exp(-2), ScaleFamily(GenericLoss(lomax_base)))
MARKETS = {
    "product": CAPPED,  # the cap binds only under CAPPED_COST
    "degenerate": DegenerateAlpha(5000.0, 25000.0, math.exp(-3)),
    "discrete": INTERIOR,
    "lomax": LOMAX,
}


# -- closed-form k-segments against the all-node oracle --------------------

ORACLE_MARKETS = {
    "product": (ProductUniform(5000.0, 25000.0, math.exp(-3), math.exp(-2)), CostFunctional(0.1)),
    "fixed_alpha": (MARKETS["degenerate"], CostFunctional(0.1)),
    "capped": (CAPPED, CAPPED_COST),
    "zero_theta_star": (ZERO_THETA_STAR, CostFunctional(0.1)),
    "lomax": (LOMAX, CostFunctional(0.1)),
}


def oracle_kinks(dist, cost):
    """Kinks inside the cap region (below sup theta*), below L, at L, at
    sup theta*, between sup theta* and the top of the support, and +inf."""
    lo, hi = dist.lower_support(), dist.upper_support()
    sup_ts = KProfile(cost, dist.family).sup_theta_star(dist.k_ends)
    return np.array([0.5 * sup_ts, 0.5 * lo, lo, sup_ts, 0.5 * (max(lo, sup_ts) + hi), math.inf])


# Change-loss prices as stop-loss does.
@pytest.mark.parametrize("kind", ["stop_loss", "quota_share"])
@pytest.mark.parametrize("market", ORACLE_MARKETS)
def test_closed_form_segments_match_the_all_node_oracle(market, kind, monkeypatch):
    dist, c = ORACLE_MARKETS[market]
    taus = oracle_kinks(dist, c)
    fast = threshold.objective(kind, taus, dist, c)
    monkeypatch.setattr(type_space._UniformK, "_tail_block", all_node_tail_block)
    want = threshold.objective(kind, taus, dist, c)
    assert np.all(np.abs(fast - want) <= 1e-14 * np.abs(want))
    assert fast[-1] == want[-1] == 0.0
    if market == "capped":
        assert taus[2] < taus[3]  # L < sup theta*: the cap binds between them


def test_uncapped_fixed_alpha_kinks_price_no_node(monkeypatch):
    # a = 3k: every segment's tail is 0 or 1, and above sup theta* ~ 2383
    # no cap binds, so every live segment is served and exact.
    dist, c = ORACLE_MARKETS["fixed_alpha"]
    nodes = []

    def counted(lo, hi, n):
        nodes.append(np.size(lo) * n)
        return gauss_legendre(lo, hi, n)

    monkeypatch.setattr(type_space, "gauss_legendre", counted)
    taus = np.linspace(*threshold.tau_range("stop_loss", dist), 1001)
    for kind in MENUS:
        j = threshold.objective(kind, taus, dist, c)
        assert np.all(j[:-1] != 0.0) and j[-1] == 0.0  # types above every kink but the top
    assert nodes == []
    # Inside the cap region the capped segments still take nodes.
    threshold.objective("stop_loss", np.array([1000.0]), dist, c)
    assert sum(nodes) > 0


def test_capped_lomax_market_keeps_its_menu():
    # theta = 1 puts sup theta* above L, so every kink below it prices a tail
    # cost at each capped Gauss node: batched tails make this a one-second
    # solve.  tau* and J as the per-node scalar tails gave them.
    menu = threshold.solve("stop_loss", LOMAX, CAPPED_COST, grid_points=1001)
    assert menu.tau_star == pytest.approx(49033.48152435394, rel=1e-12)
    assert menu.objective_value == pytest.approx(2616.9294911249212, rel=1e-12)


# Change-loss has no menu on the capped market, where sup theta* > L.
@pytest.mark.parametrize(
    "market, kind",
    [(m, c) for m in ("product", "degenerate", "discrete", "capped", "lomax") for c in MENUS
     if (m, c) != ("capped", "change_loss")],
)
def test_doubling_every_k_doubles_the_menu(market, kind, cost):
    # H[2X] = 2 H[X]: doubling every k doubles every level and price, and
    # doubling is exact in floating point, so the menu doubles bit for bit.
    dist, c = (CAPPED, CAPPED_COST) if market == "capped" else (MARKETS[market], cost)
    big = doubled(dist)
    menu, twice = (threshold.solve(kind, d, c, grid_points=2001) for d in (dist, big))
    assert (twice.tau_star, twice.objective_value) == (2.0 * menu.tau_star, 2.0 * menu.objective_value)
    a, k = dist.sample(500, np.random.default_rng(7))
    a2, k2 = big.sample(500, np.random.default_rng(7))
    assert (a2.tolist(), k2.tolist()) == ((2.0 * a).tolist(), (2.0 * k).tolist())
    # Types at the kink too, where the break-even rule decides who is served.
    ends = every_k_end(dist)
    a, k = np.append(a, np.full(len(ends), menu.tau_star)), np.append(k, ends)
    served, d, premium = menu.terms(a, k)
    served2, d2, premium2 = twice.terms(2.0 * a, 2.0 * k)
    assert served2.tolist() == served.tolist()
    assert (d2.tolist(), premium2.tolist()) == ((2.0 * d).tolist(), (2.0 * premium).tolist())


SL_QS = ("stop_loss", "quota_share")


def j_star(kind, dist, cost):
    return threshold.solve(kind, dist, cost, grid_points=2001).objective_value


def kinks(dist):
    """101 kinks from 0 through the support, and every atom of a discrete market."""
    return np.union1d(np.linspace(0.0, dist.upper_support(), 101), getattr(dist, "a_vals", []))


def at_most(lower, upper):
    """lower <= upper at every kink, up to rounding (1e-12 relative)."""
    return bool(np.all(lower <= upper + 1e-12 * np.abs(upper)))


@pytest.mark.parametrize("market", [*MARKETS, "capped"])
def test_stop_loss_dominates_quota_share(market, cost):
    # xi_k <= H[X_k], and below theta*_k, where the cap binds, the stop-loss
    # profit -H[(X_k - t)_+] is at least t - H[X_k]: B_X(d) = -d - H[(X - d)_+]
    # rises up to theta*.  So stop-loss J is at least quota-share J at every
    # kink, and so is its optimum.
    dist, c = (CAPPED, CAPPED_COST) if market == "capped" else (MARKETS[market], cost)
    t = kinks(dist)
    assert at_most(threshold.objective("quota_share", t, dist, c), threshold.objective("stop_loss", t, dist, c))
    assert j_star("stop_loss", dist, c) >= j_star("quota_share", dist, c)


@pytest.mark.parametrize("kind", SL_QS)
@pytest.mark.parametrize("market", MARKETS)
@pytest.mark.parametrize(
    "costs",
    [
        [CostFunctional(theta) for theta in (0.05, 0.1, 0.2)],
        [CostFunctional(0.1, Distortion.power(c)) for c in (1.0, 0.95, 0.9)],
    ],
    ids=["theta", "power"],
)
def test_j_does_not_rise_with_the_cost(costs, market, kind):
    # H grows pointwise as theta rises and as a power distortion's c falls,
    # so no type's profit at a kink grows: J falls at every kink, and so
    # does J*.
    dist = MARKETS[market]
    t = kinks(dist)
    js = [threshold.objective(kind, t, dist, c) for c in costs]
    assert all(at_most(hi, lo) for lo, hi in zip(js, js[1:]))
    stars = [j_star(kind, dist, c) for c in costs]
    assert stars[0] >= stars[1] >= stars[2]


def scalar_search(j, lo, hi, grid_points, refine_tol):
    """The search rule with one scalar J call per kink: a grid scan, then
    33-kink rounds over the two intervals around each round's best kink."""
    taus, width = np.linspace(lo, hi, grid_points), math.inf
    best_tau, best_val = math.inf, -math.inf
    while True:
        vals = [j(float(t)) for t in taus]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_tau, best_val = float(taus[i]), vals[i]
        b_lo, b_hi = float(taus[max(i - 1, 0)]), float(taus[min(i + 1, len(taus) - 1)])
        tol = 0.1 * refine_tol * max(1.0, abs(0.5 * (b_lo + b_hi)))
        if b_hi - b_lo <= tol or b_hi - b_lo >= width:
            break
        taus, width = np.linspace(b_lo, b_hi, 33), b_hi - b_lo
    return (best_tau, best_val) if best_val >= 0.0 else (math.inf, 0.0)


@pytest.mark.parametrize("kind", MENUS[:2])
@pytest.mark.parametrize("market", ["product", "capped"])
def test_solve_keeps_the_scalar_search_rule(market, kind, cost, product_dist):
    dist, c = (product_dist, cost) if market == "product" else (CAPPED, CAPPED_COST)
    menu = threshold.solve(kind, dist, c, grid_points=2001)
    lo, hi = threshold.tau_range(kind, dist)
    want = scalar_search(lambda t: threshold.objective(kind, t, dist, c), lo, hi, 2001, 1e-6)
    assert (menu.tau_star, menu.objective_value) == want


@pytest.mark.parametrize("kind", MENUS)
def test_continuous_solve_makes_no_scalar_call(kind, cost, product_dist, monkeypatch):
    sizes = []
    batched = threshold.objective

    def counted(kind, tau, *args, **kwargs):
        sizes.append(np.size(tau) if np.ndim(tau) else None)
        return batched(kind, tau, *args, **kwargs)

    monkeypatch.setattr(threshold, "objective", counted)
    threshold.solve(kind, product_dist, cost)
    assert sizes[0] == 10001 and len(sizes) > 1
    assert None not in sizes


@pytest.mark.parametrize("refine_tol", [1e-15, 1e-300])
def test_search_stops_at_float_resolution(refine_tol, cost, degenerate_dist):
    t0 = time.perf_counter()
    menu = threshold.solve("stop_loss", degenerate_dist, cost, refine_tol=refine_tol)
    assert time.perf_counter() - t0 < 10.0
    tau = 225000.0 / (5.0 - LN11)
    assert menu.tau_star == pytest.approx(tau, rel=1e-6)


def test_search_finds_an_optimum_at_either_end():
    assert maximize_over_tau(lambda t: t - 1.0, 1.0, 2.0, 101) == (2.0, 1.0)
    assert maximize_over_tau(lambda t: 2.0 - t, 1.0, 2.0, 101) == (1.0, 1.0)


def test_search_keeps_the_first_best_on_a_plateau():
    # The grid reaches the plateau at 6; the zoom finds 5.3125 on it, which
    # only ties and so does not displace the earlier best.
    calls = []

    def plateau(t):
        calls.append(len(t))
        return np.minimum(t, 5.3)

    assert maximize_over_tau(plateau, 0.0, 10.0, 11) == (6.0, 5.3)
    assert calls[0] == 11 and set(calls[1:]) == {33}


def test_search_shuts_down_when_every_kink_loses():
    assert maximize_over_tau(lambda t: -1.0 - t * t, -1.0, 1.0, 101) == (math.inf, 0.0)


def test_menu_reuses_its_profile(monkeypatch):
    # Lomax losses S(y) = (1 + y / 2k)^-3: the base's costs come from quadrature.first_true.
    family = ScaleFamily(GenericLoss(lambda y: (1.0 + y / 2.0) ** -3.0))
    dist = DiscreteTypes([(0.05, 5000.0, 0.5), (0.1, 12000.0, 0.5)], family)
    menu = threshold.ThresholdMenu(float(dist.a_vals.min()), 0.0, CostFunctional(0.2), dist, "stop_loss")
    calls = []
    theta_star = CostFunctional.theta_star

    def counted(self, loss):
        calls.append(loss)
        return theta_star(self, loss)

    monkeypatch.setattr(CostFunctional, "theta_star", counted)
    a, k = float(dist.a_vals[1]), float(dist.ks[1])
    first = menu.entry(a, k)
    assert calls
    calls.clear()
    assert menu.entry(a, k) == first
    assert calls == []
