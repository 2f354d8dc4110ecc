import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from remenu import (
    Contract,
    CostFunctional,
    DegenerateAlpha,
    DiscreteTypes,
    ExponentialLoss,
    GenericFamily,
    GenericLoss,
    ProductUniform,
    change_loss,
    quota_share,
    stop_loss,
    threshold,
    type_space,
)
from remenu.search import maximize_over_tau

LN11 = math.log(1.1)
MENUS = [stop_loss.StopLossMenu, quota_share.QuotaShareMenu, change_loss.ChangeLossMenu]

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


@pytest.mark.parametrize("menu_cls", MENUS, ids=lambda m: m.contract_class)
def test_terms_follow_the_contract_rule(menu_cls, cost):
    kind = menu_cls.contract_class
    # Change-loss menus exist only for kinks above sup theta*.
    sup_theta_star = MARKET.ks.max() * LN11
    taus = [float(t) for t in MARKET.a_vals if kind != "change_loss" or t >= sup_theta_star]
    kink_outcomes = set()
    for tau in [*taus, math.inf]:
        menu = menu_cls(tau, 0.0, cost, MARKET)
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
                assert entry.contract == Contract.null(kind)
            if a == tau:
                kink_outcomes.add(bool(served[i]))
    assert kink_outcomes == {True, False}


# Three atoms at a = 10000, ~30700.37 and 50000.  The middle one, which a
# 10,001-point grid on [10000, 50000] misses, is the optimum of every class.
INTERIOR = DiscreteTypes(
    [(math.exp(-1), 10000.0, 0.2), (math.exp(-3), 10233.456, 0.5), (math.exp(-2), 25000.0, 0.3)]
)
OBJECTIVES = [stop_loss.objective, quota_share.j_phi, change_loss.j_phi_cl]


@pytest.mark.parametrize(
    "menu_cls, objective", zip(MENUS, OBJECTIVES), ids=[m.contract_class for m in MENUS]
)
def test_discrete_optimum_is_an_atom(menu_cls, objective, cost):
    menu = threshold.solve(menu_cls, INTERIOR, cost)
    atom = float(INTERIOR.a_vals[1])
    assert menu.tau_star == atom
    assert menu.objective_value == objective(atom, INTERIOR, cost)


# On the market a = c k, tau* = c^2 k_hi / (2c - 1 - e) maximizes J, with
# e = ln(1 + theta) for stop-loss and theta for quota-share.
@pytest.mark.parametrize(
    "module, excess", [(stop_loss, math.log1p), (quota_share, lambda theta: theta)],
    ids=["stop_loss", "quota_share"],
)
@settings(max_examples=40, deadline=None)
@given(
    k_lo=st.floats(1000.0, 20000.0),
    ratio=st.floats(1.2, 4.0),
    theta=st.floats(0.01, 0.5),
    alpha0=st.floats(math.exp(-8.0), math.exp(-2.0)),
)
def test_degenerate_closed_form_optimum(module, excess, k_lo, ratio, theta, alpha0):
    c, k_hi = -math.log(alpha0), k_lo * ratio
    tau = c * c * k_hi / (2.0 * c - 1.0 - excess(theta))
    # An interior optimum, and sup theta* <= L, so no deductible cap binds.
    assume(c * k_lo < tau < c * k_hi and k_hi * math.log1p(theta) <= c * k_lo)
    dist = DegenerateAlpha(k_lo, k_hi, alpha0)
    menu = module.solve(dist, CostFunctional(theta), grid_points=2001)
    assert menu.tau_star == pytest.approx(tau, rel=1e-6)


def test_nearly_coincident_atoms_count_once(cost):
    # Two atoms 1.2e-8 apart: at a kink on either one, the other is counted
    # once, as the menu serves it (through the tail, or not at all).
    dist = DiscreteTypes([(math.exp(-3), 10000.0, 0.5), (math.exp(-3), 10000.0 * (1 + 4e-13), 0.5)])
    menu = quota_share.solve(dist, cost)
    assert menu.tau_star == float(dist.a_vals[0])
    assert menu.objective_value == pytest.approx(30000.0 - 1.1 * 10000.0, rel=1e-12)


# -- the objective over arrays of kinks -----------------------------------

# sup theta* = 25000 ln 2 ~ 17329 lies above L = 10000, so the stop-loss cap
# binds for kinks in between.
CAPPED = ProductUniform(5000.0, 25000.0, math.exp(-3), math.exp(-2))
CAPPED_COST = CostFunctional(1.0)


def kink_batch(dist, n=301):
    """Kinks across and beyond the support, plus +inf, in one unsorted array."""
    lo, hi = dist.lower_support(), dist.upper_support()
    taus = np.linspace(0.5 * lo, 1.2 * hi, n)
    return np.concatenate([taus[::2], [math.inf], taus[1::2], [lo, hi], dist.k_ends])


# With 800 elements per pass, a batch of ~310 kinks spans two blocks of kinks
# on every market (160 to 266 kinks per block) and many node passes of three
# segments, and is a multiple of neither.
@pytest.mark.parametrize("chunk", [None, 800], ids=["default-chunk", "small-chunk"])
@pytest.mark.parametrize("kind", [m.contract_class for m in MENUS])
@pytest.mark.parametrize("market", ["product", "degenerate", "discrete", "capped"])
def test_batched_rows_equal_scalar_calls(
    market, kind, chunk, cost, product_dist, degenerate_dist, monkeypatch
):
    dist, c = {
        "product": (product_dist, cost),
        "degenerate": (degenerate_dist, cost),
        "discrete": (MARKET, cost),
        "capped": (CAPPED, CAPPED_COST),
    }[market]
    if chunk is not None:
        monkeypatch.setattr(type_space, "_CHUNK_ELEMS", chunk)
    taus = kink_batch(dist)
    if market == "discrete":
        taus = np.concatenate([taus, MARKET.a_vals])
    batch = threshold.objective(kind, taus, dist, c)
    assert batch.shape == taus.shape
    for i, t in enumerate(taus.tolist()):
        assert batch[i] == threshold.objective(kind, t, dist, c)
    assert isinstance(threshold.objective(kind, float(taus[0]), dist, c), float)
    assert batch[np.isinf(taus)].tolist() == [0.0]


def test_batched_capped_rows_match_brute_force():
    # Both kinks lie in (L, sup theta*), where the cap theta*_k ∧ tau binds.
    taus = np.array([12000.0, 16000.0])
    batch = stop_loss.objective(taus, CAPPED, CAPPED_COST)
    for tau, fast in zip(taus.tolist(), batch.tolist()):
        phi = np.vectorize(lambda a, k: stop_loss.phi(tau, a, CAPPED_COST, ExponentialLoss(k)))
        brute = CAPPED.integrate(phi, breakpoints=[tau])
        assert fast == pytest.approx(brute, rel=1e-9)


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


@pytest.mark.parametrize("menu_cls", MENUS[:2], ids=lambda m: m.contract_class)
@pytest.mark.parametrize("market", ["product", "capped"])
def test_solve_keeps_the_scalar_search_rule(market, menu_cls, cost, product_dist):
    dist, c = (product_dist, cost) if market == "product" else (CAPPED, CAPPED_COST)
    kind = menu_cls.contract_class
    menu = threshold.solve(menu_cls, dist, c, grid_points=2001)
    lo, hi = threshold.tau_range(kind, dist)
    want = scalar_search(lambda t: threshold.objective(kind, t, dist, c), lo, hi, 2001, 1e-6)
    assert (menu.tau_star, menu.objective_value) == want


@pytest.mark.parametrize("menu_cls", MENUS, ids=lambda m: m.contract_class)
def test_continuous_solve_makes_no_scalar_call(menu_cls, cost, product_dist, monkeypatch):
    sizes = []
    batched = threshold.objective

    def counted(kind, tau, *args, **kwargs):
        sizes.append(np.size(tau) if np.ndim(tau) else None)
        return batched(kind, tau, *args, **kwargs)

    monkeypatch.setattr(threshold, "objective", counted)
    threshold.solve(menu_cls, product_dist, cost)
    assert sizes[0] == 10001 and len(sizes) > 1
    assert None not in sizes


@pytest.mark.parametrize("refine_tol", [1e-15, 1e-300])
def test_search_stops_at_float_resolution(refine_tol, cost, degenerate_dist):
    t0 = time.perf_counter()
    menu = stop_loss.solve(degenerate_dist, cost, refine_tol=refine_tol)
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
    # Lomax losses S(y) = (1 + y / 2k)^-3: per-k costs come from bisection.
    family = GenericFamily(lambda k: GenericLoss(lambda y: (1.0 + y / (2.0 * k)) ** -3.0))
    dist = DiscreteTypes([(0.05, 5000.0, 0.5), (0.1, 12000.0, 0.5)], family)
    menu = stop_loss.StopLossMenu(float(dist.a_vals.min()), 0.0, CostFunctional(0.2), dist)
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
