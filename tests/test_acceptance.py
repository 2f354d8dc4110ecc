"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The reference market: exponential losses with mean k ~ U(5000, 25000),
loading theta = 0.1, identity distortion, and either alpha ~ U(e^-3, e^-2)
(the "product" market) or alpha fixed at e^-3 (the "degenerate" market,
where a = 3k and the optima have closed forms).
"""

import math
import time

import numpy as np
import pytest

from remenu import (
    CostFunctional,
    DegenerateAlpha,
    Distortion,
    ProductUniform,
    bl_decompose,
    change_loss,
    check_ic,
    check_ir,
    first_best_demo,
    indirect_utility,
    j_general,
    monte_carlo_profit,
    quota_share,
    stop_loss,
)
from remenu.verification import random_utilities

LN11 = math.log(1.1)
ALPHA_LO = math.exp(-3)
ALPHA_HI = math.exp(-2)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def cost():
    return CostFunctional(0.1, Distortion.identity())


@pytest.fixture(scope="module")
def product(cost):
    return ProductUniform(5000.0, 25000.0, ALPHA_LO, ALPHA_HI)


@pytest.fixture(scope="module")
def degenerate(cost):
    return DegenerateAlpha(5000.0, 25000.0, ALPHA_LO)


@pytest.fixture(scope="module")
def sl_product(cost, product):
    return stop_loss.solve(product, cost)


@pytest.fixture(scope="module")
def qs_product(cost, product):
    return quota_share.solve(product, cost)


@pytest.fixture(scope="module")
def cl_product(cost, product):
    return change_loss.solve(product, cost)


INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo, hi, rel_tol):
    """Golden-section search for a maximum of a unimodal scalar f on [lo, hi].

    Returns (argmax, value) of the best point actually evaluated, so exact
    endpoint optima survive.  The bracket is shrunk until its width is below
    0.1 * rel_tol * max(1, |x|), in at most 400 steps.
    """
    a, b = float(lo), float(hi)
    best_x, best_v = a, f(a)
    v = f(b)
    if v > best_v:
        best_x, best_v = b, v
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(400):
        if fc > best_v:
            best_x, best_v = c, fc
        if fd > best_v:
            best_x, best_v = d, fd
        if (b - a) <= 0.1 * rel_tol * max(1.0, abs(0.5 * (a + b))):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = f(d)
    return best_x, best_v


def _dense_oracle(objective, lo, hi, n=100_000):
    """Independent brute-force maximizer: dense grid plus golden-section
    refinement, a different search from the solver's grid-and-zoom rule."""
    grid = np.linspace(lo, hi, n)
    vals = objective(grid)  # one array call; row i equals objective(grid[i])
    i = int(np.argmax(vals))
    blo = float(grid[max(i - 1, 0)])
    bhi = float(grid[min(i + 1, n - 1)])
    tau, val = _golden_section_max(objective, blo, bhi, rel_tol=1e-9)
    return (tau, val) if val >= vals[i] else (float(grid[i]), float(vals[i]))


def test_criterion_01_analytic_stop_loss_optimum(cost, degenerate):
    t0 = time.time()
    menu = stop_loss.solve(degenerate, cost)
    elapsed = time.time() - t0
    expected_tau = 225000.0 / (5.0 - LN11)
    tau_ok = abs(menu.tau_star - expected_tau) <= 1e-6 * expected_tau
    tau = menu.tau_star
    closed = (1.0 / 20000.0) * (
        tau * (25000.0 - tau / 3.0) - ((1.0 + LN11) / 2.0) * (25000.0**2 - tau**2 / 9.0)
    )
    obj_ok = abs(menu.objective_value - closed) <= 1e-6 * abs(closed)
    report(
        1,
        "analytic stop-loss optimum (a = 3k market)",
        tau_ok and obj_ok and elapsed < 5.0,
        f"tau*={menu.tau_star:.6f} vs {expected_tau:.6f}, J={menu.objective_value:.6f}, {elapsed:.2f}s",
    )


def test_criterion_02_analytic_quota_share_optimum(cost, degenerate):
    t0 = time.time()
    menu = quota_share.solve(degenerate, cost)
    expected_tau = 4500000.0 / 98.0
    tau_ok = abs(menu.tau_star - expected_tau) <= 1e-6 * expected_tau

    def closed(t):
        if t <= 15000.0:
            return t - 16500.0
        return -49.0 * t * t / 3600000.0 + 1.25 * t - 17187.5

    ts = np.linspace(2000.0, 74000.0, 20)
    curve_ok = all(
        abs(quota_share.j_phi(float(t), degenerate, cost) - closed(float(t)))
        <= 1e-6 * max(1.0, abs(closed(float(t))))
        for t in ts
    )
    elapsed = time.time() - t0
    report(
        2,
        "analytic quota-share optimum (a = 3k market)",
        tau_ok and curve_ok and elapsed < 5.0,
        f"tau*={menu.tau_star:.6f} vs {expected_tau:.6f}, {elapsed:.2f}s",
    )


def test_criterion_03_numeric_stop_loss_optimum(cost, product, sl_product):
    t0 = time.time()
    menu = sl_product
    near_ref = abs(menu.tau_star - 38861.6) <= 0.01 * 38861.6
    tau_oracle, _ = _dense_oracle(
        lambda t: stop_loss.objective(t, product, cost),
        product.lower_support(),
        product.upper_support(),
    )
    oracle_ok = abs(menu.tau_star - tau_oracle) <= 1e-6 * max(1.0, abs(tau_oracle))
    elapsed = time.time() - t0
    report(
        3,
        "numeric stop-loss optimum matches dense-grid oracle",
        near_ref and oracle_ok and elapsed < 60.0,
        f"tau*={menu.tau_star:.4f}, oracle={tau_oracle:.4f}, {elapsed:.1f}s",
    )


def test_criterion_04_numeric_quota_share_optimum(cost, product, qs_product):
    t0 = time.time()
    menu = qs_product
    near_ref = abs(menu.tau_star - 38912.1) <= 0.01 * 38912.1
    tau_oracle, _ = _dense_oracle(
        lambda t: quota_share.j_phi(t, product, cost), 0.0, product.upper_support()
    )
    oracle_ok = abs(menu.tau_star - tau_oracle) <= 1e-6 * max(1.0, abs(tau_oracle))
    elapsed = time.time() - t0
    report(
        4,
        "numeric quota-share optimum matches dense-grid oracle",
        near_ref and oracle_ok and elapsed < 60.0,
        f"tau*={menu.tau_star:.4f}, oracle={tau_oracle:.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_change_loss_assumption_and_coincidence(cost, product, cl_product):
    rep = change_loss.assumption_check(product, cost)
    sup_ok = abs(rep.sup_theta_star - 25000.0 * LN11) <= 1e-9
    l_ok = rep.lower_support == 10000.0
    ts = np.linspace(2500.0, 75000.0, 52)[1:-1]
    coincide_ok = True
    for t in ts:
        a = change_loss.j_phi_cl(float(t), product, cost)
        b = stop_loss.objective(float(t), product, cost)
        if abs(a - b) > 1e-8 * max(1.0, abs(b)):
            coincide_ok = False
            break
    menu = cl_product
    tau = menu.tau_star
    menu_ok = True
    for k in np.linspace(5000.0, 25000.0, 11):
        hi = menu.entry(tau + 10000.0, float(k))
        menu_ok &= hi.contract.lam == 1.0
        menu_ok &= abs(hi.contract.deductible - k * LN11) <= 1e-9 * max(1.0, k * LN11)
        menu_ok &= abs(hi.premium - (tau - k * LN11)) <= 1e-9 * tau
    report(
        5,
        "change-loss assumption holds and objective coincides with stop-loss",
        sup_ok and l_ok and coincide_ok and bool(menu_ok),
        f"sup theta*={rep.sup_theta_star:.6f}, L={rep.lower_support}",
    )


def test_criterion_06_breeden_litzenberger_identity(cost, product):
    rng = np.random.default_rng(2024)
    vs = random_utilities(100, product.lower_support(), product.upper_support(), rng)
    worst = 0.0
    for v in vs:
        parts = bl_decompose(v)
        for cls, jp in (
            ("quota_share", quota_share.j_phi),
            ("change_loss", change_loss.j_phi_cl),
        ):
            lhs = j_general(v, product, cost, cls)
            rhs = sum(w * jp(t, product, cost) for t, w in parts)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    report(
        6,
        "weighted-average identity for 100 random candidate utilities",
        worst <= 1e-8,
        f"worst relative error {worst:.3e}",
    )


def test_criterion_07_ic_ir_audit(cost, product, sl_product, qs_product, cl_product):
    worst = 0.0
    ok = True
    for i, menu in enumerate((sl_product, qs_product, cl_product)):
        rng = np.random.default_rng(100 + i)
        ic = check_ic(menu, product, 10000, rng)
        ir = check_ir(menu, product, 10000, rng)
        ok &= ic.passed and ir.passed
        worst = max(worst, ic.max_violation, ir.max_violation)
    report(
        7,
        "IC/IR audits on 10^4 sampled pairs per solved menu",
        ok,
        f"max violation {worst:.3e}",
    )


def test_criterion_08_first_best_failure(cost, product):
    rng = np.random.default_rng(77)
    a, k = product.sample(40, rng)
    checked = 0
    ok = True
    i = 0
    while checked < 20:
        a1, a2 = float(max(a[i], a[i + 1])), float(min(a[i], a[i + 1]))
        k1, k2 = float(k[i]), float(k[i + 1])
        i += 2
        if a2 >= a1:
            continue
        r = first_best_demo(a1, k1, a2, k2, product, cost)
        ok &= r.mimic_gain >= -1e-12
        if r.deductible_2 < a1:
            ok &= r.mimic_gain > 1e-12
        ok &= r.mimic_profit <= r.first_best_profit_1 + 1e-12
        checked += 1
    report(8, "full-information menus invite mimicry (20 random pairs)", ok)


def test_criterion_09_monte_carlo_cross_validation(cost, product, sl_product):
    est, se = monte_carlo_profit(sl_product, product, cost, 1_000_000, seed=42)
    ok = abs(est - sl_product.objective_value) <= 3.0 * se
    report(
        9,
        "Monte Carlo profit within 3 standard errors of the objective",
        ok,
        f"estimate {est:.3f} +/- {se:.3f}, objective {sl_product.objective_value:.3f}",
    )


def test_criterion_10_indirect_utility_recovery(cost, product, sl_product, qs_product, cl_product):
    worst = 0.0
    a_grid = np.linspace(product.lower_support(), product.upper_support(), 1000)
    k_grid = np.clip(a_grid / 2.5, 5000.0, 25000.0)  # keeps (a, k) in the support
    for menu in (sl_product, qs_product, cl_product):
        gm = menu.entries_for(list(zip(a_grid, k_grid)))
        got = indirect_utility(gm, a_grid)
        target = np.maximum(a_grid - menu.tau_star, 0.0)
        worst = max(worst, float(np.max(np.abs(got - target))))
    report(
        10,
        "indirect utility of each emitted menu is (a - tau*)_+ on 1000 points",
        worst <= 1e-9,
        f"max deviation {worst:.3e}",
    )


def test_criterion_11_dominance(cost, product, qs_product, cl_product):
    rng = np.random.default_rng(31)
    vs = random_utilities(100, product.lower_support(), product.upper_support(), rng)
    ok = True
    worst = -math.inf
    for v in vs:
        jq = j_general(v, product, cost, "quota_share")
        jc = j_general(v, product, cost, "change_loss")
        ok &= jq <= qs_product.objective_value + 1e-8
        ok &= jc <= cl_product.objective_value + 1e-8
        worst = max(worst, jq - qs_product.objective_value, jc - cl_product.objective_value)
    report(
        11,
        "no candidate utility beats the solved optimum (100 random v, both classes)",
        ok,
        f"max excess {worst:.3e}",
    )
