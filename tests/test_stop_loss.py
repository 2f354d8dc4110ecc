import math

import numpy as np
import pytest

from remenu import DiscreteTypes, ExponentialLoss, check_ic, check_ir, monte_carlo_profit, stop_loss, threshold

LN11 = math.log(1.1)


def closed_form_objective_degenerate(tau: float) -> float:
    """Objective of the a = 3k market on the interior branch tau in (15000, 75000)."""
    return (1.0 / 20000.0) * (
        tau * (25000.0 - tau / 3.0)
        - ((1.0 + LN11) / 2.0) * (25000.0**2 - tau**2 / 9.0)
    )


def assert_served_profit_matches_entries(menu, cost, a, k):
    """served_profit at tau* (cap_below = inf) against P - lam H[(X_k - d)_+]
    of each served type's entry; returns those entries."""
    served = menu.terms(a, k)[0]
    ks = k[served]
    t = np.full(ks.shape, menu.tau_star)
    vec = threshold.served_profit("stop_loss", menu.profile, t, ks, math.inf)
    entries = [menu.entry(float(ai), float(ki)) for ai, ki in zip(a[served], ks)]
    for got, e in zip(vec, entries):
        c = e.contract
        direct = e.premium - c.lam * cost.stop_loss_cost(ExponentialLoss(e.k), c.deductible)
        assert got == pytest.approx(direct, abs=1e-9)
    return entries


class TestOptimalDeductible:
    def test_served_type_gets_capped_theta_star(self, cost):
        loss = ExponentialLoss(10000.0)
        d = stop_loss.optimal_deductible(38861.6, 40000.0, cost, loss)
        assert d == pytest.approx(953.10, abs=0.01)

    def test_cap_binds_for_small_tau(self, cost):
        loss = ExponentialLoss(10000.0)
        assert stop_loss.optimal_deductible(500.0, 40000.0, cost, loss) == 500.0

    def test_below_threshold_is_null(self, cost):
        assert stop_loss.optimal_deductible(30000.0, 20000.0, cost, ExponentialLoss(10000.0)) == math.inf

    def test_at_threshold_depends_on_break_even(self, cost):
        loss = ExponentialLoss(10000.0)
        xi = cost.xi(loss)  # ~10953
        assert stop_loss.optimal_deductible(xi + 1.0, xi + 1.0, cost, loss) == pytest.approx(
            cost.theta_star(loss)
        )
        assert stop_loss.optimal_deductible(xi - 1.0, xi - 1.0, cost, loss) == math.inf


class TestPhi:
    def test_high_branch(self, cost):
        k = 10000.0
        tau = 30000.0  # > k ln 1.1
        got = stop_loss.phi(tau, 40000.0, cost, ExponentialLoss(k))
        assert got == pytest.approx(tau - k * (1.0 + LN11), rel=1e-12)

    def test_capped_branch(self, cost):
        k = 10000.0
        tau = 500.0  # <= k ln 1.1
        got = stop_loss.phi(tau, 40000.0, cost, ExponentialLoss(k))
        assert got == pytest.approx(-1.1 * k * math.exp(-tau / k), rel=1e-12)

    def test_shut_down_branch(self, cost):
        assert stop_loss.phi(30000.0, 20000.0, cost, ExponentialLoss(10000.0)) == 0.0


class TestObjective:
    def test_infinite_tau_is_zero(self, cost, product_dist):
        assert stop_loss.objective(math.inf, product_dist, cost) == 0.0

    def test_degenerate_closed_form(self, cost, degenerate_dist):
        for tau in (20000.0, 30000.0, 45874.46, 60000.0):
            got = stop_loss.objective(tau, degenerate_dist, cost)
            assert got == pytest.approx(closed_form_objective_degenerate(tau), rel=1e-10)

    def test_matches_generic_integration_route(self, cost, product_dist):
        # Dual-route oracle: brute-force quadrature of the profit density.
        # 1000 and 2000 lie below sup theta* = 25000 ln 1.1, where the cap binds.
        for tau in (1000.0, 2000.0, 15000.0, 30000.0, 50000.0):
            brute = product_dist.integrate(
                lambda a, k: np.array(
                    [
                        [
                            stop_loss.phi(tau, float(ai), cost, ExponentialLoss(float(ki)))
                            for ai, ki in zip(arow, krow)
                        ]
                        for arow, krow in zip(np.atleast_2d(a), np.atleast_2d(k))
                    ]
                ).reshape(np.shape(a)),
                breakpoints=[tau],
            )
            fast = stop_loss.objective(tau, product_dist, cost)
            assert fast == pytest.approx(brute, rel=1e-8)

    def test_nondecreasing_below_lower_support(self, cost, product_dist):
        taus = np.linspace(0.0, product_dist.lower_support() - 1e-6, 100)
        vals = [stop_loss.objective(float(t), product_dist, cost) for t in taus]
        assert np.all(np.diff(vals) >= -1e-9)


class TestSolve:
    def test_degenerate_optimum(self, cost, degenerate_dist):
        menu = stop_loss.solve(degenerate_dist, cost)
        assert menu.tau_star == pytest.approx(225000.0 / (5.0 - LN11), rel=1e-6)

    def test_product_optimum_near_reference(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        assert menu.tau_star == pytest.approx(38861.6, rel=0.01)
        assert menu.tau_star >= product_dist.lower_support()

    def test_self_consistency(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        for tau in np.linspace(10000.0, 75000.0, 200):
            assert menu.objective_value >= stop_loss.objective(float(tau), product_dist, cost) - 1e-9

    def test_menu_branches(self, cost, degenerate_dist):
        menu = stop_loss.solve(degenerate_dist, cost)
        tau = menu.tau_star
        k = 20000.0
        served = menu.entry(3.0 * k, k)  # a = 60000 > tau
        assert served.contract.deductible == pytest.approx(k * LN11)
        assert served.premium == pytest.approx(tau - k * LN11)
        idle = menu.entry(3.0 * 6000.0, 6000.0)  # a = 18000 < tau
        assert idle.contract.lam == 0.0
        assert idle.premium == 0.0

    def test_served_profit_matches_entries(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        a, k = product_dist.sample(200, np.random.default_rng(5))
        assert_served_profit_matches_entries(menu, cost, a, k)

    def test_capped_served_profit_matches_entries(self, cost, product_dist):
        # tau = 1500 lies between the smallest and largest theta*_k.
        menu = stop_loss.StopLossMenu(1500.0, 0.0, cost, product_dist)
        a, k = product_dist.sample(200, np.random.default_rng(8))
        entries = assert_served_profit_matches_entries(menu, cost, a, k)
        capped = sum(e.contract.deductible == 1500.0 for e in entries)
        assert 0 < capped < 200

    def test_ic_ir(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        rng = np.random.default_rng(1)
        assert check_ic(menu, product_dist, 2000, rng).passed
        assert check_ir(menu, product_dist, 2000, rng).passed

    def test_single_atom_market_extracts_surplus(self, cost):
        dist = DiscreteTypes([(math.exp(-3), 10000.0, 1.0)])  # a0 = 30000
        menu = stop_loss.solve(dist, cost)
        xi = cost.xi(ExponentialLoss(10000.0))
        assert menu.tau_star == pytest.approx(30000.0, rel=1e-9)
        assert menu.objective_value == pytest.approx(30000.0 - xi, rel=1e-9)

    def test_unprofitable_market_serves_nobody(self, cost):
        # A single type below its break-even level: the optimum earns zero
        # and the emitted menu leaves the type uninsured.
        dist = DiscreteTypes([(math.exp(-1), 10000.0, 1.0)])  # a0 = 10000 < xi ~ 10953
        menu = stop_loss.solve(dist, cost)
        assert menu.objective_value == 0.0
        assert monte_carlo_profit(menu, dist, cost, 10, seed=0) == (0.0, 0.0)
        entry = menu.entry(10000.0, 10000.0)
        assert entry.premium == 0.0
        assert entry.risk_reduction(10000.0) == 0.0
