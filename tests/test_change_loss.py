import math

import numpy as np
import pytest

from remenu import (
    AssumptionError,
    CostFunctional,
    DiscreteTypes,
    Distortion,
    ExponentialLoss,
    GenericFamily,
    GenericLoss,
    KProfile,
    change_loss,
    check_ic,
    check_ir,
    stop_loss,
)

LN11 = math.log(1.1)


class TestAssumptionCheck:
    def test_reference_market_holds(self, cost, product_dist):
        report = change_loss.assumption_check(product_dist, cost)
        assert report.sup_theta_star == pytest.approx(25000.0 * LN11, abs=1e-9)
        assert report.lower_support == 10000.0
        assert report.holds

    def test_boundary_single_type_holds(self):
        # One atom whose theta* equals its own risk level exactly.
        cost = CostFunctional(math.e - 1.0, Distortion.identity())  # theta* = k
        dist = DiscreteTypes([(math.exp(-1), 10000.0, 1.0)])  # a0 = 10000 = k
        report = change_loss.assumption_check(dist, cost)
        assert report.sup_theta_star == pytest.approx(report.lower_support, rel=1e-12)
        assert report.holds

    def test_large_loading_fails(self, product_dist):
        # theta = 10 pushes sup theta* = 25000 ln 11 ~ 59950 above L = 10000.
        cost = CostFunctional(10.0, Distortion.identity())
        report = change_loss.assumption_check(product_dist, cost)
        assert not report.holds

    def test_to_dict_round_trip(self, cost, product_dist):
        d = change_loss.assumption_check(product_dist, cost).to_dict()
        assert set(d) == {"sup_theta_star", "lower_support", "holds"}


class TestSupThetaStarOverEveryAtom:
    # The atom at k = 2000 has mean 20000, so theta*_k peaks between the
    # smallest and the largest k: sup theta* = 20000 ln 1.1 ~ 1906 > L = 1500.
    MEANS = {1000.0: 1000.0, 2000.0: 20000.0, 3000.0: 1000.0}
    ATOMS = [
        (math.exp(-1.5), 1000.0, 0.3),
        (math.exp(-0.2), 2000.0, 0.4),
        (math.exp(-2.5), 3000.0, 0.3),
    ]

    def market(self):
        return DiscreteTypes(self.ATOMS, GenericFamily(lambda k: ExponentialLoss(self.MEANS[k])))

    def test_assumption_check_sees_the_middle_atom(self, cost):
        report = change_loss.assumption_check(self.market(), cost)
        assert report.sup_theta_star == pytest.approx(20000.0 * LN11, rel=1e-12)
        assert report.lower_support == pytest.approx(1500.0, rel=1e-12)
        assert not report.holds
        with pytest.raises(AssumptionError):
            change_loss.solve(self.market(), cost)

    def test_objective_caps_the_middle_atom(self, cost):
        dist = self.market()
        brute = sum(
            w * stop_loss.phi(1500.0, float(a), cost, dist.family.model(k))
            for a, k, w in zip(dist.a_vals, dist.ks, dist.weights)
        )
        assert stop_loss.objective(1500.0, dist, cost) == pytest.approx(brute, rel=1e-12)


class TestJPhiCl:
    def test_infinite_threshold(self, cost, product_dist):
        assert change_loss.j_phi_cl(math.inf, product_dist, cost) == 0.0

    def test_coincides_with_stop_loss_above_sup_theta(self, cost, product_dist):
        for t in np.linspace(2500.0, 75000.0, 25):
            a = change_loss.j_phi_cl(float(t), product_dist, cost)
            b = stop_loss.objective(float(t), product_dist, cost)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_single_atom_value(self, cost):
        dist = DiscreteTypes([(math.exp(-3), 10000.0, 1.0)])  # a0 = 30000
        xi = cost.xi(ExponentialLoss(10000.0))
        t = 20000.0
        assert change_loss.j_phi_cl(t, dist, cost) == pytest.approx(t - xi)

    def test_matches_generic_integration_route(self, cost, product_dist):
        for t in (15000.0, 40000.0):
            brute = product_dist.integrate(
                lambda a, k: np.where(a > t, 1.0, 0.0) * (t - k * (1.0 + LN11)),
                breakpoints=[t],
            )
            fast = change_loss.j_phi_cl(t, product_dist, cost)
            assert fast == pytest.approx(brute, rel=1e-8)


class TestSolve:
    def test_assumption_violation_raises(self, product_dist):
        cost = CostFunctional(10.0, Distortion.identity())
        with pytest.raises(AssumptionError):
            change_loss.solve(product_dist, cost)

    def test_optimum_coincides_with_stop_loss(self, cost, product_dist):
        cl = change_loss.solve(product_dist, cost)
        sl = stop_loss.solve(product_dist, cost)
        assert cl.tau_star == pytest.approx(sl.tau_star, rel=1e-6)
        assert cl.objective_value == pytest.approx(sl.objective_value, rel=1e-9)

    def test_menu_rule(self, cost, product_dist):
        menu = change_loss.solve(product_dist, cost)
        tau = menu.tau_star
        k = 15000.0
        served = menu.entry(60000.0, k)
        assert served.contract.lam == 1.0
        assert served.contract.deductible == pytest.approx(k * LN11)
        assert served.premium == pytest.approx(tau - k * LN11)
        idle = menu.entry(12000.0, 5000.0)
        assert idle.contract.lam == 0.0
        assert math.isinf(idle.contract.deductible)
        assert idle.premium == 0.0

    def test_lambda_values_bang_bang(self, cost, product_dist):
        menu = change_loss.solve(product_dist, cost)
        rng = np.random.default_rng(4)
        a, k = product_dist.sample(500, rng)
        for ai, ki in zip(a, k):
            lam = menu.entry(float(ai), float(ki)).contract.lam
            assert lam in (0.0, 1.0)

    def test_served_deductible_respects_ic_bound(self, cost, product_dist):
        # For served types the deductible must stay below a - v(a), the cap
        # that keeps truth-telling optimal.
        menu = change_loss.solve(product_dist, cost)
        tau = menu.tau_star
        rng = np.random.default_rng(6)
        a, k = product_dist.sample(500, rng)
        for ai, ki in zip(a, k):
            if ai > tau:
                d = menu.entry(float(ai), float(ki)).contract.deductible
                assert d <= ai - (ai - tau) + 1e-9

    def test_ic_ir(self, cost, product_dist):
        menu = change_loss.solve(product_dist, cost)
        rng = np.random.default_rng(3)
        assert check_ic(menu, product_dist, 2000, rng).passed
        assert check_ir(menu, product_dist, 2000, rng).passed

    def test_single_atom_market_extracts_surplus(self, cost):
        dist = DiscreteTypes([(math.exp(-3), 10000.0, 1.0)])  # a0 = 30000 > xi
        menu = change_loss.solve(dist, cost)
        xi = cost.xi(ExponentialLoss(10000.0))
        assert menu.tau_star == pytest.approx(30000.0, rel=1e-9)
        assert menu.objective_value == pytest.approx(30000.0 - xi, rel=1e-9)


def lomax_loss(k: float) -> GenericLoss:
    """Lomax loss with scale 2k (mean k): S(y) = (1 + y / (2k))**-3."""
    return GenericLoss(lambda y: (1.0 + y / (2.0 * k)) ** -3.0)


class TestIsStopLoss:
    def test_objective_equals_stop_loss_above_sup_theta(self, cost, product_dist):
        sup = change_loss.assumption_check(product_dist, cost).sup_theta_star
        for t in np.linspace(sup, 75000.0, 13):
            assert change_loss.j_phi_cl(float(t), product_dist, cost) == stop_loss.objective(
                float(t), product_dist, cost
            )

    def test_terms_equal_stop_loss(self, cost, product_dist):
        a, k = product_dist.sample(500, np.random.default_rng(7))
        for tau in (10000.0, 38861.6, 60000.0):
            cl = change_loss.ChangeLossMenu(tau, 0.0, cost, product_dist).terms(a, k)
            sl = stop_loss.StopLossMenu(tau, 0.0, cost, product_dist).terms(a, k)
            for x, y in zip(cl, sl):
                np.testing.assert_array_equal(x, y)

    def test_uncapped_objective_prices_no_tail(self, monkeypatch):
        # Above sup theta* every served type yields tau - xi_k, and xi_k is
        # memoized: no tail cost is priced again after the first call.
        cost = CostFunctional(0.1, Distortion.power(0.9))
        dist = DiscreteTypes(
            [(0.02, 5000.0, 0.3), (0.05, 10000.0, 0.4), (0.1, 20000.0, 0.3)],
            GenericFamily(lomax_loss),
        )
        profile = KProfile(cost, dist.family)
        sup = profile.sup_theta_star(dist.k_ends)
        taus = [sup, dist.lower_support(), float(np.median(dist.a_vals))]
        first = stop_loss.objective(taus[0], dist, cost, profile)
        calls = []
        for owner in (KProfile, CostFunctional):
            real = owner.stop_loss_cost

            def counted(*args, real=real, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, "stop_loss_cost", counted)
        values = [stop_loss.objective(t, dist, cost, profile) for t in taus]
        assert calls == []
        assert values[0] == first
        assert values == [change_loss.j_phi_cl(t, dist, cost, profile) for t in taus]
