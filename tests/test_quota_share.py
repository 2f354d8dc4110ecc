import math

import numpy as np
import pytest

from remenu import (
    DiscreteTypes,
    ExponentialLoss,
    GenericLoss,
    change_loss,
    check_ic,
    check_ir,
    quota_share,
    stop_loss,
)

LN11 = math.log(1.1)
XI_CLASSES = (stop_loss.objective, change_loss.j_phi_cl)  # classes whose ref_k is xi_k

ZERO_LOSS = GenericLoss(lambda y: 0.0, support_hi=0.0, point_mass_zero=1.0)  # X = 0


def closed_form_j(t: float) -> float:
    """Quota-share profit of the a = 3k market for t in [0, 75000)."""
    if t <= 15000.0:
        return t - 16500.0
    return -49.0 * t * t / 3600000.0 + 1.25 * t - 17187.5


class TestFullCost:
    def test_exponential(self, cost):
        assert cost.full_cost(ExponentialLoss(10000.0)) == pytest.approx(11000.0)
        assert cost.full_cost(ExponentialLoss(25000.0)) == pytest.approx(27500.0)

    def test_zero_loss(self, cost):
        assert cost.full_cost(ZERO_LOSS) == 0.0


class TestJPhi:
    def test_infinite_threshold(self, cost, product_dist):
        assert quota_share.j_phi(math.inf, product_dist, cost) == 0.0

    def test_degenerate_closed_form(self, cost, degenerate_dist):
        for t in (5000.0, 15000.0, 20000.0, 45918.37, 60000.0):
            got = quota_share.j_phi(t, degenerate_dist, cost)
            assert got == pytest.approx(closed_form_j(t), rel=1e-10)

    def test_known_value(self, cost, degenerate_dist):
        got = quota_share.j_phi(20000.0, degenerate_dist, cost)
        assert got == pytest.approx(2368.06, abs=0.01)

    def test_matches_generic_integration_route(self, cost, product_dist):
        for t in (15000.0, 30000.0, 50000.0):
            brute = product_dist.integrate(
                lambda a, k: np.where(a > t, 1.0, 0.0) * (a - 1.1 * k)
                - np.maximum(a - t, 0.0),
                breakpoints=[t],
            )
            fast = quota_share.j_phi(t, product_dist, cost)
            assert fast == pytest.approx(brute, rel=1e-8)

    def test_discrete_atom_at_threshold(self, cost):
        # One atom at a0 = 30000 >= ref_k (H = 11000, xi = 10000 (1 + ln 1.1)):
        # at t = a0 the atom still buys, for every class.
        dist = DiscreteTypes([(math.exp(-3), 10000.0, 1.0)])
        for j, ref in ((quota_share.j_phi, 11000.0), *((j, 10000.0 * (1.0 + LN11)) for j in XI_CLASSES)):
            assert j(30000.0, dist, cost) == pytest.approx(30000.0 - ref)

    def test_discrete_atom_below_full_cost_drops_out(self, cost):
        # a0 = 10000 < xi_k < H = 11000: participation at t = a0 would lose money
        # for the agent, so the atom contributes nothing.
        dist = DiscreteTypes([(math.exp(-1), 10000.0, 1.0)])
        assert quota_share.j_phi(10000.0, dist, cost) == 0.0
        # Nor under the xi_k rule, neither at a0 = 10000 (not a0 - xi_k) nor at
        # a0 ~ 100.5 < theta*_k ~ 953.1, where the capped -H[(X_k - a0)_+] is
        # what a served type would yield.
        for alpha in (math.exp(-1), 0.99):
            dist = DiscreteTypes([(alpha, 10000.0, 1.0)])
            a0 = float(dist.a_vals[0])
            for j in XI_CLASSES:
                assert j(a0, dist, cost) == 0.0


class TestSolve:
    def test_degenerate_optimum(self, cost, degenerate_dist):
        menu = quota_share.solve(degenerate_dist, cost)
        assert menu.tau_star == pytest.approx(4500000.0 / 98.0, rel=1e-6)

    def test_product_optimum_near_reference(self, cost, product_dist):
        menu = quota_share.solve(product_dist, cost)
        assert menu.tau_star == pytest.approx(38912.1, rel=0.01)

    def test_bang_bang_menu(self, cost, degenerate_dist):
        menu = quota_share.solve(degenerate_dist, cost)
        tau = menu.tau_star
        hi = menu.entry(60000.0, 20000.0)
        assert hi.contract.lam == 1.0
        assert hi.contract.deductible == 0.0
        assert hi.premium == pytest.approx(tau)
        lo = menu.entry(18000.0, 6000.0)
        assert lo.contract.lam == 0.0
        assert lo.premium == 0.0

    def test_boundary_type_participates_iff_worthwhile(self, cost, product_dist):
        menu = quota_share.solve(product_dist, cost)
        tau = menu.tau_star
        # Small k: tau >= H[X_k], the boundary type buys.
        assert menu.entry(tau, 10000.0).contract.lam == 1.0
        # Huge k would have H > tau; fabricate one to hit the other branch.
        assert menu.entry(tau, 40000.0).contract.lam == 0.0

    def test_self_consistency(self, cost, product_dist):
        menu = quota_share.solve(product_dist, cost)
        for t in np.linspace(0.0, 75000.0, 200):
            assert menu.objective_value >= quota_share.j_phi(float(t), product_dist, cost) - 1e-9

    def test_ic_ir(self, cost, product_dist):
        menu = quota_share.solve(product_dist, cost)
        rng = np.random.default_rng(2)
        assert check_ic(menu, product_dist, 2000, rng).passed
        assert check_ir(menu, product_dist, 2000, rng).passed

    def test_single_atom_market(self, cost):
        dist = DiscreteTypes([(math.exp(-3), 10000.0, 1.0)])  # a0 = 30000, H = 11000
        menu = quota_share.solve(dist, cost)
        assert menu.tau_star == pytest.approx(30000.0, rel=1e-9)
        assert menu.objective_value == pytest.approx(19000.0, rel=1e-9)
