"""Monte Carlo at sampling speed, held to per-sample references bit for bit:
the in-place type draws, the rule menu's terms and pricing, and the own
entries GenericMenu.self_select finds without sorting the samples."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from remenu import (
    Contract,
    CostFunctional,
    DegenerateAlpha,
    GenericMenu,
    KProfile,
    MenuEntry,
    ProductUniform,
    ScenarioConfig,
    monte_carlo_profit,
    threshold,
    verification,
)
from remenu.risk_model import ExponentialFamily, GenericLoss, ScaleFamily
from test_verification import loop_choice, selected

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BUNDLED = sorted(path.stem for path in SCRIPTS.glob("*.json"))
CLASSES = ("stop_loss", "quota_share", "change_loss")


class Planted:
    """The types of a market's own draws with some replaced by planted ones."""

    def __init__(self, dist, a, k):
        self.dist, self.family = dist, dist.family
        self.a, self.k = np.asarray(a, dtype=float), np.asarray(k, dtype=float)

    def sample(self, n, rng):
        a, k = self.dist.sample(n, rng)
        a[: len(self.a)], k[: len(self.k)] = self.a, self.k
        return a, k


def reference_profit(menu, dist, cost, n, seed):
    """monte_carlo_profit one sample at a time: each type's contract from
    menu.entry, priced by KProfile.stop_loss_cost where lam > 0, then the
    mean and np.std of the profits scaled down by a power of two."""
    a, k = dist.sample(n, np.random.default_rng(seed))
    profile = KProfile(cost, dist.family)
    profits = []
    for a_i, k_i in zip(a.tolist(), k.tolist()):
        entry = menu.entry(a_i, k_i)
        lam, d = entry.contract.lam, entry.contract.deductible
        profits.append(entry.premium - lam * float(profile.stop_loss_cost(k_i, d)) if lam else entry.premium)
    p = np.array(profits)
    scale = 2.0 ** -max(0, math.frexp(max(p.max(), -p.min()))[1])
    p = p * scale
    se = float(p.std(ddof=1) / scale / math.sqrt(n)) if n > 1 else 0.0
    return float(p.mean() / scale), se


def bundled(name, k_scale=1.0):
    config = ScenarioConfig.from_file(str(SCRIPTS / f"{name}.json"))
    dist, cost = config.build_dist(), config.build_cost()
    menu = threshold.solve(config.solver.solver_class, dist, cost, config.solver.grid_points)
    if k_scale == 1.0:
        return menu, dist, cost
    # The same market with every k times k_scale, and the menu whose kink is
    # tau* times k_scale (J is positively homogeneous in k).
    types = dict(config.types, k_dist={key: k_scale * v for key, v in config.types["k_dist"].items()})
    big = ScenarioConfig(cost, config.loss, types).build_dist()
    return threshold.ThresholdMenu(k_scale * menu.tau_star, 0.0, cost, big, menu.contract_class), big, cost


class TestRuleMenuAgainstPerSample:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_configs(self, name):
        menu, dist, cost = bundled(name)
        for n, seed in ((2000, 1), (3, 2), (1, 3)):
            assert monte_carlo_profit(menu, dist, cost, n, seed) == reference_profit(menu, dist, cost, n, seed)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_k_scaled_by_1e296(self, name):
        menu, dist, cost = bundled(name, 1e296)
        est, se = monte_carlo_profit(menu, dist, cost, 1000, 4)
        assert (est, se) == reference_profit(menu, dist, cost, 1000, 4)
        assert 1e298 < est < 1e302 and 0.0 < se < math.inf

    @pytest.mark.parametrize("kind", CLASSES)
    def test_shut_down_menu(self, kind, cost, product_dist):
        menu = threshold.ThresholdMenu(math.inf, 0.0, cost, product_dist, kind)
        assert monte_carlo_profit(menu, product_dist, cost, 500, 5) == (0.0, 0.0)
        assert reference_profit(menu, product_dist, cost, 500, 5) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", CLASSES)
    def test_samples_at_the_kink(self, kind, cost, product_dist):
        """Types at a = tau are served iff tau >= ref_k (about 1.1 k here):
        k = 5000 and 20000 are, k = 40000 and 5e5 are not.  1 ulp below tau
        none is served, 1 ulp above every one is; the stop-loss deductible
        is theta*_k, capped at tau where theta*_k > tau (k = 5e5)."""
        tau = 38861.647216796875
        below, above = math.nextafter(tau, 0.0), math.nextafter(tau, math.inf)
        a = [tau, tau, tau, tau, below, above, above]
        k = [5000.0, 40000.0, 20000.0, 5e5, 5000.0, 40000.0, 5e5]
        menu = threshold.ThresholdMenu(tau, 0.0, cost, product_dist, kind)
        served, d, premium = menu.terms(a, k)
        assert served.tolist() == [True, False, True, False, False, True, True]
        if kind == "quota_share":
            want = [0.0] * 7
        else:
            theta = menu.profile.theta_star(np.array(k)).tolist()
            assert theta[6] > tau > theta[5]
            want = [theta[0], math.inf, theta[2], math.inf, math.inf, theta[5], tau]
        assert d.tolist() == want
        assert premium.tolist() == [tau - x if s else 0.0 for s, x in zip(served.tolist(), want)]
        dist = Planted(product_dist, a, k)
        assert monte_carlo_profit(menu, dist, cost, 300, 6) == reference_profit(menu, dist, cost, 300, 6)

    def test_quota_share_unserved_rows_keep_d_zero(self, cost, product_dist):
        menu = threshold.solve("quota_share", product_dist, cost)
        a, k = product_dist.sample(2000, np.random.default_rng(8))
        served, d, premium = menu.terms(a, k)
        assert served.any() and not served.all()
        assert not d.any() and not premium[~served].any()
        assert monte_carlo_profit(menu, product_dist, cost, 2000, 8) == reference_profit(
            menu, product_dist, cost, 2000, 8
        )


class TestOneProfilePerMenu:
    def test_the_menu_builds_its_profile_once(self, cost, product_dist, monkeypatch):
        built = []

        class Counted(KProfile):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(threshold, "KProfile", Counted)
        menu = threshold.ThresholdMenu(30000.0, 0.0, cost, product_dist, "stop_loss")
        assert not built  # built on first use
        menu.terms(40000.0, 10000.0)
        menu.terms(20000.0, 10000.0)
        assert built == [(cost, product_dist.family)] and menu.profile is menu.profile

    def test_a_replaced_cost_gets_its_own_profile(self, cost, product_dist):
        menu = threshold.solve("stop_loss", product_dist, cost, grid_points=101)
        assert menu.profile.cost == cost
        dearer = CostFunctional(0.2)
        assert dataclasses.replace(menu, cost=dearer).profile.cost == dearer
        # Monte Carlo prices by the cost it is given, not by the menu's.
        got = monte_carlo_profit(menu, product_dist, dearer, 2000, 1)
        assert got == reference_profit(menu, product_dist, dearer, 2000, 1)
        assert got != monte_carlo_profit(menu, product_dist, cost, 2000, 1)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_a_menu_built_from_its_fields_matches_the_solved_one(self, name):
        """A menu rebuilt from (tau*, J*, cost, dist, kind), as a caller
        holding only those numbers does, audits and prices as the one solve
        returns, bit for bit: no state of the solve rides along."""
        menu, dist, cost = bundled(name)
        twin = threshold.ThresholdMenu(menu.tau_star, menu.objective_value, cost, dist, menu.contract_class)
        a, k = dist.sample(5000, np.random.default_rng(2))
        for got, want in zip(twin.terms(a, k), menu.terms(a, k)):
            assert got.tobytes() == want.tobytes()
        for check in (verification.check_ic, verification.check_ir):
            reports = [check(m, dist, 5000, np.random.default_rng(3)).to_dict() for m in (twin, menu)]
            assert repr(reports[0]) == repr(reports[1])
        estimates = [monte_carlo_profit(m, dist, cost, 20000, 4) for m in (twin, menu)]
        assert repr(estimates[0]) == repr(estimates[1])


def lomax_family():
    """The scale family of S_1(y) = (1 + y/2)^-3, quantiles by search."""
    return ScaleFamily(GenericLoss(lambda y: (1.0 + y / 2.0) ** -3.0))


class TestSampleDraws:
    @pytest.mark.parametrize(
        "family",
        [ExponentialFamily(), ExponentialFamily(0.3), lomax_family()],
        ids=["exp", "exp-atom", "lomax"],
    )
    def test_product_uniform_is_var_of_two_uniform_draws(self, family):
        dist = ProductUniform(5000.0, 25000.0, 0.05, 0.2, family)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        a, k = dist.sample(5000, rng)
        k_ref = ref.uniform(dist.k_lo, dist.k_hi, 5000)
        alpha = ref.uniform(dist.alpha_lo, dist.alpha_hi, 5000)
        want = family.var(alpha, k_ref)
        assert a.tobytes() == want.tobytes() and k.tobytes() == k_ref.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert (dist.k_lo, dist.k_hi, dist.alpha_lo, dist.alpha_hi) == (5000.0, 25000.0, 0.05, 0.2)

    @pytest.mark.parametrize("family", [ExponentialFamily(), lomax_family()], ids=["exp", "lomax"])
    def test_degenerate_alpha_is_var_of_one_uniform_draw(self, family):
        dist = DegenerateAlpha(5000.0, 25000.0, 0.05, family)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        a, k = dist.sample(3000, rng)
        k_ref = ref.uniform(5000.0, 25000.0, 3000)
        assert a.tobytes() == family.var(0.05, k_ref).tobytes() and k.tobytes() == k_ref.tobytes()

    @pytest.mark.parametrize(
        "family",
        [ExponentialFamily(), ExponentialFamily(0.3), lomax_family()],
        ids=["exp", "exp-atom", "lomax"],
    )
    def test_var_into_out_keeps_bits_and_inputs(self, family):
        alpha = np.random.default_rng(5).uniform(0.01, 0.5, 4097)
        k = np.random.default_rng(6).uniform(1.0, 1e4, 4097)
        alpha_before, k_before = alpha.copy(), k.copy()
        want = family.var(alpha, k)
        assert alpha.tobytes() == alpha_before.tobytes() and k.tobytes() == k_before.tobytes()
        out = family.var(alpha, k, out=alpha)
        assert out is alpha and out.tobytes() == want.tobytes()
        assert k.tobytes() == k_before.tobytes()


def tied_menu(a1, k1):
    """Row 0 (type (1e4, 9000)) offers d = 10, row 1 (type (a1, k1)) d = 20,
    both free: tied at every level below 10, so there a type takes row 1's
    contract only as its own entry."""
    return GenericMenu.from_entries([
        MenuEntry(1e4, 9000.0, Contract("stop_loss", 1.0, 10.0), 0.0),
        MenuEntry(a1, k1, Contract("stop_loss", 1.0, 20.0), 0.0),
    ])


class TestOwnEntryFilter:
    @pytest.mark.parametrize("entry_a, sample_a", [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)])
    def test_signed_zeros_match(self, entry_a, sample_a, product_dist):
        """Among continuous draws, a sample planted at the entry's a = ±0.0
        and its k takes its own entry; with another k it does not."""
        menu = tied_menu(entry_a, 7000.0)
        a, k = product_dist.sample(40_000, np.random.default_rng(9))
        a[[5, 20_000, 39_999]] = sample_a
        k[[5, 20_000, 39_999]] = [7000.0, 7000.0, 7001.0]
        d = selected(menu, a, k)[1]
        assert d[[5, 20_000, 39_999]].tolist() == [20.0, 20.0, 10.0]

    def test_planted_entry_levels_match(self, cost, product_dist):
        """A 231-row table of a solved menu, and samples planted at some of
        its rows' (a, k): every sample takes what the per-entry loop gives."""
        menu = threshold.solve("stop_loss", product_dist, cost)
        grid_k = np.repeat(np.linspace(5000.0, 25000.0, 21), 11)
        alphas = np.tile(np.linspace(product_dist.alpha_lo, product_dist.alpha_hi, 11), 21)
        grid_a = product_dist.family.var(alphas, grid_k)
        table = GenericMenu.from_entries(map(menu.entry, grid_a.tolist(), grid_k.tolist()))
        a, k = product_dist.sample(50_000, np.random.default_rng(10))
        rows = np.arange(0, 231, 7)
        at = 1500 * np.arange(len(rows))
        a[at], k[at] = table.columns[0, rows], table.columns[1, rows]
        assert selected(table, a, k)[:, at].tobytes() == loop_choice(table, a[at], k[at]).tobytes()

    def test_nan_matches_nothing(self):
        menu = tied_menu(5.0, 7000.0)
        a = np.array([math.nan, 5.0, 5.0])
        k = np.array([7000.0, math.nan, 7000.0])
        d = selected(menu, a, k)[1]
        assert d[2] == 20.0 and d[1] == 10.0
