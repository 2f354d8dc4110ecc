import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remenu import (
    AssumptionError,
    Contract,
    CostFunctional,
    DiscreteTypes,
    Distortion,
    DomainError,
    GenericMenu,
    KProfile,
    MenuEntry,
    PiecewiseLinearConvexUtility,
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
from remenu import menus, type_space
from remenu.cli import _read_menu_csv, main
from remenu.quadrature import adaptive_gauss_batched
from remenu.threshold import reference
from remenu.verification import IC_TOL, random_utilities

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PRODUCT_CONFIGS = (
    "uniform_alpha_stop_loss",
    "uniform_alpha_quota_share",
    "uniform_alpha_change_loss",
)


class TestPiecewiseLinearConvexUtility:
    def test_value_and_slopes(self):
        v = PiecewiseLinearConvexUtility((10.0, 20.0), (0.3, 0.2))
        assert v.value(5.0) == 0.0
        assert v.value(15.0) == pytest.approx(1.5)
        assert v.value(30.0) == pytest.approx(0.3 * 20.0 + 0.2 * 10.0)
        assert v.slope_plus(10.0) == pytest.approx(0.3)
        assert v.slope_minus(10.0) == 0.0
        assert v.slope_plus(25.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            PiecewiseLinearConvexUtility((20.0, 10.0), (0.1, 0.1))  # unordered
        with pytest.raises(DomainError):
            PiecewiseLinearConvexUtility((10.0,), (-0.1,))  # negative increment
        with pytest.raises(DomainError):
            PiecewiseLinearConvexUtility((10.0, 20.0), (0.6, 0.6))  # not 1-Lipschitz

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(0.0, 1e5), st.floats(0.0, 0.2)), min_size=1, max_size=5
        )
    )
    def test_membership_properties(self, data):
        kinks = sorted({round(t, 6) for t, _ in data})
        weights = [w for _, w in data][: len(kinks)]
        kinks = kinks[: len(weights)]
        v = PiecewiseLinearConvexUtility(tuple(kinks), tuple(weights))
        a = np.linspace(0.0, 2e5, 201)
        vals = v.value(a)
        assert vals[0] == 0.0
        d = np.diff(vals)
        da = np.diff(a)
        assert np.all(d >= -1e-12)  # increasing
        assert np.all(d <= da + 1e-9)  # 1-Lipschitz
        slopes = d / da
        assert np.all(np.diff(slopes) >= -1e-12)  # convex


class TestBlDecompose:
    def test_single_kink(self):
        v = PiecewiseLinearConvexUtility.single_kink(42.0)
        assert bl_decompose(v) == [(42.0, 1.0)]

    def test_linear(self):
        v = PiecewiseLinearConvexUtility((0.0,), (1.0,))
        assert bl_decompose(v) == [(0.0, 1.0)]

    def test_two_kinks(self):
        v = PiecewiseLinearConvexUtility((10.0, 20.0), (0.3, 0.2))
        assert bl_decompose(v) == [(10.0, 0.3), (20.0, 0.2)]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        (v,) = random_utilities(1, 1000.0, 50000.0, rng)
        a = np.linspace(0.0, 80000.0, 97)
        rebuilt = sum(w * np.maximum(a - t, 0.0) for t, w in bl_decompose(v))
        assert np.max(np.abs(rebuilt - v.value(a))) <= 1e-12 * 80000.0


def three_sum_integrand(v, dist, cost, solver_class):
    """j_general's integrand as three separate kink sums: the right slope,
    the left slope and the value, each summed by its own pass over the kinks."""
    ref = reference(solver_class, KProfile(cost, dist.family))

    def integrand(a, k):
        r = ref(k)
        return np.where(a >= r, v.slope_plus(a), v.slope_minus(a)) * (a - r) - v.value(a)

    return integrand


def per_segment_integrate(dist, f, breakpoints):
    """A uniform-k market's integrate as one adaptive call per k-segment,
    each added in order from 0.0: the oracle for the one-call batch."""
    bps = sorted({float(b) for b in breakpoints if math.isfinite(b)})
    dens = 1.0 / (dist.k_hi - dist.k_lo)
    edges = np.unique(dist._k_edges(np.array([bps])))

    def inner(k):
        return dist._inner(f, k.ravel(), bps).reshape(k.shape)

    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += float(adaptive_gauss_batched(inner, np.array([lo]), np.array([hi]))[0]) * dens
    return total


class TestJGeneral:
    @pytest.mark.parametrize("solver_class", ["quota_share", "change_loss"])
    def test_one_pass_integrand_matches_three_sums(self, solver_class, cost, product_dist):
        for v in random_utilities(4, 15000.0, 70000.0, np.random.default_rng(3)):
            want = product_dist.integrate(three_sum_integrand(v, product_dist, cost, solver_class), v.kinks)
            assert j_general(v, product_dist, cost, solver_class) == want

    @pytest.mark.parametrize("solver_class", ["quota_share", "change_loss"])
    def test_one_pass_integrand_at_atom_kinks(self, solver_class, cost):
        # Kinks sit on both atoms: a = 30000 lies above its ref_k (about
        # 11000), so the right slope counts that kink; a = 20000 lies below
        # its ref_k (22000, or about 21900 for change-loss), so the left slope
        # skips it.
        dist = DiscreteTypes([(math.exp(-3), 10000.0, 0.5), (math.exp(-1), 20000.0, 0.5)])
        v = PiecewiseLinearConvexUtility(tuple(sorted(dist.a_vals.tolist())), (0.25, 0.5))
        want = dist.integrate(three_sum_integrand(v, dist, cost, solver_class), v.kinks)
        assert j_general(v, dist, cost, solver_class) == want

    def test_every_batch_stops_at_sixteen_nodes(self, cost, product_dist, monkeypatch):
        # Between breakpoints the integrand is constant in a and smooth in k,
        # so one call covers every k-segment and stops at 16 nodes, after two
        # inner calls, one per node set.
        calls, evals, nodes = [0], [0], [0]
        batched = type_space.adaptive_gauss_batched

        def counted(f, lo, hi):
            def g(x):
                evals[0], nodes[0] = evals[0] + 1, nodes[0] + x.size
                return f(x)

            calls[0] += 1
            return batched(g, lo, hi)

        monkeypatch.setattr(type_space, "adaptive_gauss_batched", counted)
        v = PiecewiseLinearConvexUtility((18000.0, 30000.0, 42000.0), (0.3, 0.3, 0.3))
        j_general(v, product_dist, cost, "quota_share")
        # A fixed 256-node k-rule with one batch per alpha-segment took
        # 294,912 nodes here; one adaptive call per k-segment, 21 calls and
        # 7,080 nodes.
        assert calls[0] == 3
        assert evals[0] == 2 * calls[0]
        assert nodes[0] <= 7_080

    @pytest.mark.parametrize("solver_class", ["quota_share", "change_loss"])
    @pytest.mark.parametrize("market", ["product_dist", "degenerate_dist"])
    def test_one_call_matches_per_segment_loop(self, solver_class, market, cost, request):
        dist = request.getfixturevalue(market)
        utilities = random_utilities(6, dist.lower_support(), dist.upper_support(), np.random.default_rng(7))
        utilities.append(PiecewiseLinearConvexUtility((18000.0, 30000.0, 42000.0), (0.3, 0.3, 0.3)))
        for v in utilities:
            want = per_segment_integrate(dist, three_sum_integrand(v, dist, cost, solver_class), v.kinks)
            assert j_general(v, dist, cost, solver_class) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_zero_utility(self, cost, product_dist):
        v = PiecewiseLinearConvexUtility((), ())
        assert j_general(v, product_dist, cost, "quota_share") == pytest.approx(0.0, abs=1e-12)

    def test_single_kink_equals_j_phi(self, cost, product_dist):
        t = 32000.0
        v = PiecewiseLinearConvexUtility.single_kink(t)
        assert j_general(v, product_dist, cost, "quota_share") == pytest.approx(
            quota_share.j_phi(t, product_dist, cost), rel=1e-9
        )
        assert j_general(v, product_dist, cost, "change_loss") == pytest.approx(
            change_loss.j_phi_cl(t, product_dist, cost), rel=1e-9
        )

    def test_mixture_is_weighted_average(self, cost, product_dist):
        v = PiecewiseLinearConvexUtility((18000.0, 42000.0), (0.5, 0.5))
        lhs = j_general(v, product_dist, cost, "quota_share")
        rhs = 0.5 * quota_share.j_phi(18000.0, product_dist, cost) + 0.5 * quota_share.j_phi(
            42000.0, product_dist, cost
        )
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_unknown_class_rejected(self, cost, product_dist):
        v = PiecewiseLinearConvexUtility.single_kink(30000.0)
        with pytest.raises(DomainError):
            j_general(v, product_dist, cost, "stop_loss")

    def test_assumption_gate(self, product_dist):
        cost = CostFunctional(10.0, Distortion.identity())
        v = PiecewiseLinearConvexUtility.single_kink(30000.0)
        with pytest.raises(AssumptionError):
            j_general(v, product_dist, cost, "change_loss")

    def test_discrete_one_sided_slopes(self, cost):
        # A single atom exactly at the kink: the right slope applies because
        # a0 >= H[X_k], so the atom participates.
        dist = DiscreteTypes([(math.exp(-3), 10000.0, 1.0)])  # a0 = 30000
        v = PiecewiseLinearConvexUtility.single_kink(30000.0)
        got = j_general(v, dist, cost, "quota_share")
        assert got == pytest.approx(30000.0 - 11000.0)


class TestIndirectUtility:
    def test_empty_menu_rejected(self):
        with pytest.raises(DomainError):
            indirect_utility(GenericMenu.from_entries([]), 1.0)

    def test_outside_option_floor(self):
        entry = MenuEntry(100.0, 1.0, Contract("stop_loss", 1.0, 50.0), 40.0)
        menu = GenericMenu.from_entries([entry])
        # At a = 60 the contract is worth (60-50) - 40 < 0: stay out.
        assert indirect_utility(menu, np.array([60.0]))[0] == 0.0
        assert indirect_utility(menu, np.array([100.0]))[0] == pytest.approx(10.0)

    def test_feasible_menu_utility_shape(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        rng = np.random.default_rng(9)
        pairs = list(zip(*product_dist.sample(300, rng)))
        gm = GenericMenu.from_entries([menu.entry(a, k) for a, k in pairs])
        a = np.linspace(5000.0, 80000.0, 301)
        vals = indirect_utility(gm, a)
        d = np.diff(vals)
        da = np.diff(a)
        assert np.all(d >= -1e-9)
        assert np.all(d <= da + 1e-9)
        slopes = d / da
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_value_independent_of_k_at_fixed_a(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        tau = menu.tau_star
        a = tau + 5000.0
        vals = [
            float(menu.entry(a, k).risk_reduction(a))
            for k in (8000.0, 12000.0, 20000.0)
        ]
        assert max(vals) - min(vals) <= 1e-9


class TestICIRAudits:
    def test_solved_menu_passes(self, cost, product_dist):
        menu = quota_share.solve(product_dist, cost)
        rng = np.random.default_rng(8)
        assert check_ic(menu, product_dist, 3000, rng).passed
        assert check_ir(menu, product_dist, 3000, rng).passed

    def test_overpriced_entry_fails_ir(self):
        entry = MenuEntry(100.0, 1.0, Contract("stop_loss", 1.0, 50.0), 90.0)
        menu = GenericMenu.from_entries([entry])
        report = check_ir(menu)
        assert not report.passed
        assert report.max_violation == pytest.approx(40.0)

    def test_null_entry_passes_with_equality(self):
        menu = GenericMenu.from_entries([MenuEntry(100.0, 1.0, Contract("stop_loss", 0.0, math.inf), 0.0)])
        report = check_ir(menu)
        assert report.passed
        assert report.max_violation == 0.0

    def test_cross_subsidized_menu_fails_ic(self):
        # Entry 2 is strictly better for type 1 than its own entry.
        e1 = MenuEntry(100.0, 1.0, Contract("stop_loss", 1.0, 50.0), 45.0)
        e2 = MenuEntry(120.0, 2.0, Contract("stop_loss", 1.0, 10.0), 60.0)
        menu = GenericMenu.from_entries([e1, e2])
        report = check_ic(menu, n_pairs=500)
        assert not report.passed
        assert report.n_checked == 4
        (record,) = report.violations
        assert record["own_type"] == [100.0, 1.0] and record["alt_type"] == [120.0, 2.0]
        assert record["violation"] == 25.0  # (100 - 10) - 60 against (100 - 50) - 45

    def test_report_serializes(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        rng = np.random.default_rng(10)
        json.dumps(check_ic(menu, product_dist, 100, rng).to_dict())


class TestFirstBest:
    def test_reference_pair_has_positive_mimic_gain(self, cost, product_dist):
        r = first_best_demo(45000.0, 15000.0, 30000.0, 15000.0, product_dist, cost)
        assert r.risk_reductions == (0.0, 0.0)
        assert r.mimic_gain == pytest.approx(15000.0, rel=1e-9)
        assert r.profit_inequality_holds

    def test_unserved_low_type_gives_zero_gain(self, cost, product_dist):
        # a2 below its break-even level: the low type gets no contract, so
        # there is nothing to mimic.
        r = first_best_demo(45000.0, 15000.0, 12000.0, 15000.0, product_dist, cost)
        assert math.isinf(r.deductibles[1])
        assert r.mimic_gain == 0.0

    def test_order_violation_rejected(self, cost, product_dist):
        with pytest.raises(DomainError):
            first_best_demo(30000.0, 15000.0, 30000.0, 15000.0, product_dist, cost)

    def test_signs_hold_for_random_pairs(self, cost, product_dist):
        rng = np.random.default_rng(12)
        a, k = product_dist.sample(40, rng)
        for i in range(0, 40, 2):
            a1, a2 = max(a[i], a[i + 1]), min(a[i], a[i + 1])
            if a1 == a2:
                continue
            r = first_best_demo(float(a1), float(k[i]), float(a2), float(k[i + 1]), product_dist, cost)
            assert r.mimic_gain >= -1e-12
            if r.deductibles[1] < a1:
                assert r.mimic_gain > 1e-12
            assert r.mimic_profit <= r.first_best_profits[0] + 1e-12


class TestMonteCarlo:
    def test_deterministic_given_seed(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        one = monte_carlo_profit(menu, product_dist, cost, 5000, seed=77)
        two = monte_carlo_profit(menu, product_dist, cost, 5000, seed=77)
        assert one == two

    def test_within_three_sigma_of_objective(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        est, se = monte_carlo_profit(menu, product_dist, cost, 200000, seed=42)
        assert abs(est - menu.objective_value) <= 3.0 * se

    def test_generic_menu_matches_rule_menu_on_atoms(self, cost, discrete_dist):
        menu = stop_loss.solve(discrete_dist, cost)
        pairs = [(float(a), float(k)) for a, k in zip(discrete_dist.a_vals, discrete_dist.ks)]
        gm = GenericMenu.from_entries([menu.entry(a, k) for a, k in pairs])
        est_rule, _ = monte_carlo_profit(menu, discrete_dist, cost, 20000, seed=5)
        est_gen, _ = monte_carlo_profit(gm, discrete_dist, cost, 20000, seed=5)
        assert est_gen == est_rule

    def test_rule_menu_is_priced_from_its_terms(self, cost, product_dist):
        """A rule menu whose terms undercharge every served type by 500 earns
        about 500 P(served) (about 250 here) less than J, outside 5 standard errors."""

        class Undercharged(stop_loss.StopLossMenu):
            def terms(self, a, k):
                served, d, premium = super().terms(a, k)
                premium[served] -= 500.0
                return served, d, premium

        solved = stop_loss.solve(product_dist, cost)
        menu = Undercharged(solved.tau_star, solved.objective_value, cost, product_dist)
        est, se = monte_carlo_profit(menu, product_dist, cost, 200000, seed=42)
        assert abs(est - menu.objective_value) > 5.0 * se

    def test_invalid_sample_size(self, cost, product_dist):
        menu = stop_loss.solve(product_dist, cost)
        with pytest.raises(DomainError):
            monte_carlo_profit(menu, product_dist, cost, 0, seed=1)


# -- per-entry reference loops: exact oracles for GenericMenu.self_select -----


def loop_indirect_utility(menu, a):
    """Every entry's risk reduction stacked, then the best one, floored at 0."""
    a = np.asarray(a, dtype=float)
    return np.maximum(np.stack([e.risk_reduction(a) for e in menu.entries]).max(axis=0), 0.0)


def loop_monte_carlo_profit(menu, dist, cost, n, seed):
    """Self-selection one entry at a time: the own entry (first with equal
    (a, k)) within tie of the maximum wins, else the first entry within tie
    of it; stay out below -tie."""
    a, k = dist.sample(n, np.random.default_rng(seed))
    best = np.full(n, -np.inf)
    own = np.full(n, -1)
    own_value = np.zeros(n)
    for j, e in enumerate(menu.entries):
        value = e.risk_reduction(a)
        best = np.maximum(best, value)
        match = (a == e.a) & (k == e.k) & (own < 0)
        own[match] = j
        own_value[match] = value[match]
    tie_tol = 1e-12 * np.maximum(1.0, np.abs(best))
    choice = np.full(n, -1)
    for j, e in enumerate(menu.entries):
        choice[(choice < 0) & (e.risk_reduction(a) >= best - tie_tol)] = j
    choice = np.where((own >= 0) & (own_value >= best - tie_tol), own, choice)
    take = best >= -tie_tol
    profile = KProfile(cost, dist.family)
    profits = np.zeros(n)
    for j, e in enumerate(menu.entries):
        rows = take & (choice == j)
        if rows.any():
            c = e.contract
            if c.lam == 0.0 or math.isinf(c.deductible):
                profits[rows] = e.premium
            else:
                profits[rows] = e.premium - c.lam * profile.stop_loss_cost(k[rows], c.deductible)
    return float(profits.mean()), float(profits.std(ddof=1) / math.sqrt(n))


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.fixture(scope="module")
def bundled_solves(tmp_path_factory):
    """Output directory of remenu solve on each bundled product-market config."""
    outs = {}
    for name in PRODUCT_CONFIGS:
        outs[name] = tmp_path_factory.mktemp(name)
        assert main(["solve", "--config", str(SCRIPTS / f"{name}.json"), "--out", str(outs[name])]) == 0
    return outs


@pytest.fixture(scope="module")
def bundled_tables(bundled_solves):
    """menu.csv of each bundled product-market config, read back as remenu
    verify and simulate --menu read it (231 rows each)."""
    return {name: _read_menu_csv(out / "menu.csv") for name, out in bundled_solves.items()}


E3, E2 = math.exp(-3), math.exp(-2)
HAND_ATOMS = [(E3, 10000.0, 0.2), (math.exp(-2.5), 12000.0, 0.2), (E2, 20000.0, 0.2),
              (E3, 15000.0, 0.2), (math.exp(-1.0), 20000.0, 0.2)]


def hand_menu(dist, null_premium):
    """Entries at the atoms: a duplicated contract (atoms 0 and 1 share a),
    a contract tied with it for every a >= 22000, a half quota share, and
    null rows (d = inf, and lam = 0) charging null_premium; with
    null_premium > 0 low types stay out."""
    (a0, a1, a2, a3, a4), (k0, k1, k2, k3, k4) = dist.a_vals, dist.ks
    sl = Contract("stop_loss", 1.0, 20000.0)
    return GenericMenu.from_entries([
        MenuEntry(a0, k0, sl, 4000.0),
        MenuEntry(a1, k1, sl, 4000.0),
        MenuEntry(a2, k2, Contract("stop_loss", 1.0, 22000.0), 2000.0),
        MenuEntry(a3, k3, Contract("stop_loss", 1.0, math.inf), null_premium),
        MenuEntry(a4, k4, Contract("quota_share", 0.0, 0.0), null_premium),
        MenuEntry(a3, k3, Contract("quota_share", 0.5, 0.0), 12000.0),
        MenuEntry(a0, k0, sl, 4000.0),
    ])


class TestSelfSelectionOracle:
    @pytest.mark.parametrize("name", PRODUCT_CONFIGS)
    def test_bundled_tables(self, name, bundled_tables, cost, product_dist):
        gm = bundled_tables[name]
        assert len(gm) == 231
        got = monte_carlo_profit(gm, product_dist, cost, 100_000, seed=7)
        assert got == loop_monte_carlo_profit(gm, product_dist, cost, 100_000, 7)
        a = np.concatenate([gm.columns[0], np.linspace(0.0, 80000.0, 1001)])
        assert_same_bits(indirect_utility(gm, a), loop_indirect_utility(gm, a))

    @pytest.mark.parametrize("module", [stop_loss, quota_share, change_loss])
    def test_discrete_atoms_take_their_own_entries(self, module, cost):
        dist = DiscreteTypes([(E3 + i * (E2 - E3) / 4, 6000.0 + 4000.0 * i, 0.2) for i in range(5)])
        menu = module.solve(dist, cost)
        gm = GenericMenu.from_entries([menu.entry(a, k) for a, k in zip(dist.a_vals, dist.ks)])
        got = monte_carlo_profit(gm, dist, cost, 20001, seed=3)
        assert got == loop_monte_carlo_profit(gm, dist, cost, 20001, 3)
        assert_same_bits(indirect_utility(gm, dist.a_vals), loop_indirect_utility(gm, dist.a_vals))

    @pytest.mark.parametrize("module", [stop_loss, quota_share, change_loss])
    def test_degenerate_menu(self, module, cost, degenerate_dist):
        menu = module.solve(degenerate_dist, cost)
        a, k = degenerate_dist.sample(300, np.random.default_rng(4))
        gm = GenericMenu.from_entries([menu.entry(ai, ki) for ai, ki in zip(a, k)])
        got = monte_carlo_profit(gm, degenerate_dist, cost, 30000, seed=5)
        assert got == loop_monte_carlo_profit(gm, degenerate_dist, cost, 30000, 5)
        a = np.linspace(0.0, 90000.0, 1001)
        assert_same_bits(indirect_utility(gm, a), loop_indirect_utility(gm, a))

    @pytest.mark.parametrize("null_premium", [0.0, 500.0])
    def test_hand_built_menu(self, null_premium, cost, product_dist):
        atoms = DiscreteTypes(HAND_ATOMS)
        gm = hand_menu(atoms, null_premium)
        for dist in (atoms, product_dist):
            got = monte_carlo_profit(gm, dist, cost, 10007, seed=8)
            assert got == loop_monte_carlo_profit(gm, dist, cost, 10007, 8)
        a = np.concatenate([atoms.a_vals, np.linspace(0.0, 90000.0, 901)])
        assert_same_bits(indirect_utility(gm, a), loop_indirect_utility(gm, a))
        if null_premium > 0.0:
            assert indirect_utility(gm, 10000.0) == 0.0  # everyone stays out down there

    def test_ragged_blocks(self, monkeypatch, bundled_tables, cost, product_dist):
        # 997 samples are a multiple of no block length the menus give.
        monkeypatch.setattr(menus, "_BLOCK_ELEMS", 64)
        atoms = DiscreteTypes(HAND_ATOMS)
        table = bundled_tables[PRODUCT_CONFIGS[0]]
        for gm, dist in [(hand_menu(atoms, 500.0), atoms), (table, product_dist)]:
            got = monte_carlo_profit(gm, dist, cost, 997, seed=9)
            assert got == loop_monte_carlo_profit(gm, dist, cost, 997, 9)
            a = np.linspace(0.0, 90000.0, 997)
            assert_same_bits(indirect_utility(gm, a), loop_indirect_utility(gm, a))

    def test_scalar_risk_level(self, bundled_tables):
        gm = bundled_tables[PRODUCT_CONFIGS[0]]
        for a in (0.0, 38000.0, 45000.5):
            got = indirect_utility(gm, a)
            assert_same_bits(got, loop_indirect_utility(gm, a))
            assert type(got) is type(loop_indirect_utility(gm, a))


def _mc_peak(menu, dist, cost) -> int:
    tracemalloc.start()
    try:
        monte_carlo_profit(menu, dist, cost, 100_000, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    def test_tabulated_menu_below_per_entry_loop(self, bundled_tables, cost, product_dist):
        # The per-entry loop peaked at 8.6 MB here: 100,000 samples times
        # (a, k, best, choice, own, own value, profit) plus masks.
        assert _mc_peak(bundled_tables[PRODUCT_CONFIGS[0]], product_dist, cost) < 6e6

    def test_rule_menu_prices_in_blocks(self, cost, product_dist):
        # Pricing all 100,000 terms at once peaked at 6.6 MB.
        assert _mc_peak(stop_loss.solve(product_dist, cost), product_dist, cost) < 4e6

    @pytest.mark.parametrize("n", [1, 64, 65, 997])
    def test_rule_menu_blocks_keep_bits(self, n, cost, product_dist, monkeypatch):
        menu = stop_loss.solve(product_dist, cost)
        a, k = product_dist.sample(n, np.random.default_rng(9))
        served, d, premium = menu.terms(a, k)
        premium[served] -= KProfile(cost, product_dist.family).stop_loss_cost(k[served], d[served])
        se = float(premium.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        monkeypatch.setattr(menus, "_BLOCK_ELEMS", 64)
        assert monte_carlo_profit(menu, product_dist, cost, n, seed=9) == (float(premium.mean()), se)

    def test_peak_independent_of_distinct_contracts(self, cost, product_dist):
        a, k = product_dist.sample(1000, np.random.default_rng(2))
        d = np.linspace(10000.0, 60000.0, 1000)

        def menu(n_distinct):
            j = np.arange(1000) % n_distinct
            return GenericMenu.from_entries(
                MenuEntry(a[i], k[i], Contract("stop_loss", 1.0, d[j[i]]), 1000.0 + j[i])
                for i in range(1000)
            )

        few, many = _mc_peak(menu(10), product_dist, cost), _mc_peak(menu(1000), product_dist, cost)
        assert abs(many - few) <= 1e6


# -- exact IC on tabulated menus ----------------------------------------------


def sampled_ic(menu, n_pairs, rng):
    """IC probed at n_pairs random (own, alt) pairs of rows: the own row
    indices and the gain of switching to the alt row's contract."""
    cols = menu.columns
    own = rng.integers(0, len(menu), n_pairs)
    alt = rng.integers(0, len(menu), n_pairs)
    a = cols[0, own]

    def value(i):
        lam, d, premium = cols[2:, i]
        return lam * np.maximum(a - d, 0.0) - premium

    return own, value(alt) - value(own)


def planted_menu(bundled_solves):
    """The solved uniform_alpha_stop_loss table plus one row at the kink whose
    half quota share, at 47.8 under tau*/2, tempts the types just above tau*;
    and that row."""
    out = bundled_solves["uniform_alpha_stop_loss"]
    tau = json.loads((out / "summary.json").read_text())["tau_star"]
    row = MenuEntry(tau, 5000.0, Contract("change_loss", 0.5, 0.0), tau / 2 - 47.8)
    return GenericMenu.from_entries(_read_menu_csv(out / "menu.csv").entries + (row,)), row


class TestExactIC:
    def test_planted_pair_found(self, bundled_solves):
        menu, row = planted_menu(bundled_solves)
        assert len(menu) == 232
        report = check_ic(menu)
        assert not report.passed
        assert report.n_checked == 232**2
        assert report.max_violation == pytest.approx(0.985, abs=1e-3)
        (record,) = report.violations
        assert record["own_type"][0] == pytest.approx(38955.28, abs=0.01)
        assert record["violation"] == report.max_violation
        assert record["alt_type"] == [row.a, row.k]

    def test_planted_pair_fails_verify_on_ic_alone(self, bundled_solves, tmp_path):
        menu, row = planted_menu(bundled_solves)
        out = bundled_solves["uniform_alpha_stop_loss"]
        planted = tmp_path / "planted.csv"
        extra = [row.a, row.k, "change_loss", row.contract.lam, row.contract.deductible, row.premium, 0]
        planted.write_text((out / "menu.csv").read_text() + ",".join(map(str, extra)) + "\n")
        config = SCRIPTS / "uniform_alpha_stop_loss.json"
        assert main(["verify", "--config", str(config), "--out", str(tmp_path), "--menu", str(planted)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"incentive_compatibility", "individual_rationality", "passed"}
        assert report["passed"] is False
        assert report["incentive_compatibility"]["passed"] is False
        assert report["individual_rationality"]["passed"] is True
        assert report["incentive_compatibility"]["max_violation"] == check_ic(menu).max_violation

    def test_planted_pair_fails_at_any_scale(self, bundled_solves):
        # Scaling every a, d and P by 1000 scales the gain of mimicry by
        # 1000; the tolerance grows with a, so the pair still fails.
        menu, row = planted_menu(bundled_solves)
        scaled = GenericMenu.from_entries(
            dataclasses.replace(
                e,
                a=1000.0 * e.a,
                contract=dataclasses.replace(e.contract, deductible=1000.0 * e.contract.deductible),
                premium=1000.0 * e.premium,
            )
            for e in menu.entries
        )
        report = check_ic(scaled)
        assert not report.passed
        assert report.max_violation == pytest.approx(1000.0 * check_ic(menu).max_violation, rel=1e-9)
        (record,) = report.violations
        assert record["own_type"][0] == pytest.approx(38955280.0, abs=10.0)
        assert record["alt_type"] == [1000.0 * row.a, row.k]

    @pytest.mark.parametrize("name", PRODUCT_CONFIGS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_covers_sampled_pairs(self, name, seed, bundled_tables):
        # Random premium bumps: a raised row may prefer another contract, a
        # lowered one may tempt many other rows.
        rng = np.random.default_rng(seed)
        entries = list(bundled_tables[name].entries)
        for j, i in enumerate(rng.choice(len(entries), 6, replace=False)):
            bump = rng.uniform(1.0, 200.0) if j < 4 else -rng.uniform(0.0, 50.0)
            entries[i] = dataclasses.replace(entries[i], premium=max(entries[i].premium + bump, 0.0))
        menu = GenericMenu.from_entries(entries)
        report = check_ic(menu)
        own, slack = sampled_ic(menu, 10000, np.random.default_rng(seed))
        over = slack > IC_TOL * np.maximum(1.0, np.abs(menu.columns[0, own]))
        assert report.max_violation >= slack.max()
        assert not report.passed and over.any()
        for i in np.unique(own[over]):
            # Records come in row order, so the row moved first is reported
            # first if the exact check flags it.
            moved = GenericMenu.from_entries([entries[i], *entries[:i], *entries[i + 1 :]])
            first = check_ic(moved).violations[0]
            assert first["own_type"] == [entries[i].a, entries[i].k]
            assert first["violation"] >= slack[own == i].max()

    def test_solved_tables_pass_exactly(self, bundled_tables):
        for menu in bundled_tables.values():
            report = check_ic(menu, n_pairs=1, rng=np.random.default_rng(5))
            assert report.passed and report.n_checked == 231**2 and report.violations == ()
            assert 0.0 <= report.max_violation <= IC_TOL * np.abs(menu.columns[0]).max()

    def test_verify_report_independent_of_seed(self, bundled_solves, tmp_path):
        out = bundled_solves["uniform_alpha_stop_loss"]
        raw, reports = json.loads((SCRIPTS / "uniform_alpha_stop_loss.json").read_text()), []
        for seed in (0, 7):
            config = tmp_path / f"seed{seed}.json"
            config.write_text(json.dumps({**raw, "seed": seed}))
            argv = ["verify", "--config", str(config), "--out", str(tmp_path / str(seed))]
            assert main(argv + ["--menu", str(out / "menu.csv")]) == 0
            reports.append((tmp_path / str(seed) / "report.json").read_bytes())
        assert reports[0] == reports[1]
