import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remenu import (
    CostFunctional,
    Distortion,
    DivergenceError,
    DomainError,
    ExponentialFamily,
    ExponentialLoss,
    GenericLoss,
    KProfile,
    ScaleFamily,
    UnsupportedError,
    risk_model,
    threshold,
)
from remenu.quadrature import tail_gauss

from reference_rules import b_curve

ZERO_LOSS = GenericLoss(lambda y: 0.0, support_hi=0.0, point_mass_zero=1.0)  # X = 0

LN11 = math.log(1.1)
# Concave: u**0.75 at u = 0.2 and 0.55.
TABULATED_KNOTS = [(0.0, 0.0), (0.2, 0.2**0.75), (0.55, 0.55**0.75), (1.0, 1.0)]


class TestDistortion:
    def test_identity_endpoints(self):
        h = Distortion.identity()
        assert h(0.0) == 0.0
        assert h(1.0) == 1.0

    def test_power_is_concave_on_grid(self):
        h = Distortion.power(0.5)
        u = np.linspace(0.0, 1.0, 1001)
        vals = h(u)
        mids = h(0.5 * (u[:-1] + u[1:]))
        assert np.all(mids >= 0.5 * (vals[:-1] + vals[1:]) - 1e-12)

    def test_bad_exponent_rejected(self):
        with pytest.raises(DomainError):
            Distortion.power(1.5)
        with pytest.raises(DomainError):
            Distortion.power(0.0)

    def test_tabulated_must_be_concave(self):
        with pytest.raises(DomainError):
            Distortion.tabulated([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0)])  # convex kink

    def test_tabulated_must_span_unit_square(self):
        with pytest.raises(DomainError):
            Distortion.tabulated([(0.0, 0.1), (1.0, 1.0)])

    def test_tabulated_valid(self):
        h = Distortion.tabulated([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0)])
        assert h(0.5) == pytest.approx(0.8)


class TestGenericLossContract:
    """survival_fn maps an array to an array; a scalar-only one fails when
    the loss is built, naming the contract."""

    @pytest.mark.parametrize(
        "fn",
        [
            lambda y: math.exp(-y),  # numpy: only 0-dimensional arrays convert to a float
            lambda y: 1.0 if y < 1.0 else 0.5,  # the truth value of an array is ambiguous
            lambda y: np.ones(len(y) + 1),  # the wrong shape
        ],
        ids=["math.exp", "branch", "shape"],
    )
    def test_scalar_only_survival_fails_fast(self, fn):
        with pytest.raises(DomainError, match="survival_fn must map a numpy array"):
            GenericLoss(fn)

    def test_constant_survival_broadcasts(self):
        half = GenericLoss(lambda y: 0.5, support_hi=2.0)
        assert half.survival(np.array([[-1.0, 0.0], [1.0, 3.0]])).tolist() == [[1.0, 0.5], [0.5, 0.5]]
        assert ZERO_LOSS.survival(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_survival_is_one_call_per_array(self):
        calls = []

        def fn(y):
            calls.append(np.shape(y))
            return np.exp(-y)

        loss = GenericLoss(fn)
        calls.clear()  # the check on building
        loss.survival(np.linspace(0.0, 5.0, 14).reshape(2, 7))
        assert calls == [(2, 7)]


class TestLossParameters:
    """A loss's parameters are checked when it is built, and a bad one is
    named: unchecked, a NaN support_hi prices H[(X - 1)_+] as 0, and a point
    mass of -0.2 admits alphas up to 1.2."""

    @pytest.mark.parametrize("hi", [math.nan, -1.0, -math.inf], ids=["nan", "negative", "-inf"])
    def test_support_hi_must_be_nonnegative(self, hi):
        with pytest.raises(DomainError, match="support_hi must be >= 0"):
            GenericLoss(lambda y: np.exp(-y), support_hi=hi)

    @pytest.mark.parametrize("p0", [-0.2, math.nan, 1.5], ids=["negative", "nan", "above-one"])
    def test_generic_point_mass_zero_must_lie_in_unit_interval(self, p0):
        with pytest.raises(DomainError, match=r"point_mass_zero must lie in \[0, 1\]"):
            GenericLoss(lambda y: np.exp(-y), point_mass_zero=p0)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_exponential_mean_must_be_positive_and_finite(self, mean):
        with pytest.raises(DomainError, match="mean must be positive and finite"):
            ExponentialLoss(mean)

    @pytest.mark.parametrize("p0", [-0.2, math.nan, 1.0], ids=["negative", "nan", "one"])
    def test_exponential_point_mass_zero_is_named(self, p0):
        with pytest.raises(DomainError, match=r"point_mass_zero must lie in \[0, 1\)"):
            ExponentialLoss(1.0, p0)

    def test_edges_of_the_ranges_stay_valid(self):
        assert (ZERO_LOSS.support_hi, ZERO_LOSS.point_mass_zero) == (0.0, 1.0)
        assert CostFunctional(0.1).stop_loss_cost(GenericLoss(lambda y: np.exp(-y)), 1.0) == pytest.approx(
            1.1 * math.exp(-1.0), rel=1e-9
        )


class TestVar:
    def test_var_exponential_known_point(self):
        # alpha = e^-3 puts the quantile at three mean units.
        assert ExponentialLoss(5000.0).var(math.exp(-3)) == pytest.approx(15000.0)

    def test_var_exponential_second_point(self):
        assert ExponentialLoss(10000.0).var(math.exp(-2)) == pytest.approx(20000.0)

    def test_var_alpha_near_one_tends_to_zero(self):
        assert ExponentialLoss(1.0).var(1.0 - 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_var_rejects_out_of_range_alpha(self):
        loss = ExponentialLoss(1.0, point_mass_zero=0.3)
        with pytest.raises(DomainError):
            loss.var(0.8)  # above 1 - F(0) = 0.7
        with pytest.raises(DomainError):
            ExponentialLoss(1.0).var(0.0)

    def test_var_generic_matches_exponential(self):
        exp = ExponentialLoss(2000.0)
        gen = GenericLoss(lambda y: np.exp(-y / 2000.0))
        for alpha in (0.05, 0.1353, 0.5):
            assert gen.var(alpha) == pytest.approx(exp.var(alpha), rel=1e-9)

    def test_var_accepts_arrays(self):
        alphas = np.array([0.05, 0.1353, 0.5])
        exp = ExponentialLoss(2000.0)
        gen = GenericLoss(lambda y: np.exp(-y / 2000.0))
        assert exp.var(alphas) == pytest.approx([exp.var(float(x)) for x in alphas], rel=1e-15)
        assert gen.var(alphas) == pytest.approx(exp.var(alphas), rel=1e-12)
        with pytest.raises(DomainError):
            exp.var(np.array([0.5, 1.0]))


class TestStopLossCost:
    def test_full_cost_exponential(self, cost):
        assert cost.stop_loss_cost(ExponentialLoss(10000.0), 0.0) == pytest.approx(11000.0)

    def test_infinite_deductible_costs_nothing(self, cost):
        assert cost.stop_loss_cost(ExponentialLoss(10000.0), math.inf) == 0.0

    @pytest.mark.parametrize("mean", [1.0, 1e300])
    def test_infinite_deductible_costs_exactly_nothing(self, cost, mean):
        # With c = 1e-306 and mean 1e300, H[X] = 1.1e606 overflows to inf.
        for c in (cost, CostFunctional(0.1, Distortion.power(1e-306))):
            assert c.stop_loss_cost(ExponentialLoss(mean), math.inf) == 0.0

    @pytest.mark.parametrize("d", [1.5e308, sys.float_info.max])
    def test_deductibles_above_1e308_keep_their_tail(self, d):
        # exp(-c·d) stays far from 0 at c = 1e-306: 7.89e240 at 1.5e308 and
        # 9.30e227 at the largest float, where clamping d to 1e308 read 4.09e262.
        got = CostFunctional(0.1, Distortion.power(1e-306)).stop_loss_cost(ExponentialLoss(1.0), d)
        assert got == pytest.approx(1.1 / 1e-306 * math.exp(-1e-306 * d), rel=1e-12)

    def test_cost_at_mean_deductible(self, cost):
        got = cost.stop_loss_cost(ExponentialLoss(10000.0), 10000.0)
        assert got == pytest.approx(11000.0 * math.exp(-1.0), rel=1e-12)

    def test_closed_form_matches_quadrature(self, cost):
        k = 7000.0
        gen = GenericLoss(lambda y: np.exp(-y / k))
        for d in (0.0, 500.0, k, 3 * k):
            closed = cost.stop_loss_cost(ExponentialLoss(k), d)
            numeric = cost.stop_loss_cost(gen, d)
            assert numeric == pytest.approx(closed, rel=1e-10)

    def test_nonincreasing_and_convex_in_d(self, cost):
        loss = ExponentialLoss(5000.0)
        d = np.linspace(0.0, 30000.0, 61)
        vals = np.array([cost.stop_loss_cost(loss, float(x)) for x in d])
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-9)

    def test_negative_deductible_rejected(self, cost):
        with pytest.raises(DomainError):
            cost.stop_loss_cost(ExponentialLoss(1.0), -1.0)

    def test_divergent_tail_raises(self, cost):
        heavy = GenericLoss(lambda y: 1.0 / (1.0 + y))  # integral of survival diverges
        with pytest.raises(DivergenceError):
            cost.stop_loss_cost(heavy, 0.0)


def lomax(s: float) -> GenericLoss:
    """S(y) = (1 + y/s)^-3; under power(c) the distorted tail is (1 + y/s)^-3c."""
    return GenericLoss(lambda y: (1.0 + y / s) ** -3.0)


class TestTailOracles:
    """Non-closed-form tails (tail_gauss) against independent closed forms."""

    S, THETA = 2.0, 0.1

    @pytest.mark.parametrize("c", [0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("d_over_s", [0.0, 0.5, 2.0, 10.0])
    def test_lomax_stop_loss_cost(self, c, d_over_s):
        s, theta = self.S, self.THETA
        cost = CostFunctional(theta, Distortion.power(c))
        want = (1.0 + theta) * (s / (3.0 * c - 1.0)) * (1.0 + d_over_s) ** (1.0 - 3.0 * c)
        assert cost.stop_loss_cost(lomax(s), d_over_s * s) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("c", [0.5, 0.7, 0.9, 1.0])
    def test_lomax_theta_star_xi_and_full_cost(self, c):
        s, theta = self.S, self.THETA
        cost = CostFunctional(theta, Distortion.power(c))
        grow = (1.0 + theta) ** (1.0 / (3.0 * c))  # (1 + theta*/s)^(3c) = 1 + theta
        assert cost.theta_star(lomax(s)) == pytest.approx(s * (grow - 1.0), rel=1e-10)
        assert cost.xi(lomax(s)) == pytest.approx(s * (grow - 1.0) + s * grow / (3.0 * c - 1.0), rel=1e-10)
        assert cost.full_cost(lomax(s)) == pytest.approx((1.0 + theta) * s / (3.0 * c - 1.0), rel=1e-10)

    def test_tabulated_distortion_on_exponential(self):
        """h piecewise linear with kinks at S = 0.2, 0.55: on each piece
        h(e^{-y/k}) = b_i + m_i e^{-y/k}, integrated exactly."""
        k, knots = 1000.0, TABULATED_KNOTS
        cost = CostFunctional(self.THETA, Distortion.tabulated(knots))

        def closed(d):
            total = 0.0
            for (x0, y0), (x1, y1) in zip(knots[:-1], knots[1:]):
                m = (y1 - y0) / (x1 - x0)
                lo, hi = max(d, -k * math.log(x1)), (math.inf if x0 == 0.0 else -k * math.log(x0))
                if lo < hi:
                    flat = 0.0 if x0 == 0.0 else (y0 - m * x0) * (hi - lo)
                    total += flat + m * k * (math.exp(-lo / k) - math.exp(-hi / k))
            return (1.0 + self.THETA) * total

        q55, q20 = -k * math.log(0.55), -k * math.log(0.2)
        for d in (0.0, 0.5 * q55, q55, 0.5 * (q55 + q20), q20, 2.0 * q20):
            assert cost.stop_loss_cost(ExponentialLoss(k), d) == pytest.approx(closed(d), rel=1e-10)

    @pytest.mark.parametrize("d", [735.0, 740.0, 744.25, 744.5, 745.0])
    def test_subnormal_tabulated_tail_settles(self, d):
        """Past the last knot h(e^-y) = 0.2^-0.25 e^-y, so the cost is
        1.1 0.2^-0.25 e^-d; here it is subnormal and 1e-13 |total| underflows
        to 0, so the sum must stop at the first zero segment.  From 744.25 on
        survival(d) is the smallest subnormal, whose half is 0, so the
        segment scale is measured back to where the survival doubles."""
        cost = CostFunctional(0.1, Distortion.tabulated(TABULATED_KNOTS))
        start = time.perf_counter()
        got = cost.stop_loss_cost(ExponentialLoss(1.0), d)
        assert time.perf_counter() - start < 0.05
        ulp = 2.0**-1074  # spacing of the subnormals
        assert got == pytest.approx(1.1 * 0.2**-0.25 * math.exp(-d), rel=0.0, abs=16 * ulp)

    @pytest.mark.parametrize("c", [0.3, 0.5, 1.0])
    def test_finite_support_endpoint_singularity(self, c):
        """S(y) = 1 - y/b on [0, b]: h(S) = (1 - y/b)^c is singular at b for c < 1."""
        b, theta = 3.0, self.THETA
        cost = CostFunctional(theta, Distortion.power(c))
        loss = GenericLoss(lambda y: 1.0 - y / b, support_hi=b)
        for d in (0.0, b / 3.0, 0.99 * b):
            want = (1.0 + theta) * b / (c + 1.0) * (1.0 - d / b) ** (c + 1.0)
            assert cost.stop_loss_cost(loss, d) == pytest.approx(want, rel=1e-10)
        assert cost.stop_loss_cost(loss, b) == 0.0


def test_repeated_deductibles_price_once(monkeypatch):
    # A rule menu's Monte Carlo prices one base deductible d / k per sample,
    # mostly repeats (theta*_1 for every type with theta*_k < tau): each
    # distinct d is one tail_gauss row, and a repeat gets the bits of its
    # own call.
    cost = CostFunctional(0.1, Distortion.power(0.9))
    loss = lomax(2.0)
    distinct = np.array([0.0, 0.5, 3.0, 12.0, 40.0])
    d = distinct[np.random.default_rng(4).integers(0, len(distinct), (40, 3))]
    rows = []

    def counted(f, lo, *args):
        rows.append(np.size(lo))
        return tail_gauss(f, lo, *args)

    monkeypatch.setattr(risk_model, "tail_gauss", counted)
    got = cost.tail(loss)(d)
    assert rows == [len(distinct)]
    assert got.shape == d.shape
    each = {x: cost.tail(loss)(np.array([x]))[0] for x in distinct.tolist()}
    assert got.tobytes() == np.vectorize(each.get)(d).tobytes()
    assert cost.tail(loss)(3.0).shape == ()


class TestTailDivergence:
    """A tail that does not converge raises DivergenceError, fast, naming d and r."""

    @pytest.mark.parametrize(
        "loss, c",
        [
            (GenericLoss(lambda y: 1.0 / (1.0 + y)), 1.0),
            (lomax(2.0), 1.0 / 3.0),  # (1 + y/2)^-1: every doubling segment adds 2 ln 2
            (lomax(2.0), 0.3),  # the survival underflows to zero long before the tail settles
            (GenericLoss(lambda y: 0.95 + 0.05 * np.exp(-y)), 1.0),  # survival never halves
        ],
    )
    def test_raises_in_bounded_time(self, loss, c):
        cost = CostFunctional(0.1, Distortion.power(c))
        start = time.perf_counter()
        with pytest.raises(DivergenceError, match=r"d=0\.0.*r="):
            cost.stop_loss_cost(loss, 0.0)
        assert time.perf_counter() - start < 1.0

    def test_overflowing_edge_raises_instead_of_adding_zero(self):
        # Past the overflow f(inf) would read 0 and end the sum silently.
        # Edges 1e300 (2^j - 1) overflow after 27 segments, the last at 1.3e308.
        with pytest.raises(DivergenceError, match=r"by edge 1.34218e\+308"):
            tail_gauss(lambda y: 1.0 / (1.0 + y), 0.0, math.inf, 1e300)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            tail_gauss(lambda y: np.exp(-y), 0.0, math.inf, 0.0)


class TestCostFunctional:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -0.1])
    def test_non_finite_or_non_positive_theta_rejected(self, theta):
        with pytest.raises(DomainError, match="theta"):
            CostFunctional(theta, Distortion.identity())


class TestThetaStar:
    def test_exponential_closed_form(self, cost):
        for k in (5000.0, 10000.0, 25000.0):
            assert cost.theta_star(ExponentialLoss(k)) == pytest.approx(k * LN11, rel=1e-14)

    def test_largest_scale_value(self, cost):
        assert cost.theta_star(ExponentialLoss(25000.0)) == pytest.approx(2382.75, abs=0.01)

    def test_bisection_matches_closed_form(self, cost):
        k = 12000.0
        gen = GenericLoss(lambda y: np.exp(-y / k))
        assert cost.theta_star(gen) == pytest.approx(k * LN11, abs=1e-8)

    def test_infinite_when_survival_never_crosses(self, cost):
        # Survival bounded below 0.95 > 1/1.1: the distorted survival never
        # reaches the target, so the optimal deductible is pushed to +inf.
        gen = GenericLoss(lambda y: 0.95 + 0.05 * np.exp(-y))
        assert cost.theta_star(gen) == math.inf

    def test_point_mass_shrinks_theta_star(self, cost):
        k = 10000.0
        with_atom = cost.theta_star(ExponentialLoss(k, point_mass_zero=0.05))
        assert with_atom == pytest.approx(max(k * LN11 + k * math.log(0.95), 0.0))

    def test_zero_loss_theta_star_zero(self, cost):
        assert cost.theta_star(ZERO_LOSS) == 0.0


class TestXi:
    def test_exponential_closed_form(self, cost):
        for k in (5000.0, 10000.0):
            assert cost.xi(ExponentialLoss(k)) == pytest.approx(k * (1.0 + LN11), rel=1e-12)

    def test_known_value(self, cost):
        assert cost.xi(ExponentialLoss(10000.0)) == pytest.approx(10953.10, abs=0.01)

    def test_zero_loss(self, cost):
        assert cost.xi(ZERO_LOSS) == 0.0

    def test_infinite_theta_star_unsupported(self, cost):
        gen = GenericLoss(lambda y: 0.95 + 0.05 * np.exp(-y))
        with pytest.raises(UnsupportedError):
            cost.xi(gen)


class TestBCurve:
    def test_at_zero(self, cost):
        assert b_curve(cost, ExponentialLoss(1.0), 0.0) == pytest.approx(-1.1)

    def test_at_theta_star_equals_minus_xi(self, cost):
        loss = ExponentialLoss(8000.0)
        ts = cost.theta_star(loss)
        assert b_curve(cost, loss, ts) == pytest.approx(-cost.xi(loss), rel=1e-12)

    def test_increasing_below_theta_star(self, cost):
        loss = ExponentialLoss(10000.0)
        ts = cost.theta_star(loss)
        d = np.linspace(0.0, ts, 20)
        vals = np.array([b_curve(cost, loss, float(x)) for x in d])
        assert np.all(np.diff(vals) > 0.0)

    def test_maximized_at_theta_star(self, cost):
        loss = ExponentialLoss(10000.0)
        best = b_curve(cost, loss, cost.theta_star(loss))
        for d in np.linspace(0.0, 50000.0, 101):
            assert best >= b_curve(cost, loss, float(d)) - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        d1=st.floats(0.0, 40000.0),
        d2=st.floats(0.0, 40000.0),
        kappa=st.floats(0.01, 0.99),
    )
    def test_concavity(self, d1, d2, kappa):
        cost = CostFunctional(0.1, Distortion.identity())
        loss = ExponentialLoss(9000.0)
        mid = kappa * d1 + (1.0 - kappa) * d2
        lhs = b_curve(cost, loss, mid)
        rhs = kappa * b_curve(cost, loss, d1) + (1.0 - kappa) * b_curve(cost, loss, d2)
        assert lhs >= rhs - 1e-9


class TestKProfile:
    def test_matches_scalar_path(self, cost):
        fast = KProfile(cost, ExponentialFamily())
        ks = np.array([5000.0, 12000.0, 25000.0])
        for i, k in enumerate(ks):
            loss = ExponentialLoss(float(k))
            assert fast.theta_star(ks)[i] == pytest.approx(cost.theta_star(loss), rel=1e-14)
            assert fast.xi(ks)[i] == pytest.approx(cost.xi(loss), rel=1e-14)
            assert fast.full_cost(ks)[i] == pytest.approx(cost.full_cost(loss), rel=1e-14)
            assert fast.stop_loss_cost(ks, 1000.0)[i] == pytest.approx(
                cost.stop_loss_cost(loss, 1000.0), rel=1e-14
            )

    def test_slow_path_consistent_with_fast(self, cost):
        # The slow path prices each X_k = base.scaled(k) on its own.
        fast = KProfile(cost, ExponentialFamily())
        ks = np.array([6000.0, 18000.0])
        slow = [fast.family.base.scaled(float(k)) for k in ks]
        assert [cost.theta_star(x) for x in slow] == pytest.approx(fast.theta_star(ks), abs=1e-7)
        assert [cost.xi(x) for x in slow] == pytest.approx(fast.xi(ks), rel=1e-9)

    def test_infinite_deductible_array(self, cost):
        fast = KProfile(cost, ExponentialFamily())
        out = fast.stop_loss_cost(np.array([5000.0]), np.array([math.inf]))
        assert out[0] == 0.0


UNIT_EXP = GenericLoss(lambda y: np.exp(-y))  # the base X_1 ~ Exp(1), as a generic loss
TABULATED = Distortion.tabulated(TABULATED_KNOTS)


class TestScaleFamily:
    def test_generic_base_matches_exponential_family(self):
        generic, closed = ScaleFamily(UNIT_EXP), ExponentialFamily()
        ks = np.array([5000.0, 12000.0, 25000.0])
        alpha = math.exp(-3)
        assert generic.var(alpha, ks) == pytest.approx(closed.var(alpha, ks), rel=1e-14)
        assert generic.survival(30000.0, ks) == pytest.approx(closed.survival(30000.0, ks))
        assert float(generic.base.scaled(4000.0).var(alpha)) == pytest.approx(12000.0)

    def test_exponential_family_keeps_point_mass(self):
        fam = ExponentialFamily(point_mass_zero=0.1)
        assert fam.point_mass_zero == 0.1
        assert fam.base.scaled(3000.0) == ExponentialLoss(3000.0, 0.1)

    # The ids name the per-class modules these cases took before the class was a field.
    @pytest.mark.parametrize("kind", ["quota_share", "change_loss"], ids="remenu.{}".format)
    def test_generic_base_solves_like_closed_form(self, cost, kind):
        from remenu import DegenerateAlpha

        generic = DegenerateAlpha(5000.0, 25000.0, math.exp(-3), ScaleFamily(UNIT_EXP))
        closed = DegenerateAlpha(5000.0, 25000.0, math.exp(-3))
        got, want = threshold.solve(kind, generic, cost), threshold.solve(kind, closed, cost)
        assert got.tau_star == pytest.approx(want.tau_star, rel=1e-9)
        assert got.objective_value == pytest.approx(want.objective_value, rel=1e-9)

    def test_scale_route_matches_per_k_route(self):
        cost = CostFunctional(0.1, TABULATED)
        scale = KProfile(cost, ExponentialFamily(0.1))
        ks = np.array([5000.0, 12000.0, 25000.0])
        per_k = [scale.family.base.scaled(float(k)) for k in ks]  # each X_k priced on its own
        assert scale.theta_star(ks) == pytest.approx([cost.theta_star(x) for x in per_k], rel=1e-12)
        assert scale.xi(ks) == pytest.approx([cost.xi(x) for x in per_k], rel=1e-10)
        assert scale.full_cost(ks) == pytest.approx([cost.full_cost(x) for x in per_k], rel=1e-10)
        d = np.array([0.0, 3000.0, 40000.0])
        per_k_d = [cost.stop_loss_cost(x, float(di)) for x, di in zip(per_k, d)]
        assert scale.stop_loss_cost(ks, d) == pytest.approx(per_k_d, rel=1e-10)
        assert scale.stop_loss_cost(ks, math.inf) == pytest.approx([0.0, 0.0, 0.0])
