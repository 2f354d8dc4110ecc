"""quadrature.first_true and quadrature.tail_gauss on arrays, against the
scalar bisection and scalar tail they replaced (tests/scalar_quadrature.py)
and against their own one-row calls; and the Gauss-Legendre rules, against
the moments they must integrate and numpy's eigenvalue-built rules."""

import math

import numpy as np
import pytest

import scalar_quadrature as scalar
from remenu import CostFunctional, Distortion, DivergenceError, ExponentialLoss, GenericLoss
from remenu.quadrature import _BATCH_SIZES, _leggauss, first_true, tail_gauss

TABULATED = Distortion.tabulated([(0.0, 0.0), (0.2, 0.2**0.75), (0.55, 0.55**0.75), (1.0, 1.0)])


def ulps(a: float, b: float) -> float:
    """|a - b| in units of the spacing of floats at the larger of the two."""
    return abs(a - b) / np.spacing(max(abs(a), abs(b), np.finfo(float).tiny))


class TestSearchAgainstBisection:
    """On an exactly monotone predicate both return the smallest float at
    which it holds, so they agree bit for bit."""

    # 0: the predicate holds at 0; 5e-324 and 1e-310: subnormal; 1e90: found
    # by the bisection's doubling, which stops at 2^299.
    C = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-5, 1.0, 12345.678, 2.0**52 + 1.0, 1e90]
    HI = [math.inf, 1e6, 1e300]

    @pytest.mark.parametrize("hi", HI)
    @pytest.mark.parametrize("c", C)
    def test_threshold_predicates(self, c, hi):
        want = scalar.first_true(lambda x: x >= c, hi)
        assert first_true(lambda x: x >= c, hi) == want
        assert want == (c if c <= hi else math.inf)

    @pytest.mark.parametrize("hi", [math.inf, 3.5, 0.0])
    def test_never_true(self, hi):
        assert scalar.first_true(lambda x: x != x, hi) == math.inf
        assert first_true(lambda x: x != x, hi) == math.inf

    def test_finite_hi_at_and_below_the_threshold(self):
        for c, hi in [(12345.678, 12345.678), (12345.678, np.nextafter(12345.678, 0.0)), (5e-324, 0.0)]:
            assert first_true(lambda x: x >= c, hi) == scalar.first_true(lambda x: x >= c, hi)

    def test_rows_are_their_own_searches(self):
        c = np.array(self.C + [math.inf])
        hi = np.array([math.inf, 1e6, 1e300, 0.5, 1e-309, math.inf, 1e4, 2.0**53, math.inf, 7.0])
        got = first_true(lambda x: x >= c[:, None], hi)
        assert got.tolist() == [first_true(lambda x: x >= ci, hi_i) for ci, hi_i in zip(c, hi)]
        assert got.tolist() == [ci if ci <= hi_i else math.inf for ci, hi_i in zip(c, hi)]

    def test_random_thresholds_over_every_float(self):
        rng = np.random.default_rng(23)
        c = rng.integers(0, np.float64(np.inf).view(np.int64), 2000).view(np.float64)
        hi = rng.integers(0, np.float64(np.inf).view(np.int64), 2000).view(np.float64)
        assert np.array_equal(first_true(lambda x: x >= c[:, None], hi), np.where(c <= hi, c, math.inf))

    def test_constant_predicate_broadcasts(self):
        assert first_true(lambda x: True) == 0.0
        assert first_true(lambda x: False, 2.0) == math.inf


def theta_star_cases(n: int = 100) -> list:
    """(family, loss, cost) for n Lomax, n exponential and n uniform losses
    with seeded scales, loadings and power distortions."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(n):
        s, a = 10.0 ** rng.uniform(-1, 5), rng.uniform(1.5, 5.0)
        cost = CostFunctional(rng.uniform(0.02, 2.0), Distortion.power(rng.uniform(0.4, 1.0)))
        cases.append(("lomax", GenericLoss(lambda y, s=s, a=a: (1.0 + y / s) ** -a), cost))
    for _ in range(n):
        k = 10.0 ** rng.uniform(-1, 5)
        cost = CostFunctional(rng.uniform(0.02, 2.0), Distortion.power(rng.uniform(0.4, 1.0)))
        cases.append(("exponential", GenericLoss(lambda y, k=k: np.exp(-y / k)), cost))
    for _ in range(n):
        b = 10.0 ** rng.uniform(-1, 5)
        cost = CostFunctional(rng.uniform(0.02, 2.0), Distortion.power(rng.uniform(0.4, 1.0)))
        cases.append(("uniform", GenericLoss(lambda y, b=b: 1.0 - y / b, support_hi=b), cost))
    return cases


def test_theta_star_against_bisection():
    # The distorted survival is monotone only up to rounding, so the two
    # searches may stop on different floats of the crossing; 8 ulps bounds it.
    moved = []
    for family, loss, cost in theta_star_cases():
        want = scalar.first_true(
            lambda d: float(cost.distortion(loss.survival(d))) <= cost.target, loss.support_hi
        )
        got = cost.theta_star(loss)
        assert ulps(got, want) <= 8, (family, got, want)
        moved += [family] if got != want else []
    assert set(moved) <= {"lomax"}


def test_quantile_rows_are_their_own_searches():
    loss = GenericLoss(lambda y: (1.0 + y / 2.0) ** -3.0)
    alpha = np.array([[1e-12, 0.01, 0.3], [0.5, 0.9, 1.0 - 1e-12]])
    got = loss.var(alpha)
    assert got.shape == alpha.shape
    assert got.tolist() == [[float(loss.var(a)) for a in row] for row in alpha]
    for a, q in zip(alpha.ravel(), got.ravel()):
        assert ulps(q, scalar.first_true(lambda y: loss.survival_fn(y) <= a)) <= 8


def lomax(s: float) -> GenericLoss:
    return GenericLoss(lambda y: (1.0 + y / s) ** -3.0)


TAIL_CASES = {
    # Lomax under power(0.9): segments past 16 per call of f.
    "lomax": (lomax(2.0), CostFunctional(0.1, Distortion.power(0.9)), [0.0, 1.0, 4.0, 20.0, 1e3, 1e12, math.inf]),
    # Kinks of h at VaR_0.55 and VaR_0.2 split segments; from 744.25 on the
    # survival is subnormal (its half is 0), and d = inf prices nothing.
    "tabulated": (
        ExponentialLoss(1.0),
        CostFunctional(0.1, TABULATED),
        [0.0, 0.3, -math.log(0.55), 1.1, -math.log(0.2), 3.0, 735.0, 740.0, 744.25, 744.5, 745.0, math.inf],
    ),
    # A finite support: d at and past support_hi price nothing.
    "uniform": (
        GenericLoss(lambda y: 1.0 - y / 3.0, support_hi=3.0),
        CostFunctional(0.1, Distortion.power(0.5)),
        [0.0, 1.0, 2.97, 3.0, 4.0],
    ),
}


class TestBatchedTails:
    @pytest.mark.parametrize("case", TAIL_CASES)
    def test_rows_equal_scalar_calls(self, case):
        loss, cost, d = TAIL_CASES[case]
        got = cost.tail(loss)(np.array(d))
        assert got.tolist() == [cost.stop_loss_cost(loss, x) for x in d]
        # Shuffled, and as a 2-D array, every row keeps its value.
        perm = np.random.default_rng(3).permutation(len(d))
        assert cost.tail(loss)(np.array(d)[perm]).tolist() == got[perm].tolist()
        assert cost.tail(loss)(np.array([d, d])).tolist() == [got.tolist()] * 2

    def test_subnormal_and_past_support_rows_price_zero_or_settle(self):
        loss, cost, d = TAIL_CASES["tabulated"]
        got = cost.tail(loss)(np.array(d))
        assert got[-1] == 0.0
        ulp = 2.0**-1074
        for x, v in zip(d[6:-1], got[6:-1]):
            assert v == pytest.approx(1.1 * 0.2**-0.25 * math.exp(-x), rel=0.0, abs=16 * ulp)
        loss, cost, d = TAIL_CASES["uniform"]
        assert cost.tail(loss)(np.array(d))[-2:].tolist() == [0.0, 0.0]

    def test_tail_gauss_rows_with_their_own_kinks(self):
        h, loss = TABULATED, ExponentialLoss(1.0)

        def f(y):
            return h(loss.survival(y))

        lo = np.array([0.0, 0.3, 0.7, 1.5, 50.0])
        scale = np.array([0.69, 0.5, 2.0, 0.7, 0.7])
        kinks = np.array([[0.598, 1.609], [1.609, np.nan], [np.nan, np.nan], [0.2, 1.609], [0.598, 1.609]])
        got = tail_gauss(f, lo, math.inf, scale, kinks)
        for i in range(len(lo)):
            row = kinks[i][~np.isnan(kinks[i])]
            one = tail_gauss(f, float(lo[i]), math.inf, float(scale[i]), row)
            assert got[i] == one
            # The scalar tail sums each segment's nodes by a matrix product:
            # the same segments and stop, up to the rounding of that sum.
            assert one == pytest.approx(scalar.tail_gauss(f, float(lo[i]), math.inf, float(scale[i]), row), rel=1e-14)

    @pytest.mark.parametrize("case", TAIL_CASES)
    def test_costs_against_the_scalar_tail(self, case):
        # The scalar tail at the same segment scale and kinks as the batch.
        loss, cost, d = TAIL_CASES[case]
        h = cost.distortion
        for x in d:
            top = float(loss.survival(x))
            if not (top > 0.0 and x < loss.support_hi) or top / 2.0 == 0.0:
                continue
            scale = float(loss.var(top / 2.0)) - x
            kinks = loss.var(np.array([u for u in h.xs[1:-1] if u < top]))
            want = (1.0 + cost.theta) * scalar.tail_gauss(
                lambda y: h(loss.survival(y)), x, loss.support_hi, scale, kinks
            )
            assert cost.stop_loss_cost(loss, x) == pytest.approx(want, rel=1e-14)

    def test_a_divergent_row_raises(self):
        heavy = GenericLoss(lambda y: 1.0 / (1.0 + y))
        with pytest.raises(DivergenceError, match=r"d=0\.0.*r="):
            CostFunctional(0.1).tail(heavy)(np.array([0.0]))
        with pytest.raises(DivergenceError):
            CostFunctional(0.1).tail(heavy)(np.array([5.0, 0.0, math.inf]))
        with pytest.raises(DivergenceError, match=r"by edge 1.34218e\+308"):
            tail_gauss(lambda y: 1.0 / (1.0 + y), np.array([0.0, 1.0]), math.inf, 1e300)

    def test_negative_deductible_in_a_batch_rejected(self):
        from remenu import DomainError

        with pytest.raises(DomainError, match="deductible"):
            CostFunctional(0.1).tail(lomax(2.0))(np.array([1.0, -1.0]))


# -- Gauss-Legendre rules -------------------------------------------------

NODE_COUNTS = sorted({*_BATCH_SIZES, 24, 256})


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_leggauss_is_the_gauss_rule(n):
    x, w = _leggauss(n)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1])
    assert abs(w.sum() - 2.0) <= 1e-15
    # n nodes integrate every polynomial of degree 2n - 1: the even moments
    # of [-1, 1] are 2 / (2j + 1), the odd ones 0 by the symmetry above.
    j = np.arange(n)
    moments = (w[:, None] * x[:, None] ** (2 * j)).sum(axis=0)
    assert np.max(np.abs(moments - 2.0 / (2 * j + 1))) <= 1e-14


@pytest.mark.parametrize("n", NODE_COUNTS)
def test_leggauss_matches_numpy(n):
    # numpy's leggauss solves the Jacobi eigenproblem and polishes once.
    # Against 40-digit roots both are off by up to 2 ulp: near 0 that is
    # about 1e-17 apart, so the ulp is taken no finer than that of 1/2.
    # numpy's weights near +-1 are off by 2.1e-11 relative at n = 256 and
    # about 1e-10 at n = 512 (Newton's: 1.9e-13 at n = 256).
    x, w = _leggauss(n)
    xn, wn = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - xn) <= 2.0 * np.spacing(np.maximum(np.abs(xn), 0.5)))
    assert np.max(np.abs(w / wn - 1.0)) <= (2e-10 if n > 256 else 3e-11)
