import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remenu import (
    DegenerateAlpha,
    DiscreteTypes,
    DomainError,
    ExponentialLoss,
    ProductUniform,
)
from remenu.quadrature import gauss_legendre

ALPHA_LO = math.exp(-3)
ALPHA_HI = math.exp(-2)


class TestTransform:
    # A type (alpha, k) sits at a = VaR_alpha(X_k) = -k ln(alpha).
    def test_known_point(self, degenerate_dist):
        assert degenerate_dist.a_of_k(5000.0) == pytest.approx(15000.0)

    def test_second_point(self, product_dist):
        assert product_dist.family.var(ALPHA_HI, 25000.0) == pytest.approx(50000.0)


class TestSupport:
    def test_product_lower_support(self, product_dist):
        # a = -k ln(alpha); minimized at k = 5000, alpha = e^-2 -> 10000.
        assert product_dist.lower_support() == pytest.approx(10000.0)

    def test_product_upper_support(self, product_dist):
        assert product_dist.upper_support() == pytest.approx(75000.0)

    def test_degenerate_lower_support(self, degenerate_dist):
        assert degenerate_dist.lower_support() == pytest.approx(15000.0)

    def test_discrete_support_is_atom_range(self, discrete_dist):
        assert discrete_dist.lower_support() == pytest.approx(30000.0)
        assert discrete_dist.upper_support() == pytest.approx(40000.0)

    def test_samples_respect_lower_support(self, product_dist):
        rng = np.random.default_rng(3)
        a, _ = product_dist.sample(10000, rng)
        assert np.all(a >= product_dist.lower_support() - 1e-9)
        assert np.all(a <= product_dist.upper_support() + 1e-9)


class TestIntegrate:
    @pytest.mark.parametrize("fixture", ["product_dist", "degenerate_dist", "discrete_dist"])
    def test_total_mass_is_one(self, fixture, request):
        dist = request.getfixturevalue(fixture)
        assert dist.integrate(lambda a, k: np.ones_like(a)) == pytest.approx(1.0, rel=1e-10)

    def test_indicator_below_support_is_one(self, product_dist):
        t = 5000.0
        got = product_dist.integrate(lambda a, k: (a >= t).astype(float), breakpoints=[t])
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_conditional_density_normalizes(self, product_dist):
        # For each k the conditional a-density is e^{-a/k}/(k (e^-2 - e^-3))
        # on (2k, 3k); its mass must be exactly 1.
        ones = product_dist._inner(lambda a, k: np.ones_like(a), np.array([8000.0, 20000.0]), [])
        assert ones == pytest.approx([1.0, 1.0], rel=1e-10)

    def test_matches_direct_alpha_quadrature(self, product_dist):
        # Independent oracle: integrate f over (alpha, k) coordinates directly.
        def f(a, k):
            return np.maximum(a - 30000.0, 0.0) / (1.0 + k / 10000.0)

        # The conditional support (2k, 3k) starts/stops covering a = 30000 at
        # k = 10000 and k = 15000; integrate k piecewise across those kinks.
        kn_all, kw_all = [], []
        for klo, khi in ((5000.0, 10000.0), (10000.0, 15000.0), (15000.0, 25000.0)):
            kn_seg, kw_seg = gauss_legendre(klo, khi, 120)
            kn_all.append(kn_seg)
            kw_all.append(kw_seg)
        kn = np.concatenate(kn_all)
        kw = np.concatenate(kw_all)
        total = 0.0
        for k, wk in zip(kn, kw):
            # Split the alpha integral at the image of the kink a = 30000.
            cut = float(np.clip(math.exp(-30000.0 / k), ALPHA_LO, ALPHA_HI))
            inner = 0.0
            for lo, hi in ((ALPHA_LO, cut), (cut, ALPHA_HI)):
                if hi <= lo:
                    continue
                an, aw = gauss_legendre(lo, hi, 100)
                inner += float(np.dot(aw, f(-k * np.log(an), k)))
            total += wk * inner
        total /= (25000.0 - 5000.0) * (ALPHA_HI - ALPHA_LO)
        got = product_dist.integrate(f, breakpoints=[30000.0])
        assert got == pytest.approx(total, rel=1e-8)

    def test_alpha_coordinates_with_generic_base(self):
        from remenu import GenericLoss, ScaleFamily

        family = ScaleFamily(GenericLoss(lambda y: np.exp(-y)))
        generic = ProductUniform(5000.0, 25000.0, ALPHA_LO, ALPHA_HI, family)
        closed = ProductUniform(5000.0, 25000.0, ALPHA_LO, ALPHA_HI)

        def f(a, k):
            return np.maximum(a - 30000.0, 0.0) / (1.0 + k / 10000.0)

        got = generic.integrate(f, breakpoints=[30000.0])
        assert got == pytest.approx(closed.integrate(f, breakpoints=[30000.0]), rel=1e-9)

    def test_degenerate_matches_k_quadrature(self, degenerate_dist):
        def f(a, k):
            return np.maximum(a - 40000.0, 0.0)

        # (3k - 40000)_+ kinks at k = 40000/3; exact integral beyond it.
        oracle = 1.5 * (25000.0 - 40000.0 / 3.0) ** 2 / 20000.0
        got = degenerate_dist.integrate(f, breakpoints=[40000.0])
        assert got == pytest.approx(oracle, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0))
    def test_linearity(self, product_dist, c1, c2):
        def f1(a, k):
            return np.maximum(a - 20000.0, 0.0)

        def f2(a, k):
            return k / 10000.0

        lhs = product_dist.integrate(
            lambda a, k: c1 * f1(a, k) + c2 * f2(a, k), breakpoints=[20000.0]
        )
        rhs = c1 * product_dist.integrate(f1, breakpoints=[20000.0]) + c2 * product_dist.integrate(f2)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def never_capped(k, t):
    """A capped profit that no type may take: it may see empty arrays only."""
    assert np.size(k) == 0, "a type was capped"
    return np.zeros(np.shape(k))


class TestTailIntegral:
    def test_matches_integrate_route(self, product_dist):
        # The affine density t - slope k, positive here, against the full quadrature.
        ts = np.array([12000.0, 30000.0, 60000.0])
        via_tail = product_dist.tail_integral(ts, 0.25, 0.0, never_capped)
        for t, got in zip(ts.tolist(), via_tail):
            via_full = product_dist.integrate(
                lambda a, k: (a > t) * (t - 0.25 * k), breakpoints=[t]
            )
            assert got == pytest.approx(via_full, rel=1e-9, abs=1e-12)

    def test_degenerate_route(self, degenerate_dist):
        ts = np.array([20000.0, 45000.0])
        via_tail = degenerate_dist.tail_integral(ts, 0.5, 0.0, never_capped)
        for t, got in zip(ts.tolist(), via_tail):
            via_full = degenerate_dist.integrate(lambda a, k: (a > t) * (t - 0.5 * k), breakpoints=[t])
            assert got == pytest.approx(via_full, rel=1e-9, abs=1e-12)

    def test_infinite_threshold(self, product_dist):
        for ratio in (0.0, 0.1):
            assert product_dist.tail_integral(np.array([math.inf]), 1.0, ratio, never_capped).tolist() == [0.0]

    def test_discrete_is_strict(self, discrete_dist):
        # Atoms exactly at t are excluded from the strict tail: at t = 30000
        # the atom (30000, 10000, 0.4) is priced by its atom term alone, 0 as
        # t - 4 k < 0, and the atom (40000, 20000, 0.6) by t - 4 k.
        got = discrete_dist.tail_integral(np.array([30000.0, 29999.0]), 4.0, 0.0, never_capped)
        assert got[0] == pytest.approx(0.6 * (30000.0 - 80000.0))
        assert got[1] == pytest.approx(0.4 * (29999.0 - 40000.0) + 0.6 * (29999.0 - 80000.0))

    def test_discrete_caps_only_the_strict_tail(self, discrete_dist):
        # ratio 4 caps both atoms at t = 30000: the one above takes capped,
        # the one at t its atom term max(t - slope k, 0) all the same.
        got = discrete_dist.tail_integral(np.array([30000.0]), 1.0, 4.0, lambda k, t: -k)
        assert got[0] == pytest.approx(0.6 * -20000.0 + 0.4 * (30000.0 - 10000.0))


class TestDiscrete:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            DiscreteTypes([(0.1, 1000.0, 0.5), (0.2, 2000.0, 0.4)])

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            DiscreteTypes([(0.1, 1000.0, 1.5), (0.2, 2000.0, -0.5)])

    def test_alpha_above_survival_cap_rejected(self):
        from remenu import ExponentialFamily

        fam = ExponentialFamily(point_mass_zero=0.5)
        with pytest.raises(DomainError):
            DiscreteTypes([(0.7, 1000.0, 1.0)], fam)

    def test_atoms_at(self, discrete_dist):
        # At the top level t no atom lies above: J is the atom term
        # w max(t - slope k, 0) of the atom at a == t, here (t, 20000, 0.6),
        # whatever the cap ratio, and 0 above every atom.
        t = float(discrete_dist.levels[-1])

        def at_only(slope, level, ratio=0.0):
            return float(discrete_dist.tail_integral(np.array([level]), slope, ratio, never_capped)[0])

        assert at_only(0.0, t) == 0.6 * t
        assert at_only(1.5, t) == 0.6 * (t - 30000.0)
        assert at_only(1.5, t, ratio=3.0) == 0.6 * (t - 30000.0)
        assert at_only(2.5, t) == 0.0
        assert at_only(0.0, t + 1000.0) == 0.0

    def test_sampling_frequencies(self, discrete_dist):
        rng = np.random.default_rng(11)
        a, k = discrete_dist.sample(20000, rng)
        frac = float(np.mean(k == 20000.0))
        assert frac == pytest.approx(0.6, abs=0.02)


class TestValidation:
    def test_bad_k_bounds(self):
        with pytest.raises(DomainError):
            ProductUniform(25000.0, 5000.0, ALPHA_LO, ALPHA_HI)

    def test_bad_alpha_bounds(self):
        with pytest.raises(DomainError):
            ProductUniform(5000.0, 25000.0, ALPHA_HI, ALPHA_LO)

    def test_alpha_must_stay_below_survival_cap(self):
        from remenu import ExponentialFamily

        with pytest.raises(DomainError):
            ProductUniform(5000.0, 25000.0, 0.1, 0.6, ExponentialFamily(point_mass_zero=0.5))

    @pytest.mark.parametrize(
        "build",
        [
            lambda fam: ProductUniform(5000.0, 25000.0, ALPHA_LO, ALPHA_HI, fam),
            lambda fam: DegenerateAlpha(5000.0, 25000.0, ALPHA_LO, fam),
            lambda fam: DiscreteTypes([(ALPHA_LO, 5000.0, 1.0)], fam),
        ],
        ids=["product", "degenerate", "discrete"],
    )
    def test_uniform_k_needs_a_scale_family(self, build):
        # A loss, not a family k -> X_k.
        with pytest.raises(DomainError, match="ScaleFamily"):
            build(ExponentialLoss(5000.0))
