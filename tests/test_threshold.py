import math

import pytest

from remenu import Contract, DiscreteTypes, change_loss, quota_share, stop_loss

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
            assert entry.contract.lam == float(served[i]) == menu.lam(a, k)
            assert entry.contract.deductible == d[i] == menu.deductible(a, k)
            assert entry.premium == premium[i] == menu.premium(a, k)
            if not served[i]:
                assert entry.contract == Contract.null(kind)
            if a == tau:
                kink_outcomes.add(bool(served[i]))
    assert kink_outcomes == {True, False}
