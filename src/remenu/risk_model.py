"""Loss distributions, concave distortions, and the reinsurer's cost functional.

The cost of carrying an indemnified loss Y is
    H[Y] = (1 + theta) * integral of h(survival_Y(y)) dy,
with h a concave distortion.  Two derived per-loss quantities drive every
menu rule:

* ``theta_star``: the unconstrained optimal stop-loss deductible, i.e. the
  distorted quantile where h(survival(d)) crosses 1 / (1 + theta);
* ``xi``: the break-even risk level theta_star + H[(X - theta_star)_+].

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedError
from .quadrature import first_true, tail_gauss

_CONCAVITY_TOL = 1e-12


@dataclass(frozen=True)
class Distortion:
    """Concave distortion h on [0, 1] with h(0) = 0 and h(1) = 1.

    Supported kinds: identity, power (h(u) = u**c, Wang's proportional
    hazard transform), and tabulated (piecewise linear through given
    concave knots).
    """

    kind: str
    exponent: float = 1.0
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.is_exponent_form:
            if not 0.0 < self.exponent <= 1.0:
                raise DomainError(f"distortion exponent must lie in (0, 1], got {self.exponent}")
            if self.kind == "identity" and self.exponent != 1.0:
                raise DomainError("identity distortion takes no exponent")
        elif self.kind == "tabulated":
            xs, ys = np.asarray(self.xs, float), np.asarray(self.ys, float)
            if len(xs) < 2 or len(xs) != len(ys):
                raise DomainError("tabulated distortion needs matching knot arrays")
            if xs[0] != 0.0 or ys[0] != 0.0 or xs[-1] != 1.0 or ys[-1] != 1.0:
                raise DomainError("tabulated distortion must run from (0,0) to (1,1)")
            dx = np.diff(xs)
            if np.any(dx <= 0.0):
                raise DomainError("tabulated distortion knots must be strictly increasing in x")
            dy = np.diff(ys)
            if np.any(dy < -_CONCAVITY_TOL):
                raise DomainError("tabulated distortion must be nondecreasing")
            slopes = dy / dx
            if np.any(np.diff(slopes) > _CONCAVITY_TOL):
                raise DomainError("tabulated distortion must be concave")
        else:
            raise DomainError(f"unknown distortion kind {self.kind!r}")

    @classmethod
    def identity(cls) -> "Distortion":
        return cls("identity")

    @classmethod
    def power(cls, c: float) -> "Distortion":
        return cls("power", exponent=c)

    @classmethod
    def tabulated(cls, points: list[tuple[float, float]]) -> "Distortion":
        xs, ys = zip(*points)
        return cls("tabulated", xs=tuple(map(float, xs)), ys=tuple(map(float, ys)))

    @property
    def is_exponent_form(self) -> bool:
        return self.kind in ("identity", "power")

    def __call__(self, u):
        u = np.clip(u, 0.0, 1.0)
        if self.is_exponent_form:
            c = self.exponent
            return u if c == 1.0 else np.power(u, c)
        return np.interp(u, self.xs, self.ys)


class LossModel:
    """Interface for a nonnegative loss with survival F_bar, optionally a
    point mass at zero, and quantiles above it."""

    point_mass_zero: float = 0.0
    support_hi: float = math.inf

    def survival(self, y):
        raise NotImplementedError

    def var(self, alpha):
        """VaR_alpha(X), the smallest y with survival(y) <= alpha; alpha may be
        an array."""
        raise NotImplementedError

    def scaled(self, s: float) -> "LossModel":
        """The loss s * X for a scale s > 0."""
        raise NotImplementedError

    def _check_alpha(self, alpha) -> None:
        cap = 1.0 - self.point_mass_zero
        if np.isscalar(alpha):
            lo = hi = alpha
        else:
            lo, hi = np.min(alpha, initial=math.inf), np.max(alpha, initial=-math.inf)
        if not (0.0 < lo and hi < cap):
            raise DomainError(f"alpha={hi if 0.0 < lo else lo} outside (0, 1 - F(0)) = (0, {cap})")


@dataclass(frozen=True)
class ExponentialLoss(LossModel):
    """Exponential loss with mean ``mean``, optionally atom at 0."""

    mean: float
    point_mass_zero: float = 0.0

    def __post_init__(self) -> None:
        if self.mean <= 0.0:
            raise DomainError(f"mean must be positive, got {self.mean}")
        if not 0.0 <= self.point_mass_zero < 1.0:
            raise DomainError("point mass at zero must lie in [0, 1)")

    def survival(self, y):
        y = np.asarray(y, dtype=float)
        s = (1.0 - self.point_mass_zero) * np.exp(-np.maximum(y, 0.0) / self.mean)
        return np.where(y < 0.0, 1.0, s)

    def var(self, alpha):
        self._check_alpha(alpha)
        return -self.mean * np.log(alpha / (1.0 - self.point_mass_zero))

    def scaled(self, s: float) -> "ExponentialLoss":
        return ExponentialLoss(s * self.mean, self.point_mass_zero)


@dataclass(frozen=True)
class GenericLoss(LossModel):
    """Loss given by a survival-function handle.

    The survival function must be nonincreasing and right-continuous; the
    distribution must be strictly increasing and continuous on its support
    above zero (quantiles are found by monotone bisection).
    """

    survival_fn: Callable[[float], float]
    support_hi: float = math.inf
    point_mass_zero: float = 0.0

    def survival(self, y):
        y = np.asarray(y, dtype=float)
        vals = np.vectorize(self.survival_fn, otypes=[float])(np.maximum(y, 0.0))
        return np.where(y < 0.0, 1.0, np.clip(vals, 0.0, 1.0))

    def var(self, alpha):
        self._check_alpha(alpha)
        return np.vectorize(self._quantile, otypes=[float])(alpha)[()]

    def _quantile(self, alpha: float) -> float:
        y = first_true(lambda y: self.survival_fn(y) <= alpha, hi=self.support_hi)
        if math.isinf(y):
            raise DomainError("survival never falls below alpha; quantile undefined")
        return y

    def scaled(self, s: float) -> "GenericLoss":
        fn = self.survival_fn
        return GenericLoss(lambda y: fn(y / s), self.support_hi * s, self.point_mass_zero)


@dataclass(frozen=True)
class CostFunctional:
    """H[Y] = (1 + theta) * int h(survival_Y) dy and derived quantities."""

    theta: float
    distortion: Distortion = field(default_factory=Distortion.identity)

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < math.inf:
            raise DomainError(f"loading theta must be positive and finite, got {self.theta}")

    @property
    def target(self) -> float:
        """Survival-distortion level 1/(1+theta) at which B_X'(d) vanishes."""
        return 1.0 / (1.0 + self.theta)

    def _closed_forms(self, loss: LossModel) -> tuple[float, Callable] | None:
        """(theta*, vectorized d -> H[(X - d)_+]) in closed form for an
        exponential loss under an exponent-form distortion; None otherwise."""
        if not (isinstance(loss, ExponentialLoss) and self.distortion.is_exponent_form):
            return None
        c, k, p0 = self.distortion.exponent, loss.mean, loss.point_mass_zero
        amp = (1.0 + self.theta) * (1.0 - p0) ** c

        def tail(d):
            d = np.asarray(d, dtype=float)
            with np.errstate(over="ignore"):
                out = amp * (k / c) * np.exp(-c * np.minimum(d, 1e308) / k)
            return np.where(np.isinf(d), 0.0, out)

        theta_star = (k / c) * math.log1p(self.theta) + k * math.log(1.0 - p0)
        return max(theta_star, 0.0), tail

    # -- tail cost -------------------------------------------------------

    def tail(self, loss: LossModel) -> Callable:
        """Vectorized d -> H[(X - d)_+]: the closed form where one exists,
        one tail_gauss integral at each d otherwise."""
        closed = self._closed_forms(loss)
        if closed is not None:
            return closed[1]
        return np.vectorize(lambda d: self.stop_loss_cost(loss, float(d)), otypes=[float])

    def stop_loss_cost(self, loss: LossModel, d: float) -> float:
        """H[(X - d)_+] = (1+theta) * int_d^inf h(survival(y)) dy."""
        if d != d or d < 0.0:
            raise DomainError(f"deductible must be >= 0, got {d}")
        if math.isinf(d):
            return 0.0
        closed = self._closed_forms(loss)
        if closed is not None:
            return float(closed[1](d))
        return (1.0 + self.theta) * self._tail_integral(loss, d)

    def _tail_integral(self, loss: LossModel, d: float) -> float:
        """int_d^hi h(survival(y)) dy by tail_gauss, scaled by the median excess
        over d (by d - VaR_2top(X) where top = survival(d) is the smallest
        subnormal and top / 2 is 0) and split at the kinks VaR_u(X) of a
        tabulated h."""
        top = float(loss.survival(d))
        if top == 0.0 or d >= loss.support_hi:
            return 0.0
        half = 0.5 * top
        try:
            scale = float(loss.var(half)) - d if half > 0.0 else d - float(loss.var(2.0 * top))
        except DomainError:  # survival stays above top / 2: halve toward hi, or diverge
            scale = math.inf
        h = self.distortion
        kinks = loss.var(np.array([u for u in h.xs[1:-1] if u < top]))
        return tail_gauss(lambda y: h(loss.survival(y)), d, loss.support_hi, scale, kinks)

    def full_cost(self, loss: LossModel) -> float:
        """H[X] = stop-loss cost at deductible 0."""
        return self.stop_loss_cost(loss, 0.0)

    # -- derived quantities ---------------------------------------------

    def theta_star(self, loss: LossModel) -> float:
        """Smallest d with h(survival(d)) <= 1/(1+theta); +inf if none exists
        up to the support bound."""
        closed = self._closed_forms(loss)
        if closed is not None:
            return closed[0]
        return first_true(
            lambda d: float(self.distortion(loss.survival(d))) <= self.target, hi=loss.support_hi
        )

    def xi(self, loss: LossModel) -> float:
        """Break-even risk level theta* + H[(X - theta*)_+]."""
        d = self.theta_star(loss)
        if math.isinf(d):
            raise UnsupportedError("xi is undefined when theta_star is infinite")
        return d + self.stop_loss_cost(loss, d)


# -- loss families (k -> LossModel) -------------------------------------


@dataclass(frozen=True)
class ScaleFamily:
    """k -> the loss k * X_1 for a base loss X_1.

    Quantiles and survival follow from the base, VaR_alpha(X_k) being
    k VaR_alpha(X_1), and KProfile prices every X_k from it by positive
    homogeneity of H.
    """

    base: LossModel

    @property
    def point_mass_zero(self) -> float:
        return self.base.point_mass_zero

    def var(self, alpha, k):
        return np.asarray(k, dtype=float) * self.base.var(alpha)

    def survival(self, y, k):
        return self.base.survival(np.asarray(y, dtype=float) / np.asarray(k, dtype=float))


class ExponentialFamily(ScaleFamily):
    """k -> exponential loss with mean k (optionally a common atom at 0)."""

    def __init__(self, point_mass_zero: float = 0.0):
        super().__init__(ExponentialLoss(1.0, point_mass_zero))


@dataclass(frozen=True)
class GenericFamily:
    """k -> LossModel through an arbitrary builder callable, one k at a time.

    Discrete markets take it; the uniform-k markets take only a ScaleFamily,
    whose quantiles and theta*_k are k times the base's.
    """

    builder: Callable[[float], LossModel]

    def model(self, k: float) -> LossModel:
        return self.builder(k)

    def var(self, alpha, k):
        alpha, k = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(k, float))
        out = np.empty(k.shape)
        for i in np.ndindex(k.shape):
            out[i] = self.model(float(k[i])).var(float(alpha[i]))
        return out


class KProfile:
    """Vectorized theta*_k, xi_k, H[X_k] and H[(X_k - d)_+] across k.

    On a ScaleFamily, positive homogeneity H[cY] = c H[Y] prices X_k = k X_1
    from the base: theta*_k, xi_k and H[X_k] are k times their base values,
    computed once, and H[(X_k - d)_+] = k T(d / k) with T the base's
    vectorized tail cost.  Other families, on discrete markets only, go
    through the scalar CostFunctional one k at a time, each quantity
    memoized on its own.
    """

    def __init__(self, cost: CostFunctional, family: ScaleFamily | GenericFamily):
        self.cost = cost
        self.family = family
        self._base = family.base if isinstance(family, ScaleFamily) else None
        self._tail = None if self._base is None else cost.tail(self._base)
        self._memo: dict[str, dict] = {"theta_star": {}, "xi": {}, "full_cost": {}}

    def _scalar(self, name: str, k: float | None) -> float:
        """theta_star, xi or full_cost of X_k (of the base for k None), memoized."""
        memo = self._memo[name]
        got = memo.get(k)
        if got is None:
            loss = self._base if k is None else self.family.model(k)
            if name == "xi":
                ts = self._scalar("theta_star", k)
                got = ts + self.cost.stop_loss_cost(loss, ts) if math.isfinite(ts) else math.inf
            else:
                got = getattr(self.cost, name)(loss)
            memo[k] = got
        return got

    def _across(self, name: str, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        if self._base is not None:
            return k * self._scalar(name, None)
        return np.array([self._scalar(name, float(ki)) for ki in k.ravel()]).reshape(k.shape)

    def theta_star(self, k):
        return self._across("theta_star", k)

    def sup_theta_star(self, ks) -> float:
        """max theta*_k over the k values ks, such as a market's k_ends."""
        return float(np.max(self.theta_star(ks)))

    def xi(self, k):
        return self._across("xi", k)

    def full_cost(self, k):
        return self._across("full_cost", k)

    def stop_loss_cost(self, k, d):
        """H[(X_k - d)_+]; d may be scalar or an array matching k."""
        k = np.asarray(k, dtype=float)
        if self._tail is not None:
            return k * self._tail(d / k)
        d = np.broadcast_to(np.asarray(d, dtype=float), k.shape)
        flat = [
            self.cost.stop_loss_cost(self.family.model(float(ki)), float(di))
            for ki, di in zip(k.ravel(), d.ravel())
        ]
        return np.array(flat).reshape(k.shape)
