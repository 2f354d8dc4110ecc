"""Loss distributions, concave distortions, and the reinsurer's cost functional.

The cost of carrying an indemnified loss Y is
    H[Y] = (1 + theta) * integral of h(survival_Y(y)) dy,
with h a concave distortion.  Two derived per-loss quantities drive every
menu rule:

* ``theta_star``: the unconstrained optimal stop-loss deductible, i.e. the
  distorted quantile where h(survival(d)) crosses 1 / (1 + theta);
* ``xi``: the break-even risk level theta_star + H[(X - theta_star)_+].

Without a closed form, every quantity is priced on arrays: a survival
function maps an array of losses to an array, quantiles and theta* come from
quadrature.first_true's exact search over the floats, and H[(X - d)_+] at a
whole array of d from one quadrature.tail_gauss call.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedError
from .quadrature import first_true, tail_gauss

_CONCAVITY_TOL = 1e-12
_SEARCH_ROWS = 1024  # quantiles per first_true call; bounds its memory


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
        u = np.minimum(np.maximum(u, 0.0), 1.0)
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

    def var(self, alpha, out=None):
        """VaR_alpha(X), the smallest y with survival(y) <= alpha; alpha may be
        an array, and an array out of its shape (alpha itself, say) takes the
        result."""
        raise NotImplementedError

    def _quantile(self, alpha):
        """var without its checks, +inf where survival never falls to alpha."""
        return self.var(alpha)

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
        if not 0.0 < self.mean < math.inf:
            raise DomainError(f"mean must be positive and finite, got {self.mean}")
        if not 0.0 <= self.point_mass_zero < 1.0:
            raise DomainError(f"point_mass_zero must lie in [0, 1), got {self.point_mass_zero}")

    def survival(self, y):
        y = np.asarray(y, dtype=float)
        s = (1.0 - self.point_mass_zero) * np.exp(-np.maximum(y, 0.0) / self.mean)
        return np.where(y < 0.0, 1.0, s)

    def var(self, alpha, out=None):
        self._check_alpha(alpha)
        p0 = self.point_mass_zero
        u = np.divide(alpha, 1.0 - p0, out=out) if p0 else alpha  # alpha / 1.0 is alpha
        return np.multiply(np.log(u, out=out), -self.mean, out=out)

    def scaled(self, s: float) -> "ExponentialLoss":
        return ExponentialLoss(s * self.mean, self.point_mass_zero)


@dataclass(frozen=True)
class GenericLoss(LossModel):
    """Loss given by a survival-function handle.

    survival_fn maps a numpy array of losses y >= 0 to the array of their
    survival probabilities (a constant return broadcasts); the loss is
    checked on a small array when it is built.  The survival function must
    be nonincreasing and right-continuous; the distribution must be strictly
    increasing and continuous on its support above zero (quantiles are the
    smallest floats where it falls to alpha, found by first_true).  The
    support ends at support_hi >= 0 (inf allowed); point_mass_zero lies in [0, 1].
    """

    survival_fn: Callable[[np.ndarray], np.ndarray]
    support_hi: float = math.inf
    point_mass_zero: float = 0.0

    def __post_init__(self) -> None:
        if not self.support_hi >= 0.0:
            raise DomainError(f"support_hi must be >= 0, got {self.support_hi}")
        if not 0.0 <= self.point_mass_zero <= 1.0:
            raise DomainError(f"point_mass_zero must lie in [0, 1], got {self.point_mass_zero}")
        probe = np.array([0.0, 0.5, 1.0]) * min(1.0, self.support_hi)
        try:
            np.broadcast_to(np.asarray(self.survival_fn(probe), dtype=float), probe.shape)
        except (TypeError, ValueError) as exc:  # numpy's, on a scalar-only function or a wrong shape
            raise DomainError(
                "survival_fn must map a numpy array of losses to an array of the same shape "
                f"(or a constant); on {probe!r} it raised {type(exc).__name__}: {exc}"
            ) from exc

    def survival(self, y):
        y = np.asarray(y, dtype=float)
        vals = np.asarray(self.survival_fn(np.maximum(y, 0.0)), dtype=float)
        return np.where(y < 0.0, 1.0, np.minimum(np.maximum(vals, 0.0), 1.0))

    def var(self, alpha, out=None):
        self._check_alpha(alpha)
        y = self._quantile(alpha)
        if np.isinf(y).any():
            raise DomainError("survival never falls below alpha; quantile undefined")
        if out is None:
            return y[()]
        out[...] = y
        return out

    def _quantile(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        flat, out = alpha.reshape(-1, 1), np.empty(alpha.size)
        for s in range(0, len(flat), _SEARCH_ROWS):
            col = flat[s : s + _SEARCH_ROWS]
            hi = np.full(len(col), self.support_hi)
            out[s : s + _SEARCH_ROWS] = first_true(lambda y: self.survival_fn(y) <= col, hi)
        return out.reshape(alpha.shape)

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
        scale = (1.0 + self.theta) * (1.0 - p0) ** c * (k / c)  # H[X]

        def tail(d):
            d = np.asarray(d, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                out = scale * np.exp(-c * d / k)  # exp(-inf) = 0 prices d = inf
            return out if scale < math.inf else np.where(np.isinf(d), 0.0, out)  # inf * 0 there

        theta_star = (k / c) * math.log1p(self.theta) + k * math.log(1.0 - p0)
        return max(theta_star, 0.0), tail

    # -- tail cost -------------------------------------------------------

    def tail(self, loss: LossModel) -> Callable:
        """Vectorized d -> H[(X - d)_+]: the closed form where one exists,
        one tail_gauss call over every d otherwise."""
        closed = self._closed_forms(loss)
        return closed[1] if closed is not None else partial(self._tail_costs, loss)

    def stop_loss_cost(self, loss: LossModel, d: float) -> float:
        """H[(X - d)_+] = (1+theta) * int_d^inf h(survival(y)) dy."""
        if d != d or d < 0.0:
            raise DomainError(f"deductible must be >= 0, got {d}")
        return float(self.tail(loss)(d))

    def _tail_costs(self, loss: LossModel, d) -> np.ndarray:
        """H[(X - d)_+] at every d of an array, by one tail_gauss call over its
        distinct d: each row scaled by the median excess over its d (by
        d - VaR_2top(X) where top = survival(d) is the smallest subnormal and
        top / 2 is 0; by inf where that quantile is undefined, to halve toward
        hi or diverge) and split at the kinks VaR_u(X), u < top, of a tabulated h."""
        d = np.asarray(d, dtype=float)
        if not np.all(d >= 0.0):
            raise DomainError(f"deductible must be >= 0, got {np.min(d)}")
        x = np.unique(d) if d.size != 1 else d.reshape(1)  # one d, the usual call, needs no dedup
        top, out = loss.survival(x), np.zeros(x.shape)
        live = (top > 0.0) & (x < loss.support_hi)
        if live.any():
            x, top = x[live], top[live]
            half = 0.5 * top
            scale = np.abs(loss._quantile(np.where(half > 0.0, half, 2.0 * top)) - x)
            h = self.distortion
            knots = np.array([u for u in h.xs[1:-1] if u < top.max()])
            kinks = np.where(knots < top[:, None], loss.var(knots), math.nan) if len(knots) else ()
            tail = tail_gauss(lambda y: h(loss.survival(y)), x, loss.support_hi, scale, kinks)
            out[live] = (1.0 + self.theta) * tail
        return (out[np.searchsorted(x, d)] if d.size != 1 else out).reshape(d.shape)

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
        return first_true(lambda d: self.distortion(loss.survival(d)) <= self.target, loss.support_hi)

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

    def var(self, alpha, k, out=None):
        """k VaR_alpha(X_1); an array out of the result's shape (alpha itself,
        say) takes the result, and no other array is made."""
        k = np.asarray(k, dtype=float)
        if out is None:
            return k * self.base.var(alpha)
        return np.multiply(k, self.base.var(alpha, out=out), out=out)

    def survival(self, y, k):
        return self.base.survival(np.asarray(y, dtype=float) / np.asarray(k, dtype=float))


class ExponentialFamily(ScaleFamily):
    """k -> exponential loss with mean k (optionally a common atom at 0)."""

    def __init__(self, point_mass_zero: float = 0.0):
        super().__init__(ExponentialLoss(1.0, point_mass_zero))


def GenericFamily(builder: Callable[[float], LossModel]) -> ScaleFamily:
    """The ScaleFamily of builder(1.0), for a builder k -> X_k that is one:
    DomainError unless builder(2.0) survives 2y where builder(1.0) survives y."""
    base, y = builder(1.0), np.array([1e-2, 1.0, 1e2, 1e4, 1e6])  # probe losses
    if not np.allclose(builder(2.0).survival(2.0 * y), base.survival(y), rtol=1e-12, atol=0.0):
        raise DomainError("GenericFamily needs a scale family X_k = k X_1: builder(2.0) is not 2 * builder(1.0)")
    return ScaleFamily(base)


class KProfile:
    """Vectorized theta*_k, xi_k, H[X_k] and H[(X_k - d)_+] across k.

    Positive homogeneity H[cY] = c H[Y] prices X_k = k X_1 from the base:
    theta*_k, xi_k and H[X_k] are k times their base values, each computed
    once on first use, and H[(X_k - d)_+] = k T(d / k) with T the base's
    vectorized tail cost.
    """

    def __init__(self, cost: CostFunctional, family: ScaleFamily):
        self.cost = cost
        self.family = family
        self._tail = cost.tail(family.base)

    @cached_property
    def _theta_star_1(self) -> float:
        return self.cost.theta_star(self.family.base)

    @cached_property
    def _xi_1(self) -> float:
        ts = self._theta_star_1
        return ts + float(self._tail(ts)) if math.isfinite(ts) else math.inf

    @cached_property
    def _full_cost_1(self) -> float:
        return float(self._tail(0.0))

    def theta_star(self, k):
        return np.asarray(k, dtype=float) * self._theta_star_1

    def sup_theta_star(self, ks) -> float:
        """max theta*_k over the k values ks, such as a market's k_ends:
        max(ks) theta*_1, since theta*_1 >= 0 and rounding is monotone."""
        return float(max(ks)) * self._theta_star_1

    def xi(self, k):
        return np.asarray(k, dtype=float) * self._xi_1

    def full_cost(self, k):
        return np.asarray(k, dtype=float) * self._full_cost_1

    def stop_loss_cost(self, k, d):
        """H[(X_k - d)_+]; d may be scalar or an array matching k."""
        k = np.asarray(k, dtype=float)
        return k * self._tail(d / k)
