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

from .errors import DivergenceError, DomainError, UnsupportedError
from .quadrature import adaptive_simpson, monotone_crossing

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

    def var(self, alpha: float) -> float:
        raise NotImplementedError

    def _check_alpha(self, alpha: float) -> None:
        if not 0.0 < alpha < 1.0 - self.point_mass_zero:
            raise DomainError(
                f"alpha={alpha} outside (0, 1 - F(0)) = (0, {1.0 - self.point_mass_zero})"
            )


@dataclass(frozen=True)
class ExponentialLoss(LossModel):
    """Exponential loss with mean ``mean``, optionally atom at 0."""

    mean: float
    point_mass_zero: float = 0.0
    support_hi: float = math.inf

    def __post_init__(self) -> None:
        if self.mean <= 0.0:
            raise DomainError(f"mean must be positive, got {self.mean}")
        if not 0.0 <= self.point_mass_zero < 1.0:
            raise DomainError("point mass at zero must lie in [0, 1)")

    def survival(self, y):
        y = np.asarray(y, dtype=float)
        s = (1.0 - self.point_mass_zero) * np.exp(-np.maximum(y, 0.0) / self.mean)
        return np.where(y < 0.0, 1.0, s)

    def var(self, alpha: float) -> float:
        self._check_alpha(alpha)
        return -self.mean * math.log(alpha / (1.0 - self.point_mass_zero))


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

    def var(self, alpha: float) -> float:
        self._check_alpha(alpha)
        lo = 0.0
        if math.isfinite(self.support_hi):
            hi = self.support_hi
        else:
            hi = 1.0
            for _ in range(300):
                if self.survival_fn(hi) <= alpha:
                    break
                hi *= 2.0
            else:
                raise DomainError("survival never falls below alpha; quantile undefined")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.survival_fn(mid) <= alpha:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


def zero_loss() -> GenericLoss:
    """The degenerate loss X = 0 (all mass at zero)."""
    return GenericLoss(lambda y: 0.0, support_hi=0.0, point_mass_zero=1.0)


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

    # -- tail cost -------------------------------------------------------

    def stop_loss_cost(self, loss: LossModel, d: float) -> float:
        """H[(X - d)_+] = (1+theta) * int_d^inf h(survival(y)) dy."""
        if d != d or d < 0.0:
            raise DomainError(f"deductible must be >= 0, got {d}")
        if math.isinf(d):
            return 0.0
        if isinstance(loss, ExponentialLoss) and self.distortion.is_exponent_form:
            c = self.distortion.exponent
            k = loss.mean
            amp = (1.0 - loss.point_mass_zero) ** c
            return (1.0 + self.theta) * amp * (k / c) * math.exp(-c * d / k)
        return (1.0 + self.theta) * self._tail_integral(loss, d)

    def _tail_integral(self, loss: LossModel, d: float) -> float:
        h = self.distortion

        def g(y):
            return h(loss.survival(y))

        hi = loss.support_hi
        if math.isfinite(hi):
            if d >= hi:
                return 0.0
            return adaptive_simpson(g, d, hi, tol=1e-12)
        # Unbounded support: integrate out to the 1 - 1e-12 quantile, then
        # extend in doubling segments until the increment is negligible.
        q = max(loss.var(1e-12), d + 1.0)
        total = adaptive_simpson(g, d, q, tol=1e-12)
        left, width = q, q - d
        for _ in range(80):
            seg = adaptive_simpson(g, left, left + width, tol=1e-12)
            total += seg
            left += width
            width *= 2.0
            if abs(seg) <= 1e-13 * max(1.0, abs(total)):
                return total
        raise DivergenceError("distorted tail integral does not converge")

    def full_cost(self, loss: LossModel) -> float:
        """H[X] = stop-loss cost at deductible 0."""
        return self.stop_loss_cost(loss, 0.0)

    # -- derived quantities ---------------------------------------------

    def theta_star(self, loss: LossModel) -> float:
        """Smallest d with h(survival(d)) <= 1/(1+theta); +inf if none exists
        up to the support bound."""
        if isinstance(loss, ExponentialLoss) and self.distortion.is_exponent_form:
            c = self.distortion.exponent
            k = loss.mean
            d = (k / c) * math.log1p(self.theta) + k * math.log(1.0 - loss.point_mass_zero)
            return max(d, 0.0)

        def below(d: float) -> bool:
            return float(self.distortion(loss.survival(d))) <= self.target

        if below(0.0):
            return 0.0
        if math.isfinite(loss.support_hi):
            hi = loss.support_hi
            if not below(hi):
                return math.inf
            lo = 0.0
        else:
            lo, hi = 0.0, 1.0
            for _ in range(300):
                if below(hi):
                    break
                lo, hi = hi, hi * 2.0
            else:
                return math.inf
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if below(mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def xi(self, loss: LossModel) -> float:
        """Break-even risk level theta* + H[(X - theta*)_+]."""
        d = self.theta_star(loss)
        if math.isinf(d):
            raise UnsupportedError("xi is undefined when theta_star is infinite")
        return d + self.stop_loss_cost(loss, d)

    def b_curve(self, loss: LossModel, d: float) -> float:
        """B_X(d) = -d - H[(X - d)_+]; concave, maximized at theta_star."""
        if d != d or d < 0.0:
            raise DomainError(f"deductible must be >= 0, got {d}")
        if math.isinf(d):
            return -math.inf
        return -d - self.stop_loss_cost(loss, d)


# -- loss families (k -> LossModel) -------------------------------------


class LossFamily:
    """Maps a scale parameter k to a LossModel, with optional vectorized
    fast paths used by the quadrature layer."""

    has_pdf = False

    def model(self, k: float) -> LossModel:
        raise NotImplementedError

    def var(self, alpha: float, k):
        k = np.asarray(k, dtype=float)
        out = np.empty_like(k)
        for i, ki in np.ndenumerate(k):
            out[i] = self.model(float(ki)).var(alpha)
        return out

    def survival(self, y, k):
        y, k = np.broadcast_arrays(np.asarray(y, float), np.asarray(k, float))
        out = np.empty_like(y)
        for i in np.ndindex(y.shape):
            out[i] = float(self.model(float(k[i])).survival(float(y[i])))
        return out

    def k_for_var(self, alpha: float, a: float, k_lo: float, k_hi: float) -> float | None:
        """Solve var(alpha, k) = a for k in [k_lo, k_hi]; None if no crossing.

        Assumes var is monotone in k on the bracket (true for the supported
        scale families)."""
        return monotone_crossing(lambda k: float(self.var(alpha, k)), a, k_lo, k_hi)


@dataclass(frozen=True)
class ExponentialFamily(LossFamily):
    """k -> exponential loss with mean k (optionally a common atom at 0)."""

    point_mass_zero: float = 0.0
    has_pdf = True

    def model(self, k: float) -> ExponentialLoss:
        return ExponentialLoss(k, self.point_mass_zero)

    def var(self, alpha: float, k):
        scale = -math.log(alpha / (1.0 - self.point_mass_zero))
        if scale <= 0.0:
            raise DomainError(f"alpha={alpha} outside (0, 1 - F(0))")
        return np.asarray(k, dtype=float) * scale

    def survival(self, y, k):
        y = np.asarray(y, dtype=float)
        k = np.asarray(k, dtype=float)
        return (1.0 - self.point_mass_zero) * np.exp(-np.maximum(y, 0.0) / k)

    def pdf(self, y, k):
        y = np.asarray(y, dtype=float)
        k = np.asarray(k, dtype=float)
        return np.where(
            y < 0.0, 0.0, (1.0 - self.point_mass_zero) / k * np.exp(-np.maximum(y, 0.0) / k)
        )

    def k_for_var(self, alpha: float, a: float, k_lo: float, k_hi: float) -> float | None:
        scale = -math.log(alpha / (1.0 - self.point_mass_zero))
        k = a / scale
        return k if k_lo < k < k_hi else None


@dataclass(frozen=True)
class GenericFamily(LossFamily):
    """k -> LossModel through an arbitrary builder callable."""

    builder: Callable[[float], LossModel]

    def model(self, k: float) -> LossModel:
        return self.builder(k)


class KProfile:
    """Vectorized theta*_k, xi_k, and stop-loss costs across k.

    Uses closed forms for the exponential family with exponent-form
    distortions, and a cached per-k fallback otherwise.
    """

    def __init__(self, cost: CostFunctional, family: LossFamily):
        self.cost = cost
        self.family = family
        self.fast = isinstance(family, ExponentialFamily) and cost.distortion.is_exponent_form
        self._cache: dict[float, tuple[float, float, float]] = {}

    def _slow(self, k: float) -> tuple[float, float, float]:
        got = self._cache.get(k)
        if got is None:
            loss = self.family.model(k)
            ts = self.cost.theta_star(loss)
            xv = self.cost.xi(loss) if math.isfinite(ts) else math.inf
            fc = self.cost.full_cost(loss)
            got = (ts, xv, fc)
            self._cache[k] = got
        return got

    def theta_star(self, k):
        k = np.asarray(k, dtype=float)
        if self.fast:
            c = self.cost.distortion.exponent
            p0 = self.family.point_mass_zero
            d = (k / c) * math.log1p(self.cost.theta) + k * math.log(1.0 - p0)
            return np.maximum(d, 0.0)
        return np.array([self._slow(float(ki))[0] for ki in k.ravel()]).reshape(k.shape)

    def stop_loss_cost(self, k, d):
        """H[(X_k - d)_+]; d may be scalar or an array matching k."""
        k = np.asarray(k, dtype=float)
        d = np.broadcast_to(np.asarray(d, dtype=float), k.shape)
        if self.fast:
            c = self.cost.distortion.exponent
            p0 = self.family.point_mass_zero
            amp = (1.0 + self.cost.theta) * (1.0 - p0) ** c
            with np.errstate(over="ignore"):
                out = amp * (k / c) * np.exp(-c * np.minimum(d, 1e308) / k)
            return np.where(np.isinf(d), 0.0, out)
        flat = [
            self.cost.stop_loss_cost(self.family.model(float(ki)), float(di))
            for ki, di in zip(k.ravel(), d.ravel())
        ]
        return np.array(flat).reshape(k.shape)

    def xi(self, k):
        k = np.asarray(k, dtype=float)
        if self.fast:
            ts = self.theta_star(k)
            return ts + self.stop_loss_cost(k, ts)
        return np.array([self._slow(float(ki))[1] for ki in k.ravel()]).reshape(k.shape)

    def full_cost(self, k):
        k = np.asarray(k, dtype=float)
        if self.fast:
            return self.stop_loss_cost(k, 0.0)
        return np.array([self._slow(float(ki))[2] for ki in k.ravel()]).reshape(k.shape)
