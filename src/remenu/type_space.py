"""Agent-type distributions and quadrature of functionals against them.

A source type is a pair (alpha, k): the agent's VaR level and loss scale.
Its transformed representation is (a, k) with a = VaR_alpha(X_k), which is
the coordinate system all menu rules live in.  Three distribution variants
are supported:

* ``ProductUniform``   - k ~ U(k_lo, k_hi) independent of alpha ~ U(lo, hi);
* ``DegenerateAlpha``  - k ~ U(k_lo, k_hi) with a single fixed alpha;
* ``DiscreteTypes``    - finitely many weighted (alpha, k) atoms.

Integration is deterministic: 256-node Gauss-Legendre in k (piecewise, with
forced splits where an a-breakpoint crosses the conditional a-support) and
batched adaptive Simpson in a conditionally on k.  Integrands must accept
numpy arrays broadcast over (a, k).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .quadrature import (
    adaptive_gauss_batched,
    gauss_legendre,
    golden_section_max,
    piecewise_gauss,
    split_edges,
)
from .risk_model import ExponentialFamily, LossFamily

_WEIGHT_TOL = 1e-12


class TransformedType(NamedTuple):
    a: float
    k: float


class TypeDistribution:
    """Common interface: transform, support bounds, quadrature, sampling."""

    family: LossFamily
    outer_nodes: int
    simpson_tol: float

    def transform(self, alpha: float, k: float) -> TransformedType:
        if not self.in_support(alpha, k):
            raise DomainError(f"type (alpha={alpha}, k={k}) lies outside the support")
        return TransformedType(float(self.family.var(alpha, k)), float(k))

    def in_support(self, alpha: float, k: float) -> bool:
        raise NotImplementedError

    def lower_support(self) -> float:
        """Infimum of the transformed risk level a over the support."""
        raise NotImplementedError

    def upper_support(self) -> float:
        raise NotImplementedError

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        """Deterministic quadrature of int f(a, k) dQ."""
        raise NotImplementedError

    def tail_integral(self, g, t: float, k_splits: Sequence[float] = ()) -> float:
        """int g(k) 1{a > t} dQ with the indicator handled exactly.

        g is a vectorized function of k; k_splits are extra forced k-splits
        (e.g. where a solver integrand has a kink in k).
        """
        raise NotImplementedError

    def atoms_at(self, t: float) -> list[tuple[float, float, float]]:
        """Atoms (a, k, weight) sitting exactly at a = t (discrete only)."""
        return []

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


def _minmax_over_k(fn, k_lo: float, k_hi: float, want_min: bool) -> float:
    sign = -1.0 if want_min else 1.0
    grid = np.linspace(k_lo, k_hi, 1025)
    vals = sign * np.asarray(fn(grid), dtype=float)
    i = int(np.argmax(vals))
    best_v = float(vals[i])
    blo = float(grid[max(i - 1, 0)])
    bhi = float(grid[min(i + 1, len(grid) - 1)])
    if bhi > blo:
        _, v = golden_section_max(
            lambda t: sign * float(np.asarray(fn(np.array([t])), dtype=float)[0]),
            blo,
            bhi,
            1e-12,
        )
        best_v = max(best_v, v)
    return sign * best_v


class _UniformK(TypeDistribution):
    """Shared machinery for the variants with k ~ U(k_lo, k_hi)."""

    def __init__(
        self,
        k_lo: float,
        k_hi: float,
        family: LossFamily | None,
        outer_nodes: int,
        simpson_tol: float,
    ):
        if not 0.0 < k_lo < k_hi:
            raise DomainError(f"need 0 < k_lo < k_hi, got ({k_lo}, {k_hi})")
        self.k_lo = float(k_lo)
        self.k_hi = float(k_hi)
        self.family = family if family is not None else ExponentialFamily()
        self.outer_nodes = int(outer_nodes)
        self.simpson_tol = float(simpson_tol)

    def _k_density(self) -> float:
        return 1.0 / (self.k_hi - self.k_lo)

    def _k_breaks_for(self, points: Sequence[float]) -> list[float]:
        """k values where the a-support edge of an edge alpha crosses a point."""
        ks: list[float] = []
        for t in points:
            if not math.isfinite(t):
                continue
            for alpha in self._edge_alphas:
                got = self.family.k_for_var(alpha, t, self.k_lo, self.k_hi)
                if got is not None:
                    ks.append(got)
        return ks


class ProductUniform(_UniformK):
    """k ~ U(k_lo, k_hi) independent of alpha ~ U(alpha_lo, alpha_hi)."""

    def __init__(
        self,
        k_lo: float,
        k_hi: float,
        alpha_lo: float,
        alpha_hi: float,
        family: LossFamily | None = None,
        outer_nodes: int = 256,
        simpson_tol: float = 1e-10,
    ):
        super().__init__(k_lo, k_hi, family, outer_nodes, simpson_tol)
        if not 0.0 < alpha_lo < alpha_hi < 1.0:
            raise DomainError(f"need 0 < alpha_lo < alpha_hi < 1, got ({alpha_lo}, {alpha_hi})")
        p0 = getattr(self.family, "point_mass_zero", 0.0)
        if alpha_hi >= 1.0 - p0:
            raise DomainError("alpha_hi must stay below 1 - F(0) for every k")
        self.alpha_lo = float(alpha_lo)
        self.alpha_hi = float(alpha_hi)
        self._edge_alphas = (self.alpha_lo, self.alpha_hi)

    def in_support(self, alpha: float, k: float) -> bool:
        return self.alpha_lo <= alpha <= self.alpha_hi and self.k_lo <= k <= self.k_hi

    def a_bounds_given_k(self, k):
        """Conditional a-support [a_min(k), a_max(k)] (a decreases in alpha)."""
        return self.family.var(self.alpha_hi, k), self.family.var(self.alpha_lo, k)

    def lower_support(self) -> float:
        return _minmax_over_k(
            lambda k: self.family.var(self.alpha_hi, k), self.k_lo, self.k_hi, True
        )

    def upper_support(self) -> float:
        return _minmax_over_k(
            lambda k: self.family.var(self.alpha_lo, k), self.k_lo, self.k_hi, False
        )

    def conditional_tail(self, k, t: float):
        """P(a > t | k) for the uniform alpha pushforward."""
        sv = self.family.survival(t, k)
        return np.clip((sv - self.alpha_lo) / (self.alpha_hi - self.alpha_lo), 0.0, 1.0)

    def tail_integral(self, g, t: float, k_splits: Sequence[float] = ()) -> float:
        if math.isinf(t):
            return 0.0
        dens = self._k_density()
        edges = split_edges(self.k_lo, self.k_hi, [*self._k_breaks_for([t]), *k_splits])

        def integrand(k):
            return np.asarray(g(k), dtype=float) * self.conditional_tail(k, t) * dens

        return piecewise_gauss(integrand, edges, self.outer_nodes)

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        bps = sorted({float(b) for b in breakpoints if math.isfinite(b)})
        dens = self._k_density()
        edges = split_edges(self.k_lo, self.k_hi, self._k_breaks_for(bps))
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi <= lo:
                continue
            k, w = gauss_legendre(lo, hi, self.outer_nodes)
            total += float(np.dot(w, self._inner(f, k, bps))) * dens
        return total

    def _inner(self, f, k: np.ndarray, bps: list[float]) -> np.ndarray:
        """E[f(a, k) | k] for each node in k, as a vector."""
        a_lo, a_hi = self.a_bounds_given_k(k)
        a_lo = np.asarray(a_lo, float)
        a_hi = np.asarray(a_hi, float)
        alpha_w = self.alpha_hi - self.alpha_lo
        cuts = [a_lo] + [np.clip(np.full_like(a_lo, b), a_lo, a_hi) for b in bps] + [a_hi]
        cuts = [np.minimum(np.maximum(c, a_lo), a_hi) for c in cuts]
        # enforce monotone segment boundaries
        for i in range(1, len(cuts)):
            cuts[i] = np.maximum(cuts[i], cuts[i - 1])
        out = np.zeros_like(a_lo)
        if self.family.has_pdf:
            kcol = k[:, None]

            def seg_f(x, _k=kcol):
                dens_a = self.family.pdf(x, _k) / alpha_w
                return np.asarray(f(x, np.broadcast_to(_k, x.shape)), dtype=float) * dens_a

            for lo_c, hi_c in zip(cuts[:-1], cuts[1:]):
                out += adaptive_gauss_batched(seg_f, lo_c, hi_c, tol=self.simpson_tol)
        else:
            # No analytic a-density: substitute back to alpha coordinates.
            for i, ki in enumerate(k):
                loss = self.family.model(float(ki))
                alpha_cuts = sorted(
                    {self.alpha_lo, self.alpha_hi}
                    | {
                        float(np.clip(loss.survival(b), self.alpha_lo, self.alpha_hi))
                        for b in bps
                    }
                )

                def seg_f(al, _loss=loss, _ki=float(ki)):
                    a_vals = np.array([[_loss.var(float(x)) for x in al.ravel()]]).reshape(al.shape)
                    return np.asarray(f(a_vals, np.full_like(a_vals, _ki)), dtype=float) / alpha_w

                acc = 0.0
                for lo_c, hi_c in zip(alpha_cuts[:-1], alpha_cuts[1:]):
                    acc += float(
                        adaptive_gauss_batched(
                            seg_f, np.array([lo_c]), np.array([hi_c]), tol=self.simpson_tol
                        )[0]
                    )
                out[i] = acc
        return out

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        k = rng.uniform(self.k_lo, self.k_hi, n)
        alpha = rng.uniform(self.alpha_lo, self.alpha_hi, n)
        if isinstance(self.family, ExponentialFamily):
            a = k * -np.log(alpha / (1.0 - self.family.point_mass_zero))
        else:
            a = np.array(
                [float(self.family.var(float(al), float(ki))) for al, ki in zip(alpha, k)]
            )
        return a, k


class DegenerateAlpha(_UniformK):
    """k ~ U(k_lo, k_hi) with alpha fixed at alpha0."""

    def __init__(
        self,
        k_lo: float,
        k_hi: float,
        alpha0: float,
        family: LossFamily | None = None,
        outer_nodes: int = 256,
        simpson_tol: float = 1e-10,
    ):
        super().__init__(k_lo, k_hi, family, outer_nodes, simpson_tol)
        if not 0.0 < alpha0 < 1.0:
            raise DomainError(f"alpha0 must lie in (0, 1), got {alpha0}")
        p0 = getattr(self.family, "point_mass_zero", 0.0)
        if alpha0 >= 1.0 - p0:
            raise DomainError("alpha0 must stay below 1 - F(0)")
        self.alpha0 = float(alpha0)
        self._edge_alphas = (self.alpha0,)

    def in_support(self, alpha: float, k: float) -> bool:
        return alpha == self.alpha0 and self.k_lo <= k <= self.k_hi

    def a_of_k(self, k):
        return self.family.var(self.alpha0, k)

    def lower_support(self) -> float:
        return _minmax_over_k(self.a_of_k, self.k_lo, self.k_hi, True)

    def upper_support(self) -> float:
        return _minmax_over_k(self.a_of_k, self.k_lo, self.k_hi, False)

    def tail_integral(self, g, t: float, k_splits: Sequence[float] = ()) -> float:
        if math.isinf(t):
            return 0.0
        dens = self._k_density()
        edges = split_edges(self.k_lo, self.k_hi, [*self._k_breaks_for([t]), *k_splits])
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi <= lo:
                continue
            mid_a = float(np.asarray(self.a_of_k(np.array([0.5 * (lo + hi)])), float)[0])
            if mid_a <= t:
                continue
            k, w = gauss_legendre(lo, hi, self.outer_nodes)
            total += float(np.dot(w, np.asarray(g(k), dtype=float))) * dens
        return total

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        bps = sorted({float(b) for b in breakpoints if math.isfinite(b)})
        dens = self._k_density()
        edges = split_edges(self.k_lo, self.k_hi, self._k_breaks_for(bps))

        def integrand(k):
            a = np.asarray(self.a_of_k(k), dtype=float)
            return np.asarray(f(a, k), dtype=float) * dens

        return piecewise_gauss(integrand, edges, self.outer_nodes)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        k = rng.uniform(self.k_lo, self.k_hi, n)
        a = np.asarray(self.a_of_k(k), dtype=float)
        return a, k


class DiscreteTypes(TypeDistribution):
    """Finitely many weighted atoms (alpha, k, weight)."""

    def __init__(
        self,
        atoms: Sequence[tuple[float, float, float]],
        family: LossFamily | None = None,
    ):
        if not atoms:
            raise DomainError("discrete type distribution needs at least one atom")
        self.family = family if family is not None else ExponentialFamily()
        self.outer_nodes = 0
        self.simpson_tol = 0.0
        self.alphas = np.array([x[0] for x in atoms], dtype=float)
        self.ks = np.array([x[1] for x in atoms], dtype=float)
        self.weights = np.array([x[2] for x in atoms], dtype=float)
        if np.any(self.weights < 0.0):
            raise DomainError("atom weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"atom weights must sum to 1, got {self.weights.sum()}")
        for alpha, k in zip(self.alphas, self.ks):
            loss = self.family.model(float(k))
            if not 0.0 < alpha < 1.0 - loss.point_mass_zero:
                raise DomainError(f"atom alpha={alpha} violates alpha < 1 - F_k(0)")
        self.a_vals = np.array(
            [float(self.family.var(float(al), float(k))) for al, k in zip(self.alphas, self.ks)]
        )

    def in_support(self, alpha: float, k: float) -> bool:
        return bool(np.any((self.alphas == alpha) & (self.ks == k)))

    def lower_support(self) -> float:
        return float(self.a_vals.min())

    def upper_support(self) -> float:
        return float(self.a_vals.max())

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        vals = np.asarray(f(self.a_vals, self.ks), dtype=float)
        return float(np.dot(self.weights, vals))

    def tail_integral(self, g, t: float, k_splits: Sequence[float] = ()) -> float:
        if math.isinf(t):
            return 0.0
        mask = self.a_vals > t
        if not mask.any():
            return 0.0
        vals = np.asarray(g(self.ks[mask]), dtype=float)
        return float(np.dot(self.weights[mask], vals))

    def atoms_at(self, t: float) -> list[tuple[float, float, float]]:
        tol = 1e-12 * max(1.0, abs(t))
        out = []
        for a, k, w in zip(self.a_vals, self.ks, self.weights):
            if abs(a - t) <= tol:
                out.append((float(a), float(k), float(w)))
        return out

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.choice(len(self.weights), size=n, p=self.weights / self.weights.sum())
        return self.a_vals[idx], self.ks[idx]
