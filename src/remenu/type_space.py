"""Agent-type distributions and quadrature of functionals against them.

A source type is a pair (alpha, k): the agent's VaR level and loss scale.
Its transformed representation is (a, k) with a = VaR_alpha(X_k), which is
the coordinate system all menu rules live in.  Three distribution variants
are supported:

* ``ProductUniform``   - k ~ U(k_lo, k_hi) independent of alpha ~ U(lo, hi);
* ``DegenerateAlpha``  - k ~ U(k_lo, k_hi) with a single fixed alpha;
* ``DiscreteTypes``    - finitely many weighted (alpha, k) atoms.

On a uniform-k market a level t meets the geometry only where t = c k for a
fixed ratio c: VaR_1 of an edge alpha (a support edge, as a = k VaR_1(alpha))
or theta*_1 (a kink of the integrand); so the k-quadrature splits at t / c,
and a ratio outside (0, inf) splits nowhere.  ``_k_edges`` builds those
segments for both quadratures.  Integration is deterministic: one batched
adaptive Gauss-Legendre call in k over every segment, and at each of its node
sets one in alpha over the (alpha-segment, k node) rows of nonzero width.
Integrands must accept numpy arrays broadcast over (a, k).

``tail_integral(g, t, kink, at)`` takes a 1-D array of thresholds and calls
``g(k, t)`` (and ``at(k, t)`` on atoms) with t broadcast to k's shape; row i
is the call on t[i] alone, bit for bit.  The thresholds are cut once,
into blocks of about _CHUNK_ELEMS Gauss nodes (or atoms) each; a uniform-k
block prices all its live k-segments in one Gauss-Legendre call.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .quadrature import adaptive_gauss_batched, gauss_legendre
from .risk_model import ExponentialFamily, GenericFamily, ScaleFamily

_WEIGHT_TOL = 1e-12
_CHUNK_ELEMS = 1 << 15  # array elements per block of thresholds; bounds its memory
_TAIL_NODES = 256  # Gauss-Legendre nodes per k-segment of tail_integral


class TypeDistribution:
    """Common interface: support bounds, quadrature, sampling.

    ``k_ends`` holds the k values over which sup_k theta*_k is taken: the
    ends of a uniform k-range, where a scale family's quantiles and
    theta*_k = k theta*_1 take their extremes, or every distinct atom k.
    Subclasses price a block of thresholds in ``_tail_block(g, t, kink, at)``,
    each threshold taking ``_row_elems`` array elements.
    """

    family: ScaleFamily | GenericFamily
    k_ends: tuple[float, ...]

    def lower_support(self) -> float:
        """Infimum of the transformed risk level a over the support."""
        raise NotImplementedError

    def upper_support(self) -> float:
        raise NotImplementedError

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        """Deterministic quadrature of int f(a, k) dQ."""
        raise NotImplementedError

    def tail_integral(self, g, t: np.ndarray, kink=None, at=None) -> np.ndarray:
        """int g(k, t) 1{a > t} dQ with the indicator handled exactly, plus
        int at(k, t) 1{a = t} dQ over atoms, at each threshold of the 1-D t.

        g(k, t) gets t broadcast to k's shape.  g may have a kink in k where
        kink(k) = t, for a kink proportional to k (such as theta*_k); the
        k-quadrature splits there.  Markets without atoms ignore at.
        """
        out, step = np.zeros(len(t)), max(1, _CHUNK_ELEMS // self._row_elems)
        for s in range(0, len(t), step):
            b = slice(s, s + step)
            out[b] = self._tail_block(g, t[b], kink, at)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class _UniformK(TypeDistribution):
    """Shared machinery for the variants with k ~ U(k_lo, k_hi).

    Subclasses set ``_edge_alphas``, the alphas bounding the support, and
    supply ``conditional_tail(k, t)``, P(a > t | k) vectorized in k, and
    ``_inner(f, k, bps)``, E[f(a, k) | k] at each Gauss node k.
    tail_integral takes _TAIL_NODES Gauss-Legendre nodes per k-segment, at
    most len(_edge_alphas) + 2 segments per threshold (``_row_elems`` nodes),
    all of a block in one call; integrate adapts, all k-segments in one call.
    """

    _edge_alphas: tuple[float, ...]

    @property
    def _row_elems(self) -> int:
        return _TAIL_NODES * (len(self._edge_alphas) + 2)

    def __init__(self, k_lo: float, k_hi: float, family: ScaleFamily | None):
        if not 0.0 < k_lo < k_hi < math.inf:
            raise DomainError(f"need 0 < k_lo < k_hi < inf, got ({k_lo}, {k_hi})")
        self.k_lo = float(k_lo)
        self.k_hi = float(k_hi)
        self.k_ends = (self.k_lo, self.k_hi)
        self.family = family if family is not None else ExponentialFamily()
        if not isinstance(self.family, ScaleFamily):
            raise DomainError(f"uniform-k markets need a ScaleFamily, got {type(family).__name__}")

    def _k_edges(self, points: np.ndarray, *ratios: float) -> np.ndarray:
        """(m, S + 2) k-segment edges for the m rows of points: k_lo, the
        sorted k where the level c k meets a point of the row, clipped to
        [k_lo, k_hi], then k_hi.  c runs over the VaR_1 of each edge alpha (a
        support edge) and then ratios; a ratio outside (0, inf) splits
        nowhere, and a split outside (k_lo, k_hi) gives a zero-width segment."""
        c = np.array([float(self.family.base.var(al)) for al in self._edge_alphas] + list(ratios))
        cuts = (points[:, :, None] / c[(c > 0.0) & (c < math.inf)]).reshape(len(points), -1)
        edges = np.empty((len(points), cuts.shape[1] + 2))
        edges[:, 0], edges[:, -1] = self.k_lo, self.k_hi
        edges[:, 1:-1] = np.sort(np.clip(cuts, self.k_lo, self.k_hi))
        return edges

    def lower_support(self) -> float:
        # a decreases in alpha, so the largest edge alpha bounds it below.
        return float(np.min(self.family.var(max(self._edge_alphas), self.k_ends)))

    def upper_support(self) -> float:
        return float(np.max(self.family.var(min(self._edge_alphas), self.k_ends)))

    def _tail_block(self, g, t: np.ndarray, kink, at) -> np.ndarray:
        edges = self._k_edges(t[:, None], *(() if kink is None else (float(kink(1.0)),)))
        lo, hi = edges[:, :-1], edges[:, 1:]
        # No edge crossing of t falls inside a segment, so the tail is 0, 1 or
        # strictly between throughout it: its middle tells which.  Only live
        # segments get nodes, and only partial ones the conditional tail.
        tail = self.conditional_tail(0.5 * (lo + hi), t[:, None])
        live = (hi > lo) & (tail > 0.0)
        row = np.nonzero(live)[0]
        lo, hi, tail, t = lo[live], hi[live], tail[live], t[row]
        k, w = gauss_legendre(lo[:, None], hi[:, None], _TAIL_NODES)
        tk = np.repeat(t[:, None], _TAIL_NODES, axis=1)
        vals = np.asarray(g(k, tk), dtype=float) * w
        p = tail < 1.0
        if p.any():
            vals[p] *= self.conditional_tail(k[p], tk[p])
        # Each row adds up its segments in order from 0.0.
        return np.bincount(row, vals.sum(axis=-1) * (1.0 / (self.k_hi - self.k_lo)), len(live))

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        bps = sorted({float(b) for b in breakpoints if math.isfinite(b)})
        dens = 1.0 / (self.k_hi - self.k_lo)
        edges = np.unique(self._k_edges(np.array([bps])))

        def inner(k):  # every k-segment's nodes in one batch of _inner
            return self._inner(f, k.ravel(), bps).reshape(k.shape)

        # Segments add in order from 0.0, not in np.sum's pairwise order.
        return sum(float(s) * dens for s in adaptive_gauss_batched(inner, edges[:-1], edges[1:]))


class ProductUniform(_UniformK):
    """k ~ U(k_lo, k_hi) independent of alpha ~ U(alpha_lo, alpha_hi)."""

    def __init__(
        self,
        k_lo: float,
        k_hi: float,
        alpha_lo: float,
        alpha_hi: float,
        family: ScaleFamily | None = None,
    ):
        super().__init__(k_lo, k_hi, family)
        cap = 1.0 - self.family.point_mass_zero
        if not 0.0 < alpha_lo < alpha_hi < cap:
            raise DomainError(
                f"need 0 < alpha_lo < alpha_hi < 1 - F(0) = {cap}, got ({alpha_lo}, {alpha_hi})"
            )
        self.alpha_lo = float(alpha_lo)
        self.alpha_hi = float(alpha_hi)
        self._edge_alphas = (self.alpha_lo, self.alpha_hi)

    def conditional_tail(self, k, t: float):
        """P(a > t | k) for the uniform alpha pushforward."""
        sv = self.family.survival(t, k)
        return np.clip((sv - self.alpha_lo) / (self.alpha_hi - self.alpha_lo), 0.0, 1.0)

    def _inner(self, f, k: np.ndarray, bps: list[float]) -> np.ndarray:
        """E[f(a, k) | k] in alpha coordinates: alpha is uniform and
        a = VaR_alpha(X_k), so a breakpoint b cuts alpha at survival_k(b)."""
        width = self.alpha_hi - self.alpha_lo
        cuts = np.empty((len(bps) + 2, k.size))
        cuts[0], cuts[-1] = self.alpha_lo, self.alpha_hi
        cuts[1:-1] = np.clip(self.family.survival(np.array(bps[::-1])[:, None], k), self.alpha_lo, self.alpha_hi)
        # One batch over the (alpha-segment, k node) rows of nonzero width.
        lo, hi = cuts[:-1], cuts[1:]
        live = hi > lo
        kcol = np.broadcast_to(k, lo.shape)[live][:, None]

        def seg_f(alpha):
            a = self.family.var(alpha, kcol)
            return np.asarray(f(a, np.broadcast_to(kcol, a.shape)), dtype=float) / width

        out = np.zeros(lo.shape)
        out[live] = adaptive_gauss_batched(seg_f, lo[live], hi[live])
        return out.sum(axis=0)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        k = rng.uniform(self.k_lo, self.k_hi, n)
        alpha = rng.uniform(self.alpha_lo, self.alpha_hi, n)
        return np.asarray(self.family.var(alpha, k), dtype=float), k


class DegenerateAlpha(_UniformK):
    """k ~ U(k_lo, k_hi) with alpha fixed at alpha0."""

    def __init__(
        self,
        k_lo: float,
        k_hi: float,
        alpha0: float,
        family: ScaleFamily | None = None,
    ):
        super().__init__(k_lo, k_hi, family)
        cap = 1.0 - self.family.point_mass_zero
        if not 0.0 < alpha0 < cap:
            raise DomainError(f"alpha0 must lie in (0, 1 - F(0)) = (0, {cap}), got {alpha0}")
        self.alpha0 = float(alpha0)
        self._edge_alphas = (self.alpha0,)

    def a_of_k(self, k):
        return self.family.var(self.alpha0, k)

    def conditional_tail(self, k, t: float):
        """1{a(k) > t}, vectorized in k."""
        return self.a_of_k(k) > t

    def _inner(self, f, k: np.ndarray, bps: list[float]) -> np.ndarray:
        return np.asarray(f(np.asarray(self.a_of_k(k), dtype=float), k), dtype=float)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        k = rng.uniform(self.k_lo, self.k_hi, n)
        return np.asarray(self.a_of_k(k), dtype=float), k


class DiscreteTypes(TypeDistribution):
    """Finitely many weighted atoms (alpha, k, weight)."""

    def __init__(
        self,
        atoms: Sequence[tuple[float, float, float]],
        family: ScaleFamily | GenericFamily | None = None,
    ):
        if not atoms:
            raise DomainError("discrete type distribution needs at least one atom")
        self.family = family if family is not None else ExponentialFamily()
        self.alphas = np.array([x[0] for x in atoms], dtype=float)
        self.ks = np.array([x[1] for x in atoms], dtype=float)
        self.weights = np.array([x[2] for x in atoms], dtype=float)
        if not np.all((self.ks > 0.0) & (self.ks < math.inf)):
            raise DomainError(f"atom k values must be finite and positive, got {self.ks.tolist()}")
        if not np.all((self.weights >= 0.0) & (self.weights < math.inf)):
            raise DomainError(f"atom weights must be finite and >= 0, got {self.weights.tolist()}")
        self.k_ends = tuple(sorted(set(self.ks.tolist())))
        if abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"atom weights must sum to 1, got {self.weights.sum()}")
        self.a_vals = np.asarray(self.family.var(self.alphas, self.ks), dtype=float)
        self._row_elems = len(self.ks)

    def lower_support(self) -> float:
        return float(self.a_vals.min())

    def upper_support(self) -> float:
        return float(self.a_vals.max())

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        vals = np.asarray(f(self.a_vals, self.ks), dtype=float)
        return float(np.dot(self.weights, vals))

    def _tail_block(self, g, t: np.ndarray, kink, at) -> np.ndarray:
        out = self._atom_sum(g, t, self.a_vals > t[:, None])
        # The atoms at a == t exactly, as the menu's kink rule.
        return out if at is None else out + self._atom_sum(at, t, self.a_vals == t[:, None])

    def _atom_sum(self, g, t: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Per threshold, the sum of w g(k, t) over the atoms in its mask row;
        g sees only those atoms."""
        vals = np.zeros(mask.shape)
        rows, cols = np.nonzero(mask)
        vals[mask] = g(self.ks[cols], t[rows])
        return (vals * self.weights).sum(axis=-1)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.choice(len(self.weights), size=n, p=self.weights / self.weights.sum())
        return self.a_vals[idx], self.ks[idx]
