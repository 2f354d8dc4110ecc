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

``tail_integral(t, slope, ratio, capped)`` takes a 1-D array of thresholds
t >= 0 and gives at each the market integral of a threshold menu's profit:
t - slope k for a type above t with ratio k <= t, capped(k, t) for one with
ratio k > t, and max(t - slope k, 0) for an atom at t.  Row i is the call on
t[i] alone, bit for bit.  The affine part is summed exactly: a uniform-k
market gives Gauss nodes only to the segments that are not fully served
below ratio k, a discrete market prices by capped only the atoms above t
with ratio k > t.  Blocks of thresholds keep arrays within about
_CHUNK_ELEMS elements.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError
from .quadrature import adaptive_gauss_batched, gauss_legendre
from .risk_model import ExponentialFamily, ScaleFamily

_WEIGHT_TOL = 1e-12
_CHUNK_ELEMS = 1 << 15  # array elements per block of thresholds; bounds its memory
_TAIL_NODES = 256  # Gauss-Legendre nodes per k-segment of tail_integral


class TypeDistribution:
    """Common interface: support bounds, quadrature, sampling.

    ``k_ends`` holds the smallest and the largest k, where the scale
    family's quantiles and theta*_k = k theta*_1 take their extremes.
    """

    k_ends: tuple[float, float]

    def __init__(self, family: ScaleFamily | None):
        self.family = ExponentialFamily() if family is None else family
        if not isinstance(self.family, ScaleFamily):
            raise DomainError(f"type distributions need a ScaleFamily, got {type(family).__name__}")

    def lower_support(self) -> float:
        """Infimum of the transformed risk level a over the support."""
        raise NotImplementedError

    def upper_support(self) -> float:
        raise NotImplementedError

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        """Deterministic quadrature of int f(a, k) dQ."""
        raise NotImplementedError

    def tail_integral(self, t: np.ndarray, slope: float, ratio: float, capped) -> np.ndarray:
        """int p(k, t) 1{a > t} dQ + int max(t - slope k, 0) 1{a = t} dQ at
        each threshold of the 1-D t >= 0, the indicators handled exactly.

        The profit density p(k, t) is t - slope k where ratio k <= t, and
        capped(k, t) (arrays of one shape) where ratio k > t: a ratio of 0
        caps nowhere.  The k-quadrature splits where ratio k = t.
        """
        raise NotImplementedError

    def _finite_levels(self, alpha, k) -> np.ndarray:
        """a = VaR_alpha(X_k) at arrays alpha, k; DomainError naming one not finite."""
        with np.errstate(over="ignore"):
            a = np.asarray(self.family.var(alpha, k), dtype=float)
        if not np.isfinite(a).all():
            i = int(np.argmin(np.isfinite(a)))
            raise DomainError(f"risk level a = VaR_alpha(X_k) is not finite at k = {k[i]}, alpha = {alpha[i]}")
        return a

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class _UniformK(TypeDistribution):
    """Shared machinery for the variants with k ~ U(k_lo, k_hi).

    Subclasses set ``_edge_alphas``, the alphas bounding the support, and
    supply ``conditional_tail(k, t)``, P(a > t | k) vectorized in k, and
    ``_inner(f, k, bps)``, E[f(a, k) | k] at each Gauss node k.
    A threshold has len(_edge_alphas) + 3 k-segment edges, its node
    segments _TAIL_NODES nodes each; integrate adapts, all k-segments in one
    call.
    """

    _edge_alphas: tuple[float, ...]

    def __init__(self, k_lo: float, k_hi: float, family: ScaleFamily | None):
        if not 0.0 < k_lo < k_hi < math.inf:
            raise DomainError(f"need 0 < k_lo < k_hi < inf, got ({k_lo}, {k_hi})")
        self.k_lo = float(k_lo)
        self.k_hi = float(k_hi)
        self.k_ends = (self.k_lo, self.k_hi)
        super().__init__(family)

    @cached_property
    def _edge_ratios(self) -> list[float]:
        """VaR_1 of each edge alpha, computed once per market."""
        return [float(self.family.base.var(al)) for al in self._edge_alphas]

    def _k_edges(self, points: np.ndarray, *ratios: float) -> np.ndarray:
        """(m, S + 2) k-segment edges for the m rows of points: k_lo, the
        sorted k where the level c k meets a point of the row, clipped to
        [k_lo, k_hi], then k_hi.  c runs over the VaR_1 of each edge alpha (a
        support edge) and then ratios; a ratio outside (0, inf) splits
        nowhere, and a split outside (k_lo, k_hi) gives a zero-width segment."""
        c = np.array(self._edge_ratios + list(ratios))
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

    def tail_integral(self, t: np.ndarray, slope: float, ratio: float, capped) -> np.ndarray:
        # About 8 working arrays per k-segment edge of a threshold.
        out, step = np.zeros(len(t)), max(1, _CHUNK_ELEMS // (8 * (len(self._edge_alphas) + 3)))
        for s in range(0, len(t), step):
            b = slice(s, s + step)
            out[b] = self._tail_block(t[b], slope, ratio, capped)
        return out

    def _tail_block(self, t: np.ndarray, slope: float, ratio: float, capped) -> np.ndarray:
        edges = self._k_edges(t[:, None], ratio)
        lo, hi, tc = edges[:, :-1], edges[:, 1:], t[:, None]
        # No edge crossing of t falls inside a segment, so the tail is 0, 1 or
        # strictly between throughout it: its middle tells which.
        mid = 0.5 * (lo + hi)
        tail = self.conditional_tail(mid, tc)
        live = (hi > lo) & (tail > 0.0)
        dens, top = 1.0 / (self.k_hi - self.k_lo), ratio * self.k_hi
        # A fully served segment with ratio k <= t has the affine density
        # t - slope k: its integral is exact, each row's in order from 0.0.
        exact = live & (tail >= 1.0) & (ratio * hi <= tc)
        r, c = np.nonzero(exact)
        closed = np.bincount(r, (hi[r, c] - lo[r, c]) * dens * (t[r] - slope * mid[r, c]), len(t))
        live &= ~exact
        # Only the other live segments get nodes, and only partial ones the
        # conditional tail.
        row = np.nonzero(live)[0]
        lo, hi, tail, t = lo[live], hi[live], tail[live], t[row]
        sums, step = np.empty(len(row)), max(1, _CHUNK_ELEMS // (4 * _TAIL_NODES))  # k, w, t, profit
        for s in range(0, len(row), step):
            b = slice(s, s + step)
            k, w = gauss_legendre(lo[b, None], hi[b, None], _TAIL_NODES)
            tk = np.repeat(t[b, None], _TAIL_NODES, axis=1)
            vals = tk - slope * k
            cap = tk < top  # only below ratio k_hi can ratio k exceed t
            if cap.any():
                cap &= ratio * k > tk
                vals[cap] = capped(k[cap], tk[cap])
            vals *= w * dens  # a probability times the profit: no overflow at large k
            p = tail[b] < 1.0
            if p.any():
                part = slice(None) if p.all() else p  # views, not copies, where all are
                vals[part] *= self.conditional_tail(k[part], tk[part])
            sums[b] = vals.sum(axis=-1)
        # Each row adds up its node segments in order from 0.0, then its
        # exact ones.
        return np.bincount(row, sums, len(closed)) + closed

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
        self._finite_levels(np.array([self.alpha_lo]), np.array([self.k_hi]))  # the largest a

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
        return self.family.var(alpha, k, out=alpha), k  # a = k VaR_alpha(X_1) in alpha's array


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
        self._finite_levels(np.array([self.alpha0]), np.array([self.k_hi]))  # the largest a

    def a_of_k(self, k):
        return self.family.var(self.alpha0, k)

    def conditional_tail(self, k, t: float):
        """1{a(k) > t}, vectorized in k."""
        return self.a_of_k(k) > t

    def _inner(self, f, k: np.ndarray, bps: list[float]) -> np.ndarray:
        return np.asarray(f(np.asarray(self.a_of_k(k), dtype=float), k), dtype=float)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        k = rng.uniform(self.k_lo, self.k_hi, n)
        return self.a_of_k(k), k  # k times one scalar VaR: the only new array


class DiscreteTypes(TypeDistribution):
    """Finitely many weighted atoms: rows (alpha, k, weight), as triples or
    an (n, 3) array."""

    def __init__(
        self,
        atoms: Sequence[tuple[float, float, float]],
        family: ScaleFamily | None = None,
    ):
        if not len(atoms):
            raise DomainError("discrete type distribution needs at least one atom")
        super().__init__(family)
        rows = np.array(atoms, dtype=float)
        if rows.shape != (len(atoms), 3):
            raise DomainError(f"discrete atoms must be (alpha, k, weight) rows, got shape {rows.shape}")
        self.alphas, self.ks, self.weights = map(np.ascontiguousarray, rows.T)
        if not np.all((self.ks > 0.0) & (self.ks < math.inf)):
            raise DomainError(f"atom k values must be finite and positive, got {self.ks.tolist()}")
        if not np.all((self.weights >= 0.0) & (self.weights < math.inf)):
            raise DomainError(f"atom weights must be finite and >= 0, got {self.weights.tolist()}")
        self.k_ends = (float(self.ks.min()), float(self.ks.max()))
        if abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"atom weights must sum to 1, got {self.weights.sum()}")
        self.a_vals = self._finite_levels(self.alphas, self.ks)

    def lower_support(self) -> float:
        return float(self.a_vals.min())

    def upper_support(self) -> float:
        return float(self.a_vals.max())

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        vals = np.asarray(f(self.a_vals, self.ks), dtype=float)
        return float(np.dot(self.weights, vals))

    @cached_property
    def _by_level(self) -> tuple[np.ndarray, ...]:
        """The atoms sorted by a, once per market: (a, k, w, the index where
        each distinct level starts, the levels, and the suffix sums of w and
        w k from each level up, one column more than the levels, the last 0.0)."""
        order = np.argsort(self.a_vals, kind="stable")
        a, k, w = self.a_vals[order], self.ks[order], self.weights[order]
        starts = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
        suffix = np.zeros((2, len(starts) + 1))
        suffix[:, -2::-1] = np.cumsum(np.add.reduceat([w, w * k], starts, axis=1)[:, ::-1], axis=1)
        return a, k, w, starts, a[starts], suffix

    @property
    def levels(self) -> np.ndarray:
        """The distinct atom levels a, ascending."""
        return self._by_level[4]

    def tail_integral(self, t: np.ndarray, slope: float, ratio: float, capped) -> np.ndarray:
        a, k, w, starts, levels, (big_w, big_wk) = self._by_level
        j = np.searchsorted(levels, t, side="right")  # levels[j:] lie above t
        # t W(>t) - slope Wk(>t), plus capped - (t - slope k) where ratio k > t.
        above, out = j < len(levels), np.zeros(len(t))  # t is finite where an atom lies above
        out[above] = t[above] * big_w[j[above]] - slope * big_wk[j[above]]
        rows = np.flatnonzero(t < ratio * self.k_ends[1])
        if len(rows):
            out[rows] += self._masked_sum(lambda kk, tk: capped(kk, tk) - (tk - slope * kk), t[rows], ratio)
        # The atoms at a == t exactly, as the menu's kink rule (j = 0: levels[-1] > t).
        hit = levels[j - 1] == t
        if hit.any():
            out[hit] += np.add.reduceat(w * np.maximum(a - slope * k, 0.0), starts)[j[hit] - 1]
        return out

    def _masked_sum(self, h, t: np.ndarray, ratio: float) -> np.ndarray:
        """Per threshold, the sum of w h(k, t) over the atoms with a > t and
        ratio k > t, in blocks of 8 working arrays of the atoms."""
        over = np.minimum(self.a_vals, ratio * self.ks)
        out, step = np.empty(len(t)), max(1, _CHUNK_ELEMS // (8 * len(self.ks)))
        for s in range(0, len(t), step):
            tb = t[s : s + step]
            mask = over > tb[:, None]
            rows, cols = np.nonzero(mask)
            vals = np.zeros(mask.shape)
            vals[mask] = h(self.ks[cols], tb[rows])
            out[s : s + step] = (vals * self.weights).sum(axis=-1)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.choice(len(self.weights), size=n, p=self.weights / self.weights.sum())
        return self.a_vals[idx], self.ks[idx]
