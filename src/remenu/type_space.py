"""Agent-type distributions and quadrature of functionals against them.

A source type is a pair (alpha, k): the agent's VaR level and loss scale.
Its transformed representation is (a, k) with a = VaR_alpha(X_k), which is
the coordinate system all menu rules live in.  Three distribution variants
are supported:

* ``ProductUniform``   - k ~ U(k_lo, k_hi) independent of alpha ~ U(lo, hi);
* ``DegenerateAlpha``  - k ~ U(k_lo, k_hi) with a single fixed alpha;
* ``DiscreteTypes``    - finitely many weighted (alpha, k) atoms.

Integration is deterministic: adaptive Gauss-Legendre in k on each segment
between forced splits (where an a-breakpoint crosses the conditional
a-support), and one batched adaptive Gauss-Legendre over every alpha-segment
at the k nodes of each level.  Integrands must accept numpy arrays broadcast
over (a, k).

``tail_integral(g, t)`` and ``kink_integral(g, t)`` take a threshold t, or a
1-D array of them giving an array, and call ``g(k, t)`` with t broadcast to
k's shape; row i of a batch is the scalar call at t[i], bit for bit.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .quadrature import adaptive_gauss_batched, gauss_legendre, split_edges
from .risk_model import ExponentialFamily, LossFamily, ScaleFamily

_WEIGHT_TOL = 1e-12
_CHUNK_ELEMS = 1 << 12  # array elements per pass of a batch; bounds its memory


def _per_threshold(method):
    """Let method(self, g, t[, k_splits]) take a scalar t, giving a float, or a
    1-D array, giving an array; it sees blocks of rows of t and k_splits."""

    @functools.wraps(method)
    def wrapper(self, g, t, k_splits=None):
        t = np.asarray(t, dtype=float)
        width = self._row_elems + (0 if k_splits is None else k_splits.shape[1])
        rows, step = np.atleast_1d(t), max(1, _CHUNK_ELEMS // width)
        out = np.zeros(len(rows))
        for s in range(0, len(rows), step):
            b = slice(s, s + step)
            out[b] = method(self, g, rows[b], *(() if k_splits is None else (k_splits[b],)))
        return float(out[0]) if t.ndim == 0 else out

    return wrapper


class TransformedType(NamedTuple):
    a: float
    k: float


class TypeDistribution:
    """Common interface: transform, support bounds, quadrature, sampling.

    ``k_ends`` holds the k values over which sup_k theta*_k is taken: the
    ends of a uniform k-range, where a scale family's quantiles and
    theta*_k = k theta*_1 take their extremes, or every distinct atom k.
    """

    family: LossFamily
    k_ends: tuple[float, ...]

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

    def tail_integral(self, g, t, k_splits: np.ndarray | None = None):
        """int g(k, t) 1{a > t} dQ with the indicator handled exactly.

        g(k, t) gets t broadcast to k's shape; k_splits is an (m, s) array of
        extra forced k-splits, one row per threshold (e.g. where a solver
        integrand has a kink in k), NaN or out-of-range meaning no split.
        """
        raise NotImplementedError

    def kink_integral(self, g, t):
        """int g(k, t) 1{a = t} dQ, as tail_integral: zero without atoms."""
        return 0.0 if np.ndim(t) == 0 else np.zeros(np.shape(t))

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class _UniformK(TypeDistribution):
    """Shared machinery for the variants with k ~ U(k_lo, k_hi).

    Subclasses set ``_edge_alphas``, the alphas bounding the support, and
    supply ``conditional_tail(k, t)``, P(a > t | k) vectorized in k, and
    ``_inner(f, k, bps)``, E[f(a, k) | k] at each Gauss node k.
    Subclasses pass the keyword ``outer_nodes``, the Gauss-Legendre nodes per
    k segment of tail_integral, through to here; integrate adapts its own.
    """

    _edge_alphas: tuple[float, ...]

    @property
    def _row_elems(self) -> int:  # segment edges per threshold before k-splits
        return len(self._edge_alphas) + 2

    def __init__(self, k_lo: float, k_hi: float, family: ScaleFamily | None, outer_nodes: int = 256):
        if not 0.0 < k_lo < k_hi < math.inf:
            raise DomainError(f"need 0 < k_lo < k_hi < inf, got ({k_lo}, {k_hi})")
        self.k_lo = float(k_lo)
        self.k_hi = float(k_hi)
        self.k_ends = (self.k_lo, self.k_hi)
        self.family = family if family is not None else ExponentialFamily()
        if not isinstance(self.family, ScaleFamily):
            raise DomainError(f"uniform-k markets need a ScaleFamily, got {type(family).__name__}")
        self.outer_nodes = int(outer_nodes)

    def _k_breaks_for(self, points: np.ndarray) -> np.ndarray:
        """(m, len(_edge_alphas)) array: the k where the a-support edge of each
        edge alpha crosses each of m points, NaN where it does not."""
        fam, lo, hi = self.family, self.k_lo, self.k_hi
        return np.column_stack([fam.k_for_var(al, points, lo, hi) for al in self._edge_alphas])

    def lower_support(self) -> float:
        # a decreases in alpha, so the largest edge alpha bounds it below.
        return float(np.min(self.family.var(max(self._edge_alphas), self.k_ends)))

    def upper_support(self) -> float:
        return float(np.max(self.family.var(min(self._edge_alphas), self.k_ends)))

    @_per_threshold
    def tail_integral(self, g, t: np.ndarray, k_splits: np.ndarray | None = None) -> np.ndarray:
        cuts = self._k_breaks_for(t)
        if k_splits is not None:
            cuts = np.concatenate([cuts, k_splits], axis=1)
        # Per-row edges (m, S + 1); a missing or outside split gives a
        # zero-width segment at an end.
        edges = np.empty((len(t), cuts.shape[1] + 2))
        edges[:, 0], edges[:, -1] = self.k_lo, self.k_hi
        edges[:, 1:-1] = np.sort(np.fmin(np.fmax(cuts, self.k_lo), self.k_hi))
        lo, hi = edges[:, :-1], edges[:, 1:]
        # No edge crossing of t falls inside a segment, so the tail is 0, 1 or
        # strictly between throughout it: its middle tells which.  Only live
        # segments get nodes, and only partial ones the conditional tail.
        tail = self.conditional_tail(0.5 * (lo + hi), t[:, None])
        live = (hi > lo) & (tail > 0.0)
        row = np.nonzero(live)[0]
        lo, hi, tail, t = lo[live], hi[live], tail[live], t[row]
        sums = np.empty(len(t))
        step = max(1, _CHUNK_ELEMS // self.outer_nodes)  # segments per pass
        for s in range(0, len(t), step):
            c = slice(s, s + step)
            k, w = gauss_legendre(lo[c, None], hi[c, None], self.outer_nodes)
            tk = np.repeat(t[c, None], self.outer_nodes, axis=1)
            vals = np.asarray(g(k, tk), dtype=float) * w
            p = tail[c] < 1.0
            if p.any():
                vals[p] *= self.conditional_tail(k[p], tk[p])
            sums[c] = vals.sum(axis=-1)
        # Each row adds up its segments in order from 0.0.
        return np.bincount(row, sums * (1.0 / (self.k_hi - self.k_lo)), len(live))

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        bps = sorted({float(b) for b in breakpoints if math.isfinite(b)})
        dens = 1.0 / (self.k_hi - self.k_lo)
        edges = split_edges(self.k_lo, self.k_hi, self._k_breaks_for(np.array(bps)).ravel())

        def inner(k):  # one adaptive batch per k-segment keeps the rows few
            return self._inner(f, k.ravel(), bps).reshape(k.shape)

        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += float(adaptive_gauss_batched(inner, np.array([lo]), np.array([hi]))[0]) * dens
        return total


class ProductUniform(_UniformK):
    """k ~ U(k_lo, k_hi) independent of alpha ~ U(alpha_lo, alpha_hi)."""

    def __init__(
        self,
        k_lo: float,
        k_hi: float,
        alpha_lo: float,
        alpha_hi: float,
        family: ScaleFamily | None = None,
        **kw,
    ):
        super().__init__(k_lo, k_hi, family, **kw)
        cap = 1.0 - self.family.point_mass_zero
        if not 0.0 < alpha_lo < alpha_hi < cap:
            raise DomainError(
                f"need 0 < alpha_lo < alpha_hi < 1 - F(0) = {cap}, got ({alpha_lo}, {alpha_hi})"
            )
        self.alpha_lo = float(alpha_lo)
        self.alpha_hi = float(alpha_hi)
        self._edge_alphas = (self.alpha_lo, self.alpha_hi)

    def in_support(self, alpha: float, k: float) -> bool:
        return self.alpha_lo <= alpha <= self.alpha_hi and self.k_lo <= k <= self.k_hi

    def conditional_tail(self, k, t: float):
        """P(a > t | k) for the uniform alpha pushforward."""
        sv = self.family.survival(t, k)
        return np.clip((sv - self.alpha_lo) / (self.alpha_hi - self.alpha_lo), 0.0, 1.0)

    def _inner(self, f, k: np.ndarray, bps: list[float]) -> np.ndarray:
        """E[f(a, k) | k] in alpha coordinates: alpha is uniform and
        a = VaR_alpha(X_k), so a breakpoint b cuts alpha at survival_k(b)."""
        width = self.alpha_hi - self.alpha_lo
        cuts = [np.clip(self.family.survival(b, k), self.alpha_lo, self.alpha_hi) for b in bps]
        cuts = np.array([np.full(k.shape, self.alpha_lo), *reversed(cuts), np.full(k.shape, self.alpha_hi)])
        # One batch over the alpha-segments with width at some k node, as
        # (segment, node) rows; the rest add 0.
        lo, hi = cuts[:-1], cuts[1:]
        live = (hi > lo).any(axis=1)
        lo, hi = lo[live], hi[live]
        kcol = np.broadcast_to(k, lo.shape).reshape(-1, 1)

        def seg_f(alpha):
            a = self.family.var(alpha, kcol)
            return np.asarray(f(a, np.broadcast_to(kcol, a.shape)), dtype=float) / width

        return adaptive_gauss_batched(seg_f, lo.ravel(), hi.ravel()).reshape(lo.shape).sum(axis=0)

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
        **kw,
    ):
        super().__init__(k_lo, k_hi, family, **kw)
        cap = 1.0 - self.family.point_mass_zero
        if not 0.0 < alpha0 < cap:
            raise DomainError(f"alpha0 must lie in (0, 1 - F(0)) = (0, {cap}), got {alpha0}")
        self.alpha0 = float(alpha0)
        self._edge_alphas = (self.alpha0,)

    def in_support(self, alpha: float, k: float) -> bool:
        return alpha == self.alpha0 and self.k_lo <= k <= self.k_hi

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
        family: LossFamily | None = None,
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

    def in_support(self, alpha: float, k: float) -> bool:
        return bool(np.any((self.alphas == alpha) & (self.ks == k)))

    def lower_support(self) -> float:
        return float(self.a_vals.min())

    def upper_support(self) -> float:
        return float(self.a_vals.max())

    def integrate(self, f, breakpoints: Sequence[float] = ()) -> float:
        vals = np.asarray(f(self.a_vals, self.ks), dtype=float)
        return float(np.dot(self.weights, vals))

    @_per_threshold
    def tail_integral(self, g, t: np.ndarray, k_splits: np.ndarray | None = None) -> np.ndarray:
        return self._atom_sum(g, t, self.a_vals > t[:, None])

    @_per_threshold
    def kink_integral(self, g, t: np.ndarray) -> np.ndarray:
        # Exact, as the menu's kink rule a == tau.
        return self._atom_sum(g, t, self.a_vals == t[:, None])

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
