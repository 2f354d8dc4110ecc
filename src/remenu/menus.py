"""Contracts and menu containers shared by the solvers and the checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError

NULL_DEDUCTIBLE = math.inf

# Samples times distinct contracts per block of GenericMenu.self_select, and
# samples per block of a rule menu in verification.monte_carlo_profit.
_BLOCK_ELEMS = 16384


def risk_reduction(terms, a):
    """lam * (a - d)_+ - P of each contract (lam, d, P) for an agent at risk
    level a; lam may be the boolean served row of ThresholdMenu.terms."""
    lam, d, premium = terms
    return lam * np.maximum(a - d, 0.0) - premium


@dataclass(frozen=True)
class Contract:
    """An indemnity of the form lam * (x - deductible)_+.

    kind is one of stop_loss (lam == 1), quota_share (deductible == 0), or
    change_loss; the null policy is any contract with lam == 0 or an
    infinite deductible.
    """

    kind: str
    lam: float = 1.0
    deductible: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("stop_loss", "quota_share", "change_loss"):
            raise DomainError(f"unknown contract class {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError(f"coinsurance rate must lie in [0, 1], got {self.lam}")
        if not self.deductible >= 0.0:
            raise DomainError(f"deductible must be >= 0 (+inf for none), got {self.deductible}")


@dataclass(frozen=True)
class MenuEntry:
    """One menu row: the type it is tailor-made for plus its policy."""

    a: float
    k: float
    contract: Contract
    premium: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.k) and 0.0 <= self.premium < math.inf):
            raise DomainError(f"need finite a, k, premium >= 0: {self.a, self.k, self.premium}")

    def risk_reduction(self, a) -> np.ndarray:
        """Risk reduction I(a') - P an agent at risk level a' gets here."""
        return risk_reduction((self.contract.lam, self.contract.deductible, self.premium), a)


@dataclass(frozen=True)
class GenericMenu:
    """A finite menu of entries, the object the audit operations consume."""

    entries: tuple[MenuEntry, ...]

    @classmethod
    def from_entries(cls, entries: Sequence[MenuEntry]) -> "GenericMenu":
        return cls(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def columns(self) -> np.ndarray:
        """(a, k, lam, deductible, premium) rows, one column per entry."""
        if not self.entries:
            raise DomainError("cannot audit an empty menu")
        rows = [(e.a, e.k, e.contract.lam, e.contract.deductible, e.premium) for e in self.entries]
        return np.array(rows, dtype=float).T

    @cached_property
    def _contracts(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct contracts (lam, d, P) in order of first appearance, null
        ones as (0, inf, P), then (0, inf, 0) for staying out; and the distinct
        contract of each entry."""
        lam, d, premium = self.columns[2:]
        null = (lam == 0.0) | np.isinf(d)
        terms = np.array([np.where(null, 0.0, lam), np.where(null, NULL_DEDUCTIBLE, d), premium])
        raw, ids = terms.T.tobytes(), {}  # 24 bytes per entry; equal bits, same contract
        first_of = [ids.setdefault(raw[i : i + 24], i // 24) for i in range(0, len(raw), 24)]
        first = np.array(list(ids.values()), int)
        distinct = np.empty((3, len(first) + 1))
        distinct[:, :-1], distinct[:, -1] = terms[:, first], (0.0, NULL_DEDUCTIBLE, 0.0)
        return distinct, np.searchsorted(first, first_of)

    def self_select(self, a, k=None) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """Self-selection at risk levels a (types (a, k)), block by block.

        Yields (block, best, taken): the best risk reduction lam * (a - d)_+ - P
        on offer and the (lam, d, P) taken: with tie = 1e-12 * max(1, |best|),
        that of the type's own entry (the first with equal (a, k)) if within
        tie of best, else of the first entry within tie of best (so rounding
        does not pick among tied rows); (0, inf, 0), staying out, when best < -tie.
        Each distinct contract is valued once per block of about _BLOCK_ELEMS
        values, so memory does not grow with the menu's length.
        """
        a, k = np.ravel(np.asarray(a, dtype=float)), None if k is None else np.ravel(k)
        terms, of = self._contracts
        offers = terms[:, :-1, None]  # values are (contract, sample): cheap column reductions
        step, last = max(1, _BLOCK_ELEMS // offers.shape[1]), len(of) - 1
        if k is not None:  # the entries' types a + ik, sorted stably
            keys = self.columns[0] + 1j * self.columns[1]
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
        for start in range(0, len(a), step):
            block = slice(start, start + step)
            values = risk_reduction(offers, a[block])
            best = values.max(axis=0)
            tie = 1e-12 * np.maximum(1.0, np.abs(best))
            u = (values >= best - tie).argmax(axis=0)
            if k is not None:  # own entries: match a, then a + ik
                ab, kb = a[block], k[block]
                near = keys.real[np.minimum(np.searchsorted(keys.real, ab), last)]
                i = np.flatnonzero(near == ab)
                own = order[np.minimum(np.searchsorted(keys, ab[i] + 1j * kb[i]), last)]
                hit = (self.columns[0, own] == ab[i]) & (self.columns[1, own] == kb[i])
                i, c = i[hit], of[own[hit]]
                ok = values[c, i] >= best[i] - tie[i]
                u[i[ok]] = c[ok]
            u[best < -tie] = -1
            yield block, best, terms[:, u]
