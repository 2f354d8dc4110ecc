"""Contracts and menu containers shared by the solvers and the checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError

NULL_DEDUCTIBLE = math.inf
CONTRACT_CLASSES = ("stop_loss", "quota_share", "change_loss")

# Samples times distinct contracts per block of GenericMenu.self_select, and
# samples per block of a rule menu in verification.monte_carlo_profit.
_BLOCK_ELEMS = 16384


def risk_reduction(terms, a):
    """lam * (a - d)_+ - P of each contract (lam, d, P) for an agent at risk
    level a; lam may be the boolean served row of ThresholdMenu.terms."""
    lam, d, premium = terms
    return lam * np.maximum(a - d, 0.0) - premium


def check_class(kind: str) -> None:
    """Raise DomainError unless kind names one of the three contract classes."""
    if kind not in CONTRACT_CLASSES:
        raise DomainError(f"unknown contract class {kind!r}; expected one of {CONTRACT_CLASSES}")


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
        check_class(self.kind)
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


def _entry(row: list[float], kind: str) -> MenuEntry:
    """The MenuEntry of one (a, k, lam, deductible, premium) row of class kind."""
    a, k, lam, d, premium = row
    return MenuEntry(a, k, Contract(kind, lam, d), premium)


@dataclass(frozen=True, eq=False)
class GenericMenu:
    """A finite menu, the object the audit operations consume.

    Its state is one row per entry: columns holds (a, k, lam, deductible,
    premium) as a read-only (5, rows) array and classes the contract class of
    each row.  Every row must satisfy the Contract and MenuEntry rules; they
    are checked on all rows at once, and a DomainError names the first row
    (from 1) that breaks one, with that rule's message.
    """

    columns: np.ndarray
    classes: tuple[str, ...]

    def __post_init__(self) -> None:
        columns, classes = np.array(self.columns, dtype=float, order="C"), tuple(self.classes)
        if not classes:
            raise DomainError("cannot audit an empty menu")
        if columns.shape != (5, len(classes)):
            raise DomainError(f"need (5, {len(classes)}) menu columns, got shape {columns.shape}")
        columns.flags.writeable = False
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "classes", classes)
        a, k, lam, d, premium = columns
        ok = np.fromiter(map(CONTRACT_CLASSES.__contains__, classes), bool, len(classes))
        ok &= (0.0 <= lam) & (lam <= 1.0) & (d >= 0.0) & (0.0 <= premium) & (premium < math.inf)
        ok &= np.isfinite(a) & np.isfinite(k)
        if not ok.all():
            i = int(ok.argmin())
            try:
                _entry(columns[:, i].tolist(), classes[i])  # words the broken rule
            except DomainError as exc:
                raise DomainError(f"malformed menu row {i + 1}: {exc}") from exc

    @classmethod
    def from_entries(cls, entries: Iterable[MenuEntry]) -> "GenericMenu":
        entries = tuple(entries)
        rows = [(e.a, e.k, e.contract.lam, e.contract.deductible, e.premium) for e in entries]
        return cls(np.array(rows, dtype=float).T, tuple(e.contract.kind for e in entries))

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def entries(self) -> tuple[MenuEntry, ...]:
        """The rows as MenuEntry objects, built on first use."""
        return tuple(map(_entry, self.columns.T.tolist(), self.classes))

    @cached_property
    def _contracts(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct contracts (lam, d, P) in order of first appearance, null
        ones as (0, inf, P), then (0, inf, 0) for staying out; and the distinct
        contract of each entry."""
        lam, d, premium = self.columns[2:]
        null = (lam == 0.0) | np.isinf(d)
        terms = np.array([np.where(null, 0.0, lam), np.where(null, NULL_DEDUCTIBLE, d), premium])
        raw = np.ascontiguousarray(terms.T).view(np.dtype((np.void, 24))).ravel()  # equal bits, same contract
        _, first, of = np.unique(raw, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct contracts by first appearance
        distinct = np.empty((3, len(first) + 1))
        distinct[:, :-1], distinct[:, -1] = terms[:, first[order]], (0.0, NULL_DEDUCTIBLE, 0.0)
        return distinct, np.argsort(order)[of]

    def self_select(self, a, k=None) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """Self-selection at risk levels a (types (a, k)), block by block.

        Yields (block, best, taken): the best risk reduction lam * (a - d)_+ - P
        on offer and the (lam, d, P) taken: with tie = 1e-12 * max(1, |best|),
        that of the type's own entry (the first with equal (a, k)) if within
        tie of best, else of the first entry within tie of best (so rounding
        does not pick among tied rows); (0, inf, 0), staying out, when best < -tie.
        Own entries are found once per call, with one sort of a: only samples
        whose a equals some entry's a are matched on (a, k).  Each distinct
        contract is valued once per block of about _BLOCK_ELEMS values, so
        memory does not grow with the menu's length.
        """
        a, k = np.ravel(np.asarray(a, dtype=float)), None if k is None else np.ravel(k)
        terms, of = self._contracts
        offers = terms[:, :-1, None]  # values are (contract, sample): cheap column reductions
        step = max(1, _BLOCK_ELEMS // offers.shape[1])
        i = c = np.empty(0, dtype=np.intp)  # own entries: sample indices (ascending), contracts
        if k is not None:
            ea = self.columns[0]
            sa = np.sort(a)
            shared = np.sort(ea[np.searchsorted(sa, ea, "right") > np.searchsorted(sa, ea)])
            del sa  # not kept through the blocks: peak memory stays that of the samples
            if len(shared):  # match a, then the entries' types a + ik, sorted stably
                i = np.flatnonzero(shared[np.minimum(np.searchsorted(shared, a), len(shared) - 1)] == a)
                keys = ea + 1j * self.columns[1]
                order = np.argsort(keys, kind="stable")
                own = order[np.minimum(np.searchsorted(keys[order], a[i] + 1j * k[i]), len(of) - 1)]
                hit = (ea[own] == a[i]) & (self.columns[1, own] == k[i])
                i, c = i[hit], of[own[hit]]
        cuts = np.searchsorted(i, np.arange(0, len(a) + step, step)).tolist()  # own entries per block
        for start, lo, hi in zip(range(0, len(a), step), cuts, cuts[1:]):
            block = slice(start, start + step)
            values = risk_reduction(offers, a[block])
            best = values.max(axis=0)
            tie = 1e-12 * np.maximum(1.0, np.abs(best))
            u = (values >= best - tie).argmax(axis=0)
            if lo < hi:
                ib, cb = i[lo:hi] - start, c[lo:hi]
                ok = values[cb, ib] >= best[ib] - tie[ib]
                u[ib[ok]] = cb[ok]
            u[best < -tie] = -1
            yield block, best, terms[:, u]
