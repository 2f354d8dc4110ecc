"""Contracts and menu containers shared by the solvers and the checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .risk_model import CostFunctional, LossModel

NULL_DEDUCTIBLE = math.inf


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

    def indemnity(self, x):
        if self.lam == 0.0 or math.isinf(self.deductible):
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.lam * np.maximum(np.asarray(x, dtype=float) - self.deductible, 0.0)

    def cost(self, cost: CostFunctional, loss: LossModel) -> float:
        """H[I(X)]; positive homogeneity gives lam * H[(X - d)_+]."""
        if self.lam == 0.0 or math.isinf(self.deductible):
            return 0.0
        return self.lam * cost.stop_loss_cost(loss, self.deductible)

    @classmethod
    def null(cls, kind: str = "stop_loss") -> "Contract":
        return cls(kind, lam=0.0, deductible=NULL_DEDUCTIBLE if kind != "quota_share" else 0.0)


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
        return self.contract.indemnity(a) - self.premium


@dataclass(frozen=True)
class GenericMenu:
    """A finite menu of entries, the object the audit operations consume."""

    entries: tuple[MenuEntry, ...]

    @classmethod
    def from_entries(cls, entries: Sequence[MenuEntry]) -> "GenericMenu":
        return cls(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def value_matrix(self, a_values: np.ndarray) -> np.ndarray:
        """Risk reduction of each entry (rows) at each risk level (cols)."""
        a_values = np.asarray(a_values, dtype=float)
        return np.stack([e.risk_reduction(a_values) for e in self.entries])
