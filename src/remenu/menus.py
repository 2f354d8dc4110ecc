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

# Samples per block of GenericMenu.self_select and of a rule menu in
# verification.monte_carlo_profit; samples times distinct contracts per block
# of the dense rule.
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

    @cached_property
    def _cuts(self) -> np.ndarray | None:
        """Where the lookup's two a-intervals meet: the level where the best
        of the distinct contracts' lines lam·a - (lam·d + P), lam > 0, meets
        max(-P), found in floats (the certificates in _ranges do not depend
        on it being exact); none without lines or where it overflows.  None
        when the lines have several slopes: such a menu has no lookup."""
        with np.errstate(all="ignore"):  # an overflow leaves no cut
            return _meeting_level(self._contracts[0][:, :-1])

    @cached_property
    def _ranges(self) -> tuple[np.ndarray, np.ndarray, tuple | None]:
        """The certified lookup of self_select (see _certify)."""
        with np.errstate(all="ignore"):  # overflow and inf - inf leave a level undecided
            return _certify(self._contracts[0][:, :-1], self._cuts)

    def self_select(self, a, k) -> Iterator[tuple[slice, np.ndarray]]:
        """Self-selection of types (a, k), block by block.

        Yields (block, taken): the (lam, d, P) each type takes by _dense_rule,
        the one definition of the choice: with best the largest risk reduction
        lam * (a - d)_+ - P on offer and tie = 1e-12 * max(1, |best|), the type's
        own entry (the first with equal (a, k)) if its value is at least
        best - tie, else the first distinct contract in menu order whose value
        is; (0, inf, 0), staying out, when best < -tie.

        Own entries are found block by block, without sorting the samples
        (_own_entries): only a sample whose a has the low bits of some
        entry's a is matched on (a, k).  Each block of _BLOCK_ELEMS samples
        is placed in the menu's certified ranges (_certify), which give the
        choice of every sample without an own entry, or whose own entry is
        that choice; an own entry is also taken where _wins certifies it.
        The other samples go through _dense_rule, which values each distinct
        contract once per block of about _BLOCK_ELEMS values, so the choices
        are those of valuing every contract, bit for bit, and memory does not
        grow with the menu's length.  A menu whose lines have several slopes
        has no ranges (_cuts is None): every sample takes _dense_rule.
        """
        a, k = np.ravel(np.asarray(a, dtype=float)), np.ravel(k)
        terms = self._contracts[0]
        offers = terms[:, :-1]
        edges, labels, bounds = _NO_LOOKUP if self._cuts is None else self._ranges
        step = _BLOCK_ELEMS
        for start in range(0, len(a), step):
            block = slice(start, start + step)
            ab = a[block]
            u = _lookup(edges, labels, ab)
            own = None
            ib, cb = self._own_entries(ab, k[block])
            if len(cb):
                own = np.full(len(ab), -1)
                own[ib] = cb
                other = (u[ib] != cb) & (u[ib] != -1)  # an own entry may beat the lookup's choice
                ib, cb = ib[other], cb[other]
                if bounds is not None and len(ib):
                    at = ab[ib]
                    p, q = _wins(offers, bounds, cb, self._cuts.searchsorted(at, "right"))
                    u[ib] = np.where((p <= at) & (at <= q), cb, _UNDECIDED)
                else:
                    u[ib] = _UNDECIDED
            rest = np.flatnonzero(u == _UNDECIDED)
            if len(rest):
                u[rest] = _dense_rule(offers, ab[rest], None if own is None else own[rest])[1]
            yield block, terms.take(u, axis=1)

    @cached_property
    def _owners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What _own_entries looks up: a table of the low _OWN_BITS bits of
        the entries' levels a, the entries' types a + ik sorted stably, and
        the distinct contract of each."""
        a, k = self.columns[:2]
        table = np.zeros(1 << _OWN_BITS, dtype=bool)
        table[a.view(np.int64) & _OWN_MASK] = True
        keys = a + 1j * k
        order = np.argsort(keys, kind="stable")
        return table, keys[order], self._contracts[1][order]

    def _own_entries(self, a, k) -> tuple[np.ndarray, np.ndarray]:
        """(indices, distinct contracts) of the samples (a, k), 1-D with a
        contiguous, that have an own entry: the first entry with equal a and
        k, by float ==.  Equal levels share their low bits (-0.0 and 0.0
        too), so the samples whose low bits of a are no entry's are passed
        over, and the others matched exactly; a NaN matches nothing."""
        table, keys, contract = self._owners
        i = np.flatnonzero(table.take(a.view(np.int64) & _OWN_MASK))
        q = a[i] + 1j * k[i]
        j = np.minimum(keys.searchsorted(q), len(keys) - 1)
        hit = keys[j] == q
        return i[hit], contract[j[hit]]

    def best_offer(self, a) -> np.ndarray:
        """Largest risk reduction on offer at each risk level in a, of a's
        shape, not counting staying out, as _dense_rule finds it."""
        a = np.asarray(a, dtype=float)
        return _dense_rule(self._contracts[0][:, :-1], a.ravel())[0].reshape(a.shape)


# -- self-selection: the dense rule and its certified lookup ------------------

_TIE = 1e-12  # the dense rule's relative tie
_UNDECIDED = -2  # lookup label of a level left to the dense rule (-1 is staying out)
_NO_LOOKUP = np.empty(0), np.array([_UNDECIDED]), None  # (edges, labels, bounds): every level undecided
_U = 2.0**-53  # unit roundoff of binary64
# Power-of-two bounds on the rule's tie, net of the rounding in forming it
# (see _certify): _TIE_LO <= 1e-12 - 1.2 * _U and _TIE_HI >= 1e-12 + 1.2 * _U.
_TIE_LO, _TIE_HI = 2.0**-40, 2.0**-39
_SLACK = 2.0**-50  # 8 units of roundoff: covers each bound's rounding with room
_OWN_BITS = 16  # low bits of a level that GenericMenu._own_entries filters samples on
_OWN_MASK = (1 << _OWN_BITS) - 1


def _dense_rule(offers, a, own=None) -> tuple[np.ndarray, np.ndarray]:
    """The choice of types at risk levels a (1-D) among the distinct contracts
    offers = (lam, d, P), valued once per block of about _BLOCK_ELEMS values.

    Returns (best, u): best is the largest value lam * (a - d)_+ - P, and u is
    own (contract indices, -1 for none) where that value is at least
    best - tie, tie = 1e-12 * max(1, |best|), else the first contract whose
    value is; u = -1 (staying out) where best < -tie.
    """
    offers = offers[:, :, None]  # values are (contract, sample): cheap column reductions
    best, u = np.empty(len(a)), np.empty(len(a), dtype=np.intp)
    step = max(1, _BLOCK_ELEMS // offers.shape[1])
    for start in range(0, len(a), step):
        block = slice(start, start + step)
        values = risk_reduction(offers, a[block])
        top = values.max(axis=0)
        tie = _TIE * np.maximum(1.0, np.abs(top))
        ub = (values >= top - tie).argmax(axis=0)
        if own is not None:
            ib = np.flatnonzero(own[block] >= 0)
            cb = own[block][ib]
            ok = values[cb, ib] >= top[ib] - tie[ib]
            ub[ib[ok]] = cb[ok]
        ub[top < -tie] = -1
        best[block], u[block] = top, ub
    return best, u


def _lookup(edges, labels, a) -> np.ndarray:
    """labels[i] for each level of a in [edges[i-1], edges[i]); _UNDECIDED for
    a non-finite level.  Levels outside [edges[0], edges[-1]) are placed by a
    comparison each, the rest by one searchsorted."""
    if not len(edges):
        u = np.full(len(a), labels[0], dtype=np.intp)
    else:
        below = a < edges[0]
        u = below * (labels[0] - labels[-1]) + labels[-1]
        mid = np.flatnonzero(~below & (a < edges[-1]))
        u[mid] = labels[edges.searchsorted(a[mid], "right")]
    finite = np.isfinite(a)
    if not finite.all():
        u[~finite] = _UNDECIDED
    return u


def _meeting_level(offers) -> np.ndarray | None:
    """Where the best line lam·a - (lam·d + P) of the contracts with lam > 0
    meets max(-P), when those lines share one slope: one level, found in
    floats, or none without lines or where it overflows; None for several
    slopes."""
    lam, d, premium = offers
    line = lam > 0.0
    s = lam[line]
    if len(s) and (s != s[0]).any():
        return None
    meet = ((s * d[line] + premium[line] - premium.min()) / s).min(initial=np.inf)
    return np.array([meet] if math.isfinite(meet) else [])


def _down(x):
    return np.nextafter(x, -np.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def _negative_on(w, v, e, s, x, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """[p, q], within [lo, hi], on which sum_i w_i * (v_i + s_i * (a - x)) < 0
    for certain, one range per row (terms along the first axis; the rest
    broadcasts); p > q where there is none.

    The true value of term i at the anchor x is within e_i of v_i; w_i and s_i
    are exact.  The sum and the slope are formed in floats, with error at most
    5 units of roundoff of sum |w v| and sum |w s|; the root is bounded over
    that box and every rounding is directed outwards, so [p, q] holds no level
    where the true sum is >= 0.  A term with w > 0 and v = -inf (a bound over
    no contract) makes the sum -inf: true on all of [lo, hi].
    """
    d0, d1 = (w * v).sum(axis=0), (w * s).sum(axis=0)
    e0 = 5 * _U * np.abs(w * v).sum(axis=0) + (np.abs(w) * e).sum(axis=0)
    e1 = 5 * _U * np.abs(w * s).sum(axis=0)
    rise, fall = d1 - e1 > 0.0, d1 + e1 < 0.0
    # rise: a - x < -d0 / d1 at most; fall: a - x > d0 / -d1 at least
    num = np.where(rise, _down(-d0 - e0), _up(d0 + e0))
    den = np.abs(d1)
    den = np.where((num >= 0.0) == rise, _up(den + e1), _down(den - e1))
    root = num / den
    q = np.where(rise, np.minimum(hi, _down(_down(x + _down(_down(root))))), hi)
    p = np.where(fall, np.maximum(lo, _up(_up(x + _up(_up(root))))), lo)
    never = ~(rise | fall) | np.isnan(root)
    always = np.isneginf(d0)
    return np.where(always, lo, np.where(never, np.inf, p)), np.where(always, hi, np.where(never, -np.inf, q))


def _certify(offers, cuts) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Where _dense_rule's choice is known without valuing every contract:
    (edges, labels, bounds).  Without an own entry, the choice on
    [edges[i-1], edges[i]) is labels[i]: a contract, -1 for staying out, or
    _UNDECIDED.  Where a contract wins as a type's own entry, _wins finds
    from bounds.

    The contracts with lam > 0 have lines lam·a - (lam·d + P) of one slope s,
    and the cut, where the best of them meets max(-P), splits the a-axis into
    two intervals (a menu without lines has one, the whole axis).  On each,
    the designated contract c is the rule's choice at one point inside it,
    and the bounds are linear in a with exact float coefficients, anchored at
    the cut x (u is the unit roundoff):
      - Lam(a) >= the float value of every contract whose line is active
        (a > d): slope s through an upper bound on the lines at the cut (each
        valued in floats, plus _SLACK times its magnitudes), widened by
        _SLACK times the magnitudes of the value, of a and of a - x; every
        other contract is worth exactly -P <= C = max(-P).  A bound that
        overflowed (NaN or +inf) certifies nothing on its interval.
      - W(a): the same over the contracts before c in menu order, with C_W
        their largest -P.
      - vc(a) = lam'·(a - d_c) - P_c, lam' = lam_c(1 - 8u) rounded, is at most
        c's float value wherever vc >= 0: below d_c that value is -P_c, and
        above it its rounding is at most 2.01u·lam_c·(a - d_c) + u·|value|.
    With T = best - tie as the rule forms it, T <= best - c1·max(1, |best|)
    and T >= best - c2·max(1, |best|) for c1 = 1e-12 - 1.2u >= _TIE_LO and
    c2 = 1e-12 + 1.2u <= _TIE_HI.  So c is the choice where
      - Lam < C and W < T_C, with -P_c >= T_C, C_W < T_C and C >= -1e-12:
        then best = C and T = T_C exactly, and c's value is at least -P_c;
      - max(C, Lam) < (1 + _TIE_LO)·vc, so c's value is at least T (this
        forces vc > 0, as C >= -P_c and Lam >= c's line, and so best > 0:
        no staying out), and max(C_W, W) < (1 - _TIE_HI)·vc - _TIE_HI, so
        every earlier contract's value is below T;
    and staying out is, where C < -1e-12 and Lam < -1e-12.  The first
    condition of the second case, for any contract, is where that contract
    wins as a type's own entry.
    """
    lam, d, premium = offers
    n, line, inf = len(cuts), lam > 0.0, np.inf
    if n == 0 and line.any():  # the lines' meeting level overflowed: all to the dense rule
        return _NO_LOOKUP
    lo, hi = np.append(-inf, cuts), np.append(cuts, inf)
    x = cuts[[0, 0]] if n else np.zeros(1)  # the anchors: the cut
    pad = max(1.0, abs(x[0])) / 2
    r = (x + [-pad, pad])[: n + 1]  # a level inside each interval
    star = np.maximum(_dense_rule(offers, r)[1], 0)  # the first contract where the rule stays out
    before = star - 1  # the last contract before the designated one; -1 for none

    # Upper bounds on the lines at the cut, over the contracts up to each one:
    # over all (big), and over those before each interval's designated one (w).
    z = lam[line] * (x[0] - d[line])
    v = z - premium[line]
    ups = np.full(len(lam), -inf)
    ups[line] = v + _SLACK * (np.abs(v) + np.abs(z))
    np.maximum.accumulate(ups, out=ups)
    slope = lam.max()  # the lines' one slope
    widen = _SLACK * (slope + 1.0)
    s = np.array([slope - widen, slope + widen])[: n + 1]  # a - x <= 0 on the first interval only

    def bound(at_cut):
        """(value at the anchor, slope) of the linear bound on each interval."""
        y = at_cut + _SLACK * (np.abs(at_cut) + np.abs(x))
        none = np.isneginf(at_cut)  # no line: -inf, not the NaN that -inf + inf gives y
        return np.where(none, -inf, y), np.where(none, 0.0, s)

    big_y, big_s = bound(ups[-1])
    w_y, w_s = bound(np.where(before >= 0, ups[before], -inf))
    c_all = float(-premium.min())
    c_w = np.where(before >= 0, np.maximum.accumulate(-premium)[np.maximum(before, 0)], -inf)
    t_c = c_all - _TIE * max(1.0, abs(c_all))  # T at best = C, formed as the rule forms it

    # One condition per row, three terms (w, v, e, s) each.
    v_c, e_c, lam_lo = _value_floor(offers, star, x)
    zero, w_t, vc_b = (0.0, 0.0, 0.0, 0.0), (1.0, w_y, 0.0, w_s), (_TIE_HI - 1.0, v_c, e_c, lam_lo)
    rows = [
        ((1.0, big_y, 0.0, big_s), (1.0, -c_all, 0.0, 0.0), zero),  # best = C: Lam < C
        (w_t, (1.0, -t_c, 0.0, 0.0), zero),  # ... and W < T_C
        (w_t, (1.0, _TIE_HI, 0.0, 0.0), vc_b),  # every earlier value below T
        ((1.0, c_w, 0.0, 0.0), (1.0, _TIE_HI, 0.0, 0.0), vc_b),
        ((1.0, big_y, 0.0, big_s), (1.0, _TIE, 0.0, 0.0), zero),  # staying out: Lam < -1e-12
    ]
    terms = np.zeros((4, 3, len(rows), n + 1))  # (w, v, e, s), term, row, interval
    for k, row in enumerate(rows):
        for i, term in enumerate(row):
            for f, value in enumerate(term):
                terms[f, i, k] = value
    p, q = _negative_on(*terms, x, lo, hi)
    ok = (-premium[star] >= t_c) & (c_w < t_c) & (c_all >= -_TIE)
    bounds = x, lo, hi, big_y, big_s, c_all
    won = _wins(offers, bounds, star, np.arange(n + 1))
    ranges = [
        (np.maximum(p[0], p[1]), np.minimum(q[0], q[1]), np.where(ok, star, _UNDECIDED)),
        (np.maximum.reduce([won[0], p[2], p[3]]), np.minimum.reduce([won[1], q[2], q[3]]), star),
        (p[4], q[4], np.full(n + 1, -1 if c_all < -_TIE else _UNDECIDED)),
    ]
    segments = sorted(
        (p, q, lab)
        for ps, qs, labs in ranges
        for p, q, lab in zip(ps.tolist(), qs.tolist(), labs.tolist())
        if lab != _UNDECIDED and p <= q
    )
    edges: list[float] = []
    labels = [_UNDECIDED]  # labels[i] holds on [edges[i-1], edges[i])
    for p, q, lab in segments:
        q = math.nextafter(q, inf)  # [p, q] as [p, q)
        if edges:
            p = max(p, edges[-1])
        if p >= q:
            continue
        if edges and p == edges[-1] and labels[-2] == lab:
            edges[-1] = q
        else:
            if edges and p == edges[-1]:
                labels[-1] = lab
            elif p == -inf:
                labels[0] = lab
            else:
                edges.append(p)
                labels.append(lab)
            edges.append(q)
            labels.append(_UNDECIDED)
    if edges and edges[-1] == inf:
        edges.pop()
        labels.pop()
    return np.array(edges), np.array(labels), bounds


def _value_floor(offers, c, x):
    """(vc at the levels x, its error bound, its slope) of the contracts c
    (arrays broadcast; see _certify)."""
    lam, d, premium = offers[:, c]
    lam_lo = lam * (1.0 - _SLACK)
    run = lam_lo * (x - d)
    v_c = run - premium
    return v_c, 4 * _U * (np.abs(run) + np.abs(v_c)), lam_lo


def _wins(offers, bounds, c, j) -> tuple[np.ndarray, np.ndarray]:
    """[p, q] within the j-th interval of _certify's bounds on which contract
    c, as a type's own entry, is the type's choice (arrays broadcast; p > q:
    nowhere): where Lam and C are below (1 + _TIE_LO)·vc (see _certify).
    Formed in chunks of about _BLOCK_ELEMS floats."""
    x, lo, hi, big_y, big_s, c_all = bounds
    c, j = np.broadcast_arrays(c, j)
    p, q = np.empty(c.shape), np.empty(c.shape)
    step = max(1, _BLOCK_ELEMS // 16)  # 16 floats a level: (w, v, e, s) of 2 terms of 2 conditions
    with np.errstate(all="ignore"):  # overflow and inf - inf leave a level undecided
        for start in range(0, len(c), step):
            at, jj = slice(start, start + step), j[start : start + step]
            v_c, e_c, lam_lo = _value_floor(offers, c[at], x[jj])
            terms = np.zeros((4, 2, 2, len(jj)))  # (w, v, e, s), term, condition, level
            terms[0, 0], terms[0, 1] = 1.0, -1.0 - _TIE_LO
            terms[1, 0, 0], terms[1, 0, 1], terms[1, 1] = big_y[jj], c_all, v_c
            terms[2, 1], terms[3, 0, 0], terms[3, 1] = e_c, big_s[jj], lam_lo
            pp, qq = _negative_on(*terms, x[jj], lo[jj], hi[jj])
            p[at], q[at] = pp.max(axis=0), qq.min(axis=0)
    return p, q

