"""Per-row references for remenu's tabulated menus, kept as independent
oracles for the column-by-column code: the menu.csv reader that builds
csv.DictReader rows, one Contract and one MenuEntry each, the dict-based
search for a menu's distinct contracts, and the menu.csv and curve.csv
writers that format one cell at a time through csv.writer."""

import csv
import math

import numpy as np

from remenu import ConfigError, Contract, MenuEntry, NULL_DEDUCTIBLE


def read_menu_rows(path) -> list[MenuEntry]:
    """The entries of a menu.csv file, one row object at a time; the
    Contract and MenuEntry checks reject a malformed row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError("menu file contains no entries")
    entries = []
    for i, row in enumerate(rows):
        try:
            contract = Contract(
                row["contract_class"],
                lam=float(row["lambda"]),
                deductible=float(row["deductible"]),
            )
            entries.append(
                MenuEntry(float(row["a"]), float(row["k"]), contract, float(row["premium"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed menu row {i + 1}: {exc}") from exc
    return entries


def entry_columns(entries) -> np.ndarray:
    """(a, k, lam, deductible, premium) of the entries, one column per entry."""
    return np.array([(e.a, e.k, e.contract.lam, e.contract.deductible, e.premium) for e in entries]).T


def distinct_contracts(entries) -> tuple[np.ndarray, np.ndarray]:
    """The distinct contracts (lam, d, P) in order of first appearance, null
    ones (lam = 0 or d = inf) as (0, inf, P), then (0, inf, 0) for staying
    out; and the index of each entry's contract.  Contracts are equal when
    their bits are."""
    first, of, distinct = {}, [], []
    for e in entries:
        c = e.contract
        null = c.lam == 0.0 or c.deductible == NULL_DEDUCTIBLE
        terms = (0.0, NULL_DEDUCTIBLE, e.premium) if null else (c.lam, c.deductible, e.premium)
        key = np.array(terms).tobytes()
        if key not in first:
            first[key] = len(distinct)
            distinct.append(terms)
        of.append(first[key])
    return np.array([*distinct, (0.0, NULL_DEDUCTIBLE, 0.0)]).T, np.array(of)


MENU_HEADER = ["a", "k", "contract_class", "lambda", "deductible", "premium", "risk_reduction"]


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def write_csv_rows(path, header: list[str], rows) -> None:
    """header, then each row of cells, through csv.writer's excel dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_menu_csv(path, contract_class: str, columns) -> None:
    """menu.csv of the columns (a, k, lam, deductible, premium,
    risk_reduction), one _fmt per cell, the class after k."""
    rows = ([_fmt(float(x)) for x in row] for row in zip(*columns))
    write_csv_rows(path, MENU_HEADER, ([*r[:2], contract_class, *r[2:]] for r in rows))


def write_curve_csv(path, ts, js) -> None:
    """curve.csv of the kinks ts and their objectives js, one _fmt per cell."""
    write_csv_rows(path, ["t", "J"], ([_fmt(t), _fmt(j)] for t, j in zip(ts.tolist(), js.tolist())))
