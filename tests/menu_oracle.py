"""Per-row references for remenu's tabulated menus, kept as independent
oracles for the column-by-column code: the menu.csv reader that builds
csv.DictReader rows, one Contract and one MenuEntry each, and the dict-based
search for a menu's distinct contracts."""

import csv

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
