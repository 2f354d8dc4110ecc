"""The column-by-column menu.csv reader against the per-row oracles in
menu_oracle: the same columns bit for bit, the same verify and simulate
--menu outputs, and the same message for the first malformed row.  The
one-format-per-row menu.csv and curve.csv writers against the per-cell
csv.writer oracles: the same bytes."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from remenu import (
    DomainError,
    GenericMenu,
    ScenarioConfig,
    check_ic,
    check_ir,
    monte_carlo_profit,
    threshold,
)
from remenu import cli
from remenu.cli import _read_menu_csv, _write_json, main
from remenu.menus import CONTRACT_CLASSES, risk_reduction

import menu_oracle
from menu_oracle import distinct_contracts, entry_columns, read_menu_rows

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BUNDLED = sorted(p.stem for p in SCRIPTS.glob("*.json"))
SIM_N = 20000


def assert_matches_oracle(config: Path, menu_csv: Path, out: Path) -> None:
    """The menu read both ways, and remenu verify and simulate --menu on it
    against the audits of the oracle's entries, byte for byte."""
    menu, entries = _read_menu_csv(menu_csv), read_menu_rows(menu_csv)
    assert menu.columns.tobytes() == entry_columns(entries).tobytes()
    assert menu.classes == tuple(e.contract.kind for e in entries)
    assert menu.entries == tuple(entries)
    terms, of = menu._contracts
    want_terms, want_of = distinct_contracts(entries)
    assert terms.tobytes() == want_terms.tobytes() and of.tolist() == want_of.tolist()

    oracle = GenericMenu.from_entries(entries)
    ic, ir = check_ic(oracle), check_ir(oracle)
    assert ic.n_checked == check_ic(menu).n_checked == len(entries) ** 2
    want = out / "want" / "report.json"
    _write_json(want, {"incentive_compatibility": ic.to_dict(), "individual_rationality": ir.to_dict(),
                       "passed": ic.passed and ir.passed})
    argv = ["--config", str(config), "--out", str(out), "--menu", str(menu_csv)]
    assert main(["verify", *argv]) == 0
    assert (out / "report.json").read_bytes() == want.read_bytes()

    assert main(["simulate", *argv, "--n", str(SIM_N)]) == 0
    estimate = json.loads((out / "estimate.json").read_text())
    cfg = ScenarioConfig.from_file(str(config))
    mc = monte_carlo_profit(oracle, cfg.build_dist(), cfg.build_cost(), SIM_N, cfg.seed)
    assert (estimate["estimate"], estimate["std_error"]) == mc


@pytest.mark.parametrize("scale", [1, 1000])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_menus_match_oracle(name, scale, tmp_path):
    raw = json.loads((SCRIPTS / f"{name}.json").read_text())
    raw["types"]["k_dist"] = {key: scale * v for key, v in raw["types"]["k_dist"].items()}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "solved")]) == 0
    assert_matches_oracle(config, tmp_path / "solved" / "menu.csv", tmp_path / "audit")


# Five atoms (alpha, k, weight); atoms 0 and 3 share alpha.
ATOMS = [(math.exp(-3), 10000.0, 0.2), (math.exp(-2.5), 12000.0, 0.2), (math.exp(-2), 20000.0, 0.2),
         (math.exp(-3), 15000.0, 0.2), (math.exp(-1), 20000.0, 0.2)]


def discrete_config(path: Path) -> Path:
    path.write_text(json.dumps({
        "cost": {"theta": 0.1, "distortion": {"kind": "identity"}},
        "loss": {"family": "exponential"},
        "types": {
            "variant": "discrete",
            "k_dist": {"atoms": [[k, w] for _alpha, k, w in ATOMS]},
            "alpha_dist": {"atoms": [alpha for alpha, _k, _w in ATOMS]},
        },
        "solver": {"class": "stop_loss", "grid_points": 101, "refine_tol": 1e-6},
        "seed": 3,
    }))
    return path


@pytest.mark.parametrize("null_premium", ["0", "500"])
def test_discrete_menu_with_duplicate_and_null_contracts(null_premium, tmp_path):
    # Columns in another order plus an unread one, blank lines, a contract
    # offered twice (and one row repeated), a contract tied with it for
    # every a >= 22000, null rows (d = inf, and lam = 0) and a half quota share.
    config = discrete_config(tmp_path / "config.json")
    dist = ScenarioConfig.from_file(str(config)).build_dist()
    (a0, a1, a2, a3, a4), (k0, k1, k2, k3, k4) = map(np.ndarray.tolist, (dist.a_vals, dist.ks))
    rows = [
        ("stop_loss", a0, "1", k0, "20000", "4000", "x"),
        ("stop_loss", a1, "1", k1, "20000", "4000", ""),
        ("stop_loss", a2, "1", k2, "22000", "2000", "tie"),
        ("stop_loss", a3, "1", k3, "inf", null_premium, ""),
        ("quota_share", a4, "0", k4, "0", null_premium, ""),
        ("quota_share", a3, "0.5", k3, "0", "12000", ""),
        ("stop_loss", a0, "1", k0, "20000", "4000", "x"),
    ]
    lines = ["contract_class,a,lambda,k,deductible,premium,note", ""]
    lines += [",".join(map(str, row)) + ("\n" if i % 3 else "") for i, row in enumerate(rows)]
    menu_csv = tmp_path / "menu.csv"
    menu_csv.write_text("\n".join(lines) + "\n")
    assert len(_read_menu_csv(menu_csv)) == 7
    assert_matches_oracle(config, menu_csv, tmp_path / "audit")


HEADER = "a,k,contract_class,lambda,deductible,premium,risk_reduction"
GOOD = ["30000,10000,stop_loss,1,12000,18000,0", "40000,20000,quota_share,1,0,30000,10000",
        "20000,5000,stop_loss,0,inf,0,0", "50000,20000,change_loss,0.5,10000,15000,5000"]
COLUMN = {name: i for i, name in enumerate(HEADER.split(","))}


def with_fields(row: str, **fields) -> str:
    cols = row.split(",")
    for name, value in fields.items():
        cols[COLUMN[name]] = value
    return ",".join(cols)


def both_errors(path: Path) -> tuple[str, str]:
    """The message each reader raises on path."""
    messages = []
    for read in (_read_menu_csv, read_menu_rows):
        with pytest.raises(ValueError) as exc:
            read(path)
        messages.append(str(exc.value))
    return messages[0], messages[1]


@pytest.mark.parametrize(
    "fields",
    [{"contract_class": "stop-loss"}, {"lambda": "1.5"}, {"lambda": "-0.25"}, {"lambda": "nan"},
     {"deductible": "-1"}, {"deductible": "nan"}, {"a": "nan"}, {"a": "inf"}, {"k": "-inf"},
     {"premium": "-1"}, {"premium": "inf"}, {"premium": "nan"},
     {"a": "abc"}, {"k": ""}, {"lambda": "x"}, {"deductible": "1e"}, {"premium": "--1"},
     {"contract_class": "none", "premium": "-5"}],
    ids=lambda f: "+".join(f"{k}={v}" for k, v in f.items()),
)
def test_malformed_row_named_as_by_oracle(fields, tmp_path):
    path = tmp_path / "menu.csv"
    rows = [*GOOD[:2], with_fields(GOOD[2], **fields), GOOD[3]]
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    got, want = both_errors(path)
    assert got == want
    assert got.startswith("malformed menu row 3: ")


@pytest.mark.parametrize(
    "first, later",
    [({"lambda": "2"}, {"a": "abc"}), ({"a": "abc"}, {"lambda": "2"}),
     ({"premium": "-1"}, {"k": "nan"}), ({"deductible": "x"}, {"premium": "y"})],
)
def test_first_malformed_row_is_named(first, later, tmp_path):
    # Whichever check finds a fault, the first faulty row is the one named.
    path = tmp_path / "menu.csv"
    rows = [GOOD[0], with_fields(GOOD[1], **first), GOOD[2], with_fields(GOOD[3], **later)]
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    got, want = both_errors(path)
    assert got == want
    assert got.startswith("malformed menu row 2: ")


def test_non_number_named_before_a_rule_in_its_row(tmp_path):
    # The per-row reader checked lambda's range before it parsed a; every
    # field parses before any rule is checked now.
    path = tmp_path / "menu.csv"
    path.write_text("\n".join([HEADER, GOOD[0], with_fields(GOOD[1], **{"lambda": "2", "a": "abc"})]) + "\n")
    got, want = both_errors(path)
    assert got == "malformed menu row 2: could not convert string to float: 'abc'"
    assert want == "malformed menu row 2: coinsurance rate must lie in [0, 1], got 2.0"


def test_rule_named_before_a_later_short_row(tmp_path):
    path = tmp_path / "menu.csv"
    path.write_text("\n".join([HEADER, GOOD[0], with_fields(GOOD[1], premium="-1"), "1,2", GOOD[3]]) + "\n")
    got, want = both_errors(path)
    assert got == want
    assert got.startswith("malformed menu row 2: need finite a, k, premium >= 0")


def test_columns_are_the_state():
    # A menu keeps its own read-only copy of the columns it is given.
    given = np.array([[30000.0, 40000.0], [1e4, 2e4], [1.0, 0.0], [12000.0, math.inf], [18000.0, 0.0]])
    menu = GenericMenu(given, ["stop_loss", "quota_share"])
    given[4, 0] = 1e9
    assert menu.columns[4, 0] == 18000.0 and menu.classes == ("stop_loss", "quota_share")
    with pytest.raises(ValueError):
        menu.columns[4, 0] = 0.0
    assert menu.entries[1].contract.kind == "quota_share" and menu.entries[1].premium == 0.0
    with pytest.raises(DomainError, match=r"need \(5, 1\) menu columns, got shape \(5, 2\)"):
        GenericMenu(given, ["stop_loss"])
    with pytest.raises(DomainError, match="cannot audit an empty menu"):
        GenericMenu(np.empty((5, 0)), [])


def solved_menu_csv(config: Path, tmp_path: Path) -> bytes:
    """menu.csv of the solved config as cli writes it, after checking it
    against the per-cell oracle's bytes."""
    cost, dist, menu = cli._solve(ScenarioConfig.from_file(str(config)))
    cli._write_menu_csv(tmp_path / "got" / "menu.csv", menu, dist)
    a, k = cli._menu_grid(dist)
    terms = menu.terms(a, k)
    menu_oracle.write_menu_csv(tmp_path / "want.csv", menu.contract_class, (a, k, *terms, risk_reduction(terms, a)))
    got = (tmp_path / "got" / "menu.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    return got


@pytest.mark.parametrize("scale", [1, 1000])
@pytest.mark.parametrize("name", BUNDLED)
def test_menu_writer_matches_oracle_on_bundled_menus(name, scale, tmp_path):
    raw = json.loads((SCRIPTS / f"{name}.json").read_text())
    raw["types"]["k_dist"] = {key: scale * v for key, v in raw["types"]["k_dist"].items()}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    solved_menu_csv(config, tmp_path)


def test_menu_writer_matches_oracle_on_unserved_discrete_rows(tmp_path):
    got = solved_menu_csv(discrete_config(tmp_path / "config.json"), tmp_path)
    deductibles = [line.split(b",")[4] for line in got.splitlines()[1:]]
    assert b"inf" in deductibles and any(d != b"inf" for d in deductibles)


# Every float that formats specially: signed zeros, infinities, NaN, the
# smallest subnormal, the largest finite float, and integers beyond 2^53.
SPECIAL = [-math.inf, math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 2.2250738585072014e-308, 1 / 3, 1e16, 2.0**53 + 2, 1e-5, 123456.789]


@pytest.mark.parametrize("kind", CONTRACT_CLASSES)
def test_menu_writer_matches_oracle_on_special_floats(kind, monkeypatch, tmp_path):
    columns = [np.roll(SPECIAL, -shift) for shift in range(6)]
    a, k, lam, d, premium, reduction = columns
    menu = SimpleNamespace(contract_class=kind, terms=lambda a_, k_: (lam, d, premium))
    monkeypatch.setattr(cli, "_menu_grid", lambda dist: (a, k))
    monkeypatch.setattr(cli, "risk_reduction", lambda terms, a_: reduction)
    cli._write_menu_csv(tmp_path / "got" / "menu.csv", menu, None)
    menu_oracle.write_menu_csv(tmp_path / "want.csv", kind, columns)
    got = (tmp_path / "got" / "menu.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.splitlines()[1] == b"-inf,inf,%s,nan,-0,0,4.9406564584124654e-324" % kind.encode()


def test_curve_writer_matches_oracle(tmp_path):
    config = SCRIPTS / "uniform_alpha_stop_loss.json"
    out = tmp_path / "out"
    assert main(["curve", "--config", str(config), "--out", str(out), "--t-lo", "1000.1", "--n", "301"]) == 0
    cfg = ScenarioConfig.from_file(str(config))
    kind, dist = cfg.solver.solver_class, cfg.build_dist()
    ts = np.linspace(1000.1, threshold.tau_range(kind, dist)[1], 301)
    menu_oracle.write_curve_csv(tmp_path / "want.csv", ts, threshold.objective(kind, ts, dist, cfg.build_cost()))
    assert (out / "curve.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
