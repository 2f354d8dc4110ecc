"""Command-line front end.

Commands: solve | curve | verify | first-best | simulate.
Every setting (contract class, grid, seed) comes from the config; the
flags give only a command's own inputs and its output directory.
Exit codes: 0 ok, 2 input error, 3 assumption violated.
All artifacts are deterministic given the config and seed; floats print
with 17 significant digits and +inf serializes as the string "inf".
The size flags are capped (MAX_CURVE_POINTS, MAX_SAMPLES) before any allocation.
The parser is built once per process, at the first ``main`` call, not at import.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import threshold
from .config import ScenarioConfig
from .errors import AssumptionError, ConfigError, DomainError, UnsupportedError
from .menus import GenericMenu, risk_reduction
from .type_space import DegenerateAlpha, DiscreteTypes, ProductUniform
from .verification import check_ic, check_ir, first_best_demo, monte_carlo_profit

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3
MAX_CURVE_POINTS = 10**6
MAX_SAMPLES = 10**7


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _open(path: Path):
    """Open an artifact, making --out at the first write: a failed command leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", newline="", encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    with _open(path) as fh:
        fh.write(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, row_format: str, columns) -> None:
    """A CSV file (csv.writer's excel dialect): the header, then one
    ``row_format % row`` line per row of the float columns."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with _open(path) as fh:
        fh.write(header + "\r\n")
        fh.writelines(map(row_format.__mod__, rows))


def _menu_grid(dist) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (a, k) arrays at which to tabulate a solved rule menu."""
    if isinstance(dist, DiscreteTypes):
        return dist.a_vals, dist.ks
    if isinstance(dist, DegenerateAlpha):
        ks = np.linspace(dist.k_lo, dist.k_hi, 101)
        return np.asarray(dist.a_of_k(ks), dtype=float), ks
    if isinstance(dist, ProductUniform):
        ks = np.repeat(np.linspace(dist.k_lo, dist.k_hi, 21), 11)
        alphas = np.tile(np.linspace(dist.alpha_lo, dist.alpha_hi, 11), 21)
        return np.asarray(dist.family.var(alphas, ks), dtype=float), ks
    raise ConfigError("unsupported type distribution for menu tabulation")


def _write_menu_csv(path: Path, menu, dist) -> None:
    a, k = _menu_grid(dist)
    terms = menu.terms(a, k)
    header = "a,k,contract_class,lambda,deductible,premium,risk_reduction"
    row_format = "%.17g,%.17g," + menu.contract_class + ",%.17g,%.17g,%.17g,%.17g\r\n"
    _write_csv(path, header, row_format, (a, k, *terms, risk_reduction(terms, a)))


# The numeric columns of menu.csv, in the order of GenericMenu.columns.
MENU_NUMBERS = ("a", "k", "lambda", "deductible", "premium")


def _read_menu_csv(path: Path) -> GenericMenu:
    """The menu in a menu.csv file, read in one csv pass, column by column.

    The header must name the columns a, k, contract_class, lambda,
    deductible and premium; others (risk_reduction) are not read.  Blank
    lines are skipped, and every other row must have as many fields as the
    header.  Errors name the missing column or the first malformed row
    (counted from 1 after the header, blank lines not counted).
    """
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = list(filter(None, reader))  # blank lines read as []
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read menu file: {exc}") from exc
    if not rows:
        raise ConfigError("menu file contains no entries")
    where = {name: i for i, name in enumerate(header)}
    missing = [name for name in ("contract_class", *MENU_NUMBERS) if name not in where]
    if missing:
        named = ", ".join(map(repr, missing))
        raise ConfigError(f"menu file has no column {named} (header: {','.join(header)})")
    return GenericMenu(*_menu_columns(rows, where, len(header)))


def _menu_columns(rows: list[list[str]], where: dict, width: int) -> tuple[np.ndarray, tuple]:
    """GenericMenu.columns and classes of menu.csv rows, each numeric column
    converted by float() at once.  At the first row with the wrong field
    count or a field float() rejects, the rows above it are checked as a
    menu first (so that a rule they break is named first), then that row
    is named."""
    if set(map(len, rows)) == {width}:
        fields = list(zip(*rows))
        try:
            numbers = [np.fromiter(map(float, fields[where[c]]), float, len(rows)) for c in MENU_NUMBERS]
            return np.array(numbers), fields[where["contract_class"]]
        except ValueError:
            pass
    for i, row in enumerate(rows):
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields as in the header, got {len(row)}")
            for c in MENU_NUMBERS:
                float(row[where[c]])
        except ValueError as exc:
            if i:
                GenericMenu(*_menu_columns(rows[:i], where, width))
            raise ConfigError(f"malformed menu row {i + 1}: {exc}") from exc
    raise AssertionError("unreachable: some row has a bad field count or a non-number")


def _solve(config: ScenarioConfig):
    cost, dist = config.build_cost(), config.build_dist()
    solver = config.solver
    menu = threshold.solve(solver.solver_class, dist, cost, solver.grid_points, solver.refine_tol)
    return cost, dist, menu


def cmd_solve(config: ScenarioConfig, out: Path, args) -> int:
    cost, dist, menu = _solve(config)
    report = threshold.assumption_check(dist, cost, menu.profile)
    _write_menu_csv(out / "menu.csv", menu, dist)
    _write_json(
        out / "summary.json",
        {
            "contract_class": menu.contract_class,
            "tau_star": menu.tau_star,
            "objective_value": menu.objective_value,
            "L": report.lower_support,
            "sup_theta_star": report.sup_theta_star,
            "assumption_holds": report.holds,
        },
    )
    print("tau_star = %.17g  objective = %.17g" % (menu.tau_star, menu.objective_value))
    return EXIT_OK


def cmd_curve(config: ScenarioConfig, out: Path, args) -> int:
    if not 2 <= args.n <= MAX_CURVE_POINTS:
        raise ConfigError(f"--n must lie in [2, {MAX_CURVE_POINTS}] curve points, got {args.n}")
    kind = config.solver.solver_class
    cost, dist = config.build_cost(), config.build_dist()
    threshold.require_assumption(kind, dist, cost)
    lo, hi = threshold.tau_range(kind, dist)
    t_lo = lo if args.t_lo is None else args.t_lo
    t_hi = hi if args.t_hi is None else args.t_hi
    if not -math.inf < t_lo < t_hi < math.inf:
        raise ConfigError(f"need finite t_lo < t_hi, got ({t_lo}, {t_hi})")
    ts = np.linspace(t_lo, t_hi, args.n)
    _write_csv(out / "curve.csv", "t,J", "%.17g,%.17g\r\n", (ts, threshold.objective(kind, ts, dist, cost)))
    return EXIT_OK


def cmd_verify(config: ScenarioConfig, out: Path, args) -> int:
    menu = _read_menu_csv(Path(args.menu))
    ic = check_ic(menu)
    ir = check_ir(menu)
    passed = ic.passed and ir.passed
    _write_json(
        out / "report.json",
        {
            "incentive_compatibility": ic.to_dict(),
            "individual_rationality": ir.to_dict(),
            "passed": passed,
        },
    )
    print("verify: " + ("pass" if passed else "fail"))
    return EXIT_OK


def cmd_first_best(config: ScenarioConfig, out: Path, args) -> int:
    cost, dist = config.build_cost(), config.build_dist()
    if not args.pair:
        raise ConfigError("first-best needs at least one --pair a1,k1,a2,k2")
    reports = []
    for pair_str in args.pair:
        try:
            parts = [float(x) for x in pair_str.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 4 or not all(map(math.isfinite, parts)):
            raise ConfigError(f"--pair must be four finite numbers a1,k1,a2,k2, got {pair_str!r}")
        a1, k1, a2, k2 = parts
        reports.append(first_best_demo(a1, k1, a2, k2, dist, cost).to_dict())
    _write_json(out / "report.json", {"pairs": reports})
    return EXIT_OK


def cmd_simulate(config: ScenarioConfig, out: Path, args) -> int:
    n = args.n
    if not 1 <= n <= MAX_SAMPLES:
        raise ConfigError(f"--n must lie in [1, {MAX_SAMPLES}] samples, got {n}")
    menu = _read_menu_csv(Path(args.menu)) if args.menu else None  # a bad menu fails before the solve
    cost, dist, solved = _solve(config)
    est, se = monte_carlo_profit(solved if menu is None else menu, dist, cost, n, config.seed)
    z = (est - solved.objective_value) / se if se > 0 else 0.0
    _write_json(
        out / "estimate.json",
        {
            "estimate": est,
            "std_error": se,
            "analytic_objective": solved.objective_value,
            "z_score": z,
            "n": n,
            "seed": config.seed,
        },
    )
    print("estimate = %.17g +/- %.17g  (analytic %.17g)" % (est, se, solved.objective_value))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="remenu", description="Optimal reinsurance menu solver and auditors."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(run=run)
        return p

    command("solve", "solve for the optimal menu", cmd_solve)
    p_curve = command("curve", "tabulate the profit curve J(t)", cmd_curve)
    p_curve.add_argument("--t-lo", type=float, default=None)
    p_curve.add_argument("--t-hi", type=float, default=None)
    p_curve.add_argument("--n", type=int, default=201)
    p_verify = command("verify", "audit a menu file", cmd_verify)
    p_verify.add_argument("--menu", required=True, help="menu.csv to audit")
    p_fb = command("first-best", "full-information mimicry demo", cmd_first_best)
    p_fb.add_argument("--pair", action="append", default=[], help="a1,k1,a2,k2 (repeatable)")
    p_sim = command("simulate", "Monte Carlo profit estimate", cmd_simulate)
    p_sim.add_argument("--menu", default=None, help="menu.csv (default: solve the config)")
    p_sim.add_argument("--n", type=int, default=100000)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ScenarioConfig.from_file(args.config)
        return args.run(config, Path(args.out), args)
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (ConfigError, DomainError, UnsupportedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
