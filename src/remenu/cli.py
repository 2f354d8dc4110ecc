"""Command-line front end.

Commands: solve | curve | verify | first-best | simulate.
Exit codes: 0 ok, 2 input error, 3 assumption violated.
All artifacts are deterministic given the config and seed; floats print
with 17 significant digits and +inf serializes as the string "inf".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import threshold
from .change_loss import ChangeLossMenu
from .config import ScenarioConfig
from .errors import AssumptionError, ConfigError, DomainError, UnsupportedError
from .menus import Contract, GenericMenu, MenuEntry, risk_reduction
from .quota_share import QuotaShareMenu
from .stop_loss import StopLossMenu
from .type_space import DegenerateAlpha, DiscreteTypes, ProductUniform
from .verification import check_ic, check_ir, first_best_demo, indirect_utility, monte_carlo_profit

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ASSUMPTION = 3

_MENUS = {m.contract_class: m for m in (StopLossMenu, QuotaShareMenu, ChangeLossMenu)}


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n", "utf-8")


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
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["a", "k", "contract_class", "lambda", "deductible", "premium", "risk_reduction"]
        )
        for row in zip(a, k, *terms, risk_reduction(terms, a)):
            a_i, k_i, *fields = (_fmt(float(x)) for x in row)
            writer.writerow([a_i, k_i, menu.contract_class, *fields])


def _read_menu_csv(path: Path) -> GenericMenu:
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read menu file: {exc}") from exc
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
    return GenericMenu.from_entries(entries)


def _solve(config: ScenarioConfig, solver_class: str):
    cost = config.build_cost()
    dist = config.build_dist()
    menu = threshold.solve(
        _MENUS[solver_class], dist, cost, config.solver.grid_points, config.solver.refine_tol
    )
    return cost, dist, menu


def cmd_solve(config: ScenarioConfig, out: Path, solver_class: str) -> int:
    cost, dist, menu = _solve(config, solver_class)
    report = threshold.assumption_check(dist, cost)
    _write_menu_csv(out / "menu.csv", menu, dist)
    _write_json(
        out / "summary.json",
        {
            "contract_class": solver_class,
            "tau_star": menu.tau_star,
            "objective_value": menu.objective_value,
            "L": report.lower_support,
            "sup_theta_star": report.sup_theta_star,
            "assumption_holds": report.holds,
        },
    )
    print(f"tau_star = {_fmt(menu.tau_star)}  objective = {_fmt(menu.objective_value)}")
    return EXIT_OK


def cmd_curve(config: ScenarioConfig, out: Path, solver_class: str, t_lo, t_hi, n) -> int:
    cost = config.build_cost()
    dist = config.build_dist()
    lo, hi = threshold.tau_range(solver_class, dist)
    t_lo, t_hi = lo if t_lo is None else t_lo, hi if t_hi is None else t_hi
    if not -math.inf < t_lo < t_hi < math.inf:
        raise ConfigError(f"need finite t_lo < t_hi, got ({t_lo}, {t_hi})")
    if n < 2:
        raise ConfigError(f"need n >= 2 curve points, got {n}")
    ts = np.linspace(t_lo, t_hi, n)
    js = threshold.objective(solver_class, ts, dist, cost)
    with (out / "curve.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "J"])
        writer.writerows([_fmt(t), _fmt(j)] for t, j in zip(map(float, ts), map(float, js)))
    return EXIT_OK


def cmd_verify(config: ScenarioConfig, out: Path, menu_path: Path) -> int:
    config.build_cost()
    menu = _read_menu_csv(menu_path)
    ic = check_ic(menu)
    ir = check_ir(menu)
    grid = np.array(sorted({e.a for e in menu.entries}))
    audit: dict = {"checked": False}
    if len(grid) >= 3:
        vals = indirect_utility(menu, grid)
        d = np.diff(vals)
        da = np.diff(grid)
        increasing = float(np.max(-d, initial=0.0))
        lipschitz = float(np.max(d - da, initial=0.0))
        slopes = d / np.where(da > 0, da, 1.0)
        convex = float(np.max(-np.diff(slopes), initial=0.0))
        audit = {
            "checked": True,
            "monotone_violation": increasing,
            "lipschitz_violation": lipschitz,
            "convexity_violation": convex,
            "passed": max(increasing, lipschitz, convex) <= 1e-9,
        }
    passed = ic.passed and ir.passed and audit.get("passed", True)
    _write_json(
        out / "report.json",
        {
            "incentive_compatibility": ic.to_dict(),
            "individual_rationality": ir.to_dict(),
            "indirect_utility": audit,
            "passed": passed,
        },
    )
    print("verify: " + ("pass" if passed else "fail"))
    return EXIT_OK


def cmd_first_best(config: ScenarioConfig, out: Path, pairs: list[str]) -> int:
    cost = config.build_cost()
    dist = config.build_dist()
    if not pairs:
        raise ConfigError("first-best needs at least one --pair a1,k1,a2,k2")
    reports = []
    for pair_str in pairs:
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


def cmd_simulate(config: ScenarioConfig, out: Path, solver_class: str, menu_path: Path | None, n: int) -> int:
    if n < 1:
        raise ConfigError(f"need n >= 1 samples, got {n}")
    cost, dist, solved = _solve(config, solver_class)
    menu = _read_menu_csv(menu_path) if menu_path is not None else solved
    est, se = monte_carlo_profit(menu, dist, cost, n, config.seed)
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
    print(f"estimate = {_fmt(est)} +/- {_fmt(se)}  (analytic {_fmt(solved.objective_value)})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remenu", description="Optimal reinsurance menu solver and auditors."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--class",
            dest="solver_class",
            choices=sorted(_MENUS),
            default=None,
            help="override the config's contract class",
        )
        p.add_argument("--grid", type=int, default=None, help="override solver grid points")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    common(sub.add_parser("solve", help="solve for the optimal menu"))
    p_curve = sub.add_parser("curve", help="tabulate the profit curve J(t)")
    common(p_curve)
    p_curve.add_argument("--t-lo", type=float, default=None)
    p_curve.add_argument("--t-hi", type=float, default=None)
    p_curve.add_argument("--n", type=int, default=201)
    p_verify = sub.add_parser("verify", help="audit a menu file")
    common(p_verify)
    p_verify.add_argument("--menu", required=True, help="menu.csv to audit")
    p_fb = sub.add_parser("first-best", help="full-information mimicry demo")
    common(p_fb)
    p_fb.add_argument("--pair", action="append", default=[], help="a1,k1,a2,k2 (repeatable)")
    p_sim = sub.add_parser("simulate", help="Monte Carlo profit estimate")
    common(p_sim)
    p_sim.add_argument("--menu", default=None, help="menu.csv (default: solve the config)")
    p_sim.add_argument("--n", type=int, default=100000)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ScenarioConfig.from_file(args.config)
        if args.grid is not None:
            config = replace(config, solver=replace(config.solver, grid_points=args.grid))
        if args.seed is not None:  # validated by ScenarioConfig, like the file's seed
            config = replace(config, seed=args.seed)
        solver_class = args.solver_class or config.solver.solver_class
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(config, out, solver_class)
        if args.command == "curve":
            return cmd_curve(config, out, solver_class, args.t_lo, args.t_hi, args.n)
        if args.command == "verify":
            return cmd_verify(config, out, Path(args.menu))
        if args.command == "first-best":
            return cmd_first_best(config, out, args.pair)
        if args.command == "simulate":
            menu_path = Path(args.menu) if args.menu else None
            return cmd_simulate(config, out, solver_class, menu_path, args.n)
        raise ConfigError(f"unknown command {args.command!r}")
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (ConfigError, DomainError, UnsupportedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
