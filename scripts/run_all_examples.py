#!/usr/bin/env python3
"""Solve every bundled example scenario, audit and simulate its menu.csv, and
print a one-line summary each.

Per scenario: `solve`, then `verify --menu` and `simulate --menu` on the
menu.csv it wrote, `curve` (its default 201 kinks, a batched J call), and
`first-best` on the pair of its highest-a and lowest-a rows.  A non-zero
exit, a verify report that does not pass, a simulated estimate more than 4
standard errors from the analytic objective, a curve J above the solved
objective J* by more than 1e-12 max(1, |J*|) (every curve kink lies on the
solve grid, up to ulps) or a first-best report whose profit inequality fails
counts as a failure.  A copy of each scenario with k_dist scaled by 1000
(SCALE) is solved and verified too, and a non-zero exit or a verify report
that does not pass counts as a failure: the verdict must not depend on the
scale of the market.  The exit code is the number of failures.  Artifacts
(menu.csv, summary.json, report.json, estimate.json, curve.csv) land in
out/<scenario-name>/ next to this script, the first-best report.json in its
first-best/ subfolder, and the scaled copy's config.json, menu.csv,
summary.json and report.json in its x1000/ subfolder.  Run from anywhere:
paths are resolved relative to this file.
"""

import csv
import json
import pathlib
import sys

from remenu.cli import main as cli_main

HERE = pathlib.Path(__file__).resolve().parent
MAX_Z = 4.0
CURVE_TOL = 1e-12  # relative slack of a curve J over the solved J*
SCALE = 1000


def solve_and_verify_scaled(config: pathlib.Path, out: pathlib.Path) -> bool:
    """Solve and verify config with every k_dist value times SCALE, in out."""
    raw = json.loads(config.read_text())
    raw["types"]["k_dist"] = {key: SCALE * v for key, v in raw["types"]["k_dist"].items()}
    out.mkdir(parents=True, exist_ok=True)
    scaled = out / "config.json"
    scaled.write_text(json.dumps(raw, indent=2) + "\n")
    common = ["--config", str(scaled), "--out", str(out)]
    if cli_main(["solve", *common]) or cli_main(["verify", *common, "--menu", str(out / "menu.csv")]):
        return False
    return json.loads((out / "report.json").read_text())["passed"]


def run() -> int:
    failures = 0
    for config in sorted(HERE.glob("*.json")):
        out = HERE / "out" / config.stem
        menu = str(out / "menu.csv")
        steps = [
            ["solve", "--config", str(config), "--out", str(out)],
            ["verify", "--config", str(config), "--out", str(out), "--menu", menu],
            ["simulate", "--config", str(config), "--out", str(out), "--menu", menu],
            ["curve", "--config", str(config), "--out", str(out)],
        ]
        codes = [cli_main(argv) for argv in steps]
        if not codes[0]:
            rows = list(csv.DictReader((out / "menu.csv").open()))
            hi = max(rows, key=lambda r: float(r["a"]))
            lo = min(rows, key=lambda r: float(r["a"]))
            pair = f"{hi['a']},{hi['k']},{lo['a']},{lo['k']}"
            argv = ["first-best", "--config", str(config), "--out", str(out / "first-best"), "--pair", pair]
            codes.append(cli_main(argv))
        if any(codes):
            print(f"{config.name}: exit codes {codes} (solve, verify, simulate, curve, first-best)")
            failures += 1
            continue
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((out / "report.json").read_text())
        estimate = json.loads((out / "estimate.json").read_text())
        first_best = json.loads((out / "first-best" / "report.json").read_text())["pairs"][0]
        j_star = summary["objective_value"]
        curve_max = max(float(r["J"]) for r in csv.DictReader((out / "curve.csv").open()))
        curve_ok = curve_max <= j_star + CURVE_TOL * max(1.0, abs(j_star))
        scaled_ok = solve_and_verify_scaled(config, out / f"x{SCALE}")
        ok = (
            report["passed"]
            and scaled_ok
            and abs(estimate["z_score"]) <= MAX_Z
            and curve_ok
            and first_best["profit_inequality_holds"]
        )
        failures += not ok
        print(
            f"{config.name}: class={summary['contract_class']} "
            f"tau*={summary['tau_star']:.2f} J={summary['objective_value']:.2f} "
            f"assumption_holds={summary['assumption_holds']} verify={report['passed']} "
            f"simulate z={estimate['z_score']:.2f} curve max J={curve_max:.2f} "
            f"first-best holds={first_best['profit_inequality_holds']} "
            f"x{SCALE} verify={scaled_ok}" + ("" if ok else "  FAILED")
        )
    return failures


if __name__ == "__main__":
    sys.exit(run())
