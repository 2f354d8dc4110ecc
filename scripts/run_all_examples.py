#!/usr/bin/env python3
"""Solve every bundled example scenario, audit and simulate its menu.csv, and
print a one-line summary each.

Per scenario: `solve`, then `verify --menu` and `simulate --menu` on the
menu.csv it wrote.  A non-zero exit, a verify report that does not pass or a
simulated estimate more than 4 standard errors from the analytic objective
counts as a failure; the exit code is the number of failures.  Artifacts
(menu.csv, summary.json, report.json, estimate.json) land in
out/<scenario-name>/ next to this script.  Run from anywhere: paths are
resolved relative to this file.
"""

import json
import pathlib
import sys

from remenu.cli import main as cli_main

HERE = pathlib.Path(__file__).resolve().parent
MAX_Z = 4.0


def run() -> int:
    failures = 0
    for config in sorted(HERE.glob("*.json")):
        out = HERE / "out" / config.stem
        menu = str(out / "menu.csv")
        steps = [
            ["solve", "--config", str(config), "--out", str(out)],
            ["verify", "--config", str(config), "--out", str(out), "--menu", menu],
            ["simulate", "--config", str(config), "--out", str(out), "--menu", menu],
        ]
        codes = [cli_main(argv) for argv in steps]
        if any(codes):
            print(f"{config.name}: exit codes {codes} (solve, verify, simulate)")
            failures += 1
            continue
        summary = json.loads((out / "summary.json").read_text())
        report = json.loads((out / "report.json").read_text())
        estimate = json.loads((out / "estimate.json").read_text())
        ok = report["passed"] and abs(estimate["z_score"]) <= MAX_Z
        failures += not ok
        print(
            f"{config.name}: class={summary['contract_class']} "
            f"tau*={summary['tau_star']:.2f} J={summary['objective_value']:.2f} "
            f"assumption_holds={summary['assumption_holds']} verify={report['passed']} "
            f"simulate z={estimate['z_score']:.2f}" + ("" if ok else "  FAILED")
        )
    return failures


if __name__ == "__main__":
    sys.exit(run())
