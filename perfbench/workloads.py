"""The three workloads.

Each workload has a set-up and a pass, the unit the timed window repeats.
The solve workloads run ``remenu verify`` on each menu right after solving
it.  A pass's ``outputs`` hold the canonical text of every result, so
passes, and traced against untraced runs, can be compared bit for bit.
The gate checks the outputs outside every timed window.  Every timed
operation goes through the workload's Stopwatch (see hostspeed).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import inputs
from hostspeed import Stopwatch

MC_Z_LIMIT = 5.0
IDENTITY_TOL = 1e-8  # j_general against the weighted single-kink sum
MAX_MESSAGES = 20


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)
        return ok

    def checks(self, label: str, failures: list[str]) -> bool:
        return self.op(not failures, f"{label}: {'; '.join(failures)}")

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library operation; an exception counts as a failure."""
        try:
            value = fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - the run goes on and reports it
            self.op(False, f"{label}: {traceback.format_exc(limit=3).strip()}")
            return None
        self.op(True)
        return value


def _cli_main(argv: list[str]) -> int:
    from remenu import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def run_cli(argv: list[str], sw: Stopwatch) -> tuple[int, float, str]:
    """remenu's CLI in this process: (exit code, adjusted seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, seconds = sw.time(_cli_main, argv)
    return code, seconds, err.getvalue().strip()


def write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1), "utf-8")
    return path


@dataclass
class PassResult:
    wall: float = 0.0
    solve_times: list[float] = field(default_factory=list)
    audit_times: list[float] = field(default_factory=list)
    verify_times: list[float] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, tally: Tally, sw: Stopwatch):
        self.seed = seed
        self.work = work
        self.tally = tally
        self.sw = sw
        self.setup_solve_times: list[list[float]] = []
        self.setup_outputs: dict = {}
        self.j_gaps: list[float] = []

    def setup(self) -> float:
        """Build the workload's inputs; returns the adjusted seconds taken."""
        raise NotImplementedError

    def run_pass(self, pass_dir: Path) -> PassResult:
        raise NotImplementedError

    def verify(self, res: PassResult, name: str, menu_path: Path, cfg_path: Path) -> None:
        """``remenu verify`` of one solved menu, run right after its solve so
        that verify samples spread over the whole pass; not part of the
        pass time."""
        out = menu_path.parent / "verify"
        argv = ["verify", "--config", str(cfg_path), "--out", str(out), "--menu", str(menu_path)]
        code, seconds, err = run_cli(argv, self.sw)
        if self.tally.op(code == 0, f"verify {name}: exit {code} {err}"):
            res.verify_times.append(seconds)
            res.audit_times.append(seconds)
            report = (out / "report.json").read_text("utf-8")
            self.tally.op(json.loads(report)["passed"], f"verify {name}: report does not pass")
            res.outputs[f"verify {name}"] = report

    def gate(self, result: PassResult) -> None:
        raise NotImplementedError

    def self_check_perturbation(self) -> list[str]:
        """Outputs with tau* moved by 1e-3 relative that the gate let pass."""
        return []


# -- sweep-exp ----------------------------------------------------------------


class SweepExp(Workload):
    """17 CLI solves of exponential markets at the default grid."""

    name = "sweep-exp"

    def setup(self) -> float:
        return self.sw.time(self._build)[1]

    def _build(self) -> None:
        from remenu.config import ScenarioConfig

        self.inputs = inputs.sweep_exp_inputs(self.seed)
        self.cfg_paths = {}
        self.markets = {}
        for inp in self.inputs:
            path = write_json(self.work / "inputs" / f"{inp.name}.json", inp.config)
            self.cfg_paths[inp.name] = path
            sc = self.tally.call(f"config {inp.name}", ScenarioConfig.from_file, str(path))
            if sc is not None:
                self.markets[inp.name] = (sc.build_dist(), sc.build_cost())

    def run_pass(self, pass_dir: Path) -> PassResult:
        res = PassResult()
        for inp in self.inputs:
            out = pass_dir / inp.name
            cfg_path = self.cfg_paths[inp.name]
            code, seconds, err = run_cli(["solve", "--config", str(cfg_path), "--out", str(out)], self.sw)
            res.wall += seconds
            if not self.tally.op(code == 0, f"solve {inp.name}: exit {code} {err}"):
                continue
            res.solve_times.append(seconds)
            res.outputs[inp.name] = (
                (out / "summary.json").read_text("utf-8"),
                (out / "menu.csv").read_text("utf-8"),
            )
            self.verify(res, inp.name, out / "menu.csv", cfg_path)
        return res

    def _check(self, inp, out: gate.SolveOutput) -> tuple[list[str], float | None]:
        dist, cost = self.markets[inp.name]
        fails = gate.check_consistency(out, inp.solver_class, dist, cost)
        fails += gate.check_menu_closed_form(out, inp.config, inp.solver_class)
        gap = None
        if inp.oracle == "closed_form":
            more, gap = gate.check_closed_form(out, inp.config, inp.solver_class)
            fails += more + gate.check_reference(out, inp.name)
        elif inp.oracle == "reference":
            fails += gate.check_reference(out, inp.name)
        elif inp.oracle == "live":
            fails += gate.check_live(out, inp.solver_class, dist, cost)
        else:
            grid = inp.config["solver"]["grid_points"]
            more, gap = gate.check_enumerate(out, inp.solver_class, dist, cost, grid)
            fails += more
        return fails, gap

    def gate(self, result: PassResult) -> None:
        self._last = {}
        for inp in self.inputs:
            if inp.name not in result.outputs or inp.name not in self.markets:
                self.tally.op(False, f"gate {inp.name}: no output")
                continue
            out = gate.SolveOutput.from_summary(*result.outputs[inp.name])
            fails, gap = self._check(inp, out)
            self.tally.checks(f"gate {inp.name}", fails)
            if gap is not None:
                self.j_gaps.append(gap)
            self._last[inp.name] = out

    def self_check_perturbation(self) -> list[str]:
        missed = []
        for inp in self.inputs:
            if inp.name in getattr(self, "_last", {}):
                fails, _gap = self._check(inp, self._last[inp.name].perturbed(1e-3))
                if not fails:
                    missed.append(inp.name)
        return missed


# -- generic-loss ---------------------------------------------------------------


def _menu_csv(menu, dist) -> str:
    """The rule menu tabulated at the market's atoms, in remenu's menu.csv
    format (floats at 17 significant digits, +inf as "inf")."""

    def fmt(x: float) -> str:
        return ("inf" if x > 0 else "-inf") if math.isinf(x) else "%.17g" % x

    lines = [",".join(gate.MENU_FIELDS)]
    for a, k in zip(dist.a_vals, dist.ks):
        e = menu.entry(float(a), float(k))
        c = e.contract
        rr = float(e.risk_reduction(float(a)))
        fields = [fmt(float(a)), fmt(float(k)), c.kind, fmt(c.lam), fmt(c.deductible), fmt(e.premium), fmt(rr)]
        lines.append(",".join(fields))
    return "\r\n".join(lines) + "\r\n"


class GenericLoss(Workload):
    """Library-level solves of two discrete markets without closed forms."""

    name = "generic-loss"
    classes = ("stop_loss", "quota_share", "change_loss")

    def setup(self) -> float:
        return self.sw.time(self._build)[1]

    def _build(self) -> None:
        self.params = inputs.generic_loss_params(self.seed)
        self.markets = {}
        self.cfg_paths = {}
        for p in self.params:
            built = self.tally.call(f"market {p['name']}", inputs.build_generic_market, p)
            if built is not None:
                self.markets[p["name"]] = built
            self.cfg_paths[p["name"]] = write_json(
                self.work / "inputs" / f"{p['name']}.json", inputs.verify_config(p)
            )

    def run_pass(self, pass_dir: Path) -> PassResult:
        from remenu import change_loss, quota_share, stop_loss

        modules = {"stop_loss": stop_loss, "quota_share": quota_share, "change_loss": change_loss}
        res = PassResult()
        for market, (dist, cost) in self.markets.items():
            for cls in self.classes:
                name = f"{market}/{cls}"
                menu, seconds = self.sw.time(
                    self.tally.call, f"solve {name}", modules[cls].solve, dist, cost, grid_points=inputs.GENERIC_GRID
                )
                res.wall += seconds
                if menu is None:
                    continue
                res.solve_times.append(seconds)
                text = self.tally.call(f"tabulate {name}", _menu_csv, menu, dist)
                if text is not None:
                    path = pass_dir / name / "menu.csv"
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text, "utf-8")
                    res.outputs[name] = (repr(menu.tau_star), repr(menu.objective_value), text)
                    self.verify(res, name, path, self.cfg_paths[market])
        return res

    def _check(self, name: str, out: gate.SolveOutput) -> tuple[list[str], float]:
        market, cls = name.split("/")
        dist, cost = self.markets[market]
        fails = gate.check_consistency(out, cls, dist, cost)
        more, gap = gate.check_enumerate(out, cls, dist, cost, inputs.GENERIC_GRID)
        return fails + more, gap

    def gate(self, result: PassResult) -> None:
        self._last = {}
        expected = [f"{m}/{c}" for m in self.markets for c in self.classes]
        for name in expected:
            if name not in result.outputs:
                self.tally.op(False, f"gate {name}: no output")
                continue
            tau, value, text = result.outputs[name]
            out = gate.SolveOutput(float(tau), float(value), text)
            fails, gap = self._check(name, out)
            self.tally.checks(f"gate {name}", fails)
            self.j_gaps.append(gap)
            self._last[name] = out

    def self_check_perturbation(self) -> list[str]:
        return [
            name
            for name, out in getattr(self, "_last", {}).items()
            if not self._check(name, out.perturbed(1e-3))[0]
        ]


# -- audit -----------------------------------------------------------------------


def _rule_menu(solver_class: str, tau: float, value: float, cost, dist):
    from remenu import change_loss, quota_share, stop_loss

    cls = {
        "stop_loss": stop_loss.StopLossMenu,
        "quota_share": quota_share.QuotaShareMenu,
        "change_loss": change_loss.ChangeLossMenu,
    }[solver_class]
    return cls(tau, value, cost, dist)


def _tabulated_menu(menu_text: str):
    from remenu import Contract, GenericMenu, MenuEntry

    entries = [
        MenuEntry(r["a"], r["k"], Contract(r["contract_class"], r["lambda"], r["deductible"]), r["premium"])
        for r in gate.parse_menu(menu_text)
    ]
    return GenericMenu.from_entries(entries)


def _solved_menu(cfg: dict, cfg_path: Path, menu_path: Path, summary: str, menu_text: str) -> dict:
    """Market, rule menu and tabulated menu of one CLI-solved config."""
    from remenu.config import ScenarioConfig

    sc = ScenarioConfig.from_file(str(cfg_path))
    dist, cost = sc.build_dist(), sc.build_cost()
    solved = gate.SolveOutput.from_summary(summary, menu_text)
    cls = cfg["solver"]["class"]
    return {
        "class": cls,
        "config": cfg,
        "config_path": cfg_path,
        "menu_path": menu_path,
        "dist": dist,
        "cost": cost,
        "solved": solved,
        "rule": _rule_menu(cls, solved.tau, solved.value, cost, dist),
        "table": _tabulated_menu(menu_text),
    }


class Audit(Workload):
    """The verification toolkit on the three solved product-market menus."""

    name = "audit"

    def setup(self) -> float:
        """Solve the three menus with the CLI and rebuild them in memory."""
        self.params = inputs.audit_params(self.seed)
        self.menus = {}
        times = []
        total = 0.0
        for name in inputs.PRODUCT_CONFIGS:
            cfg = inputs.bundled(name)
            cfg_path = write_json(self.work / "inputs" / f"{name}.json", cfg)
            out = self.work / "setup" / name
            code, seconds, err = run_cli(["solve", "--config", str(cfg_path), "--out", str(out)], self.sw)
            total += seconds
            if not self.tally.op(code == 0, f"solve {name}: exit {code} {err}"):
                continue
            times.append(seconds)
            summary = (out / "summary.json").read_text("utf-8")
            menu_text = (out / "menu.csv").read_text("utf-8")
            self.setup_outputs[name] = (summary, menu_text)
            self.menus[name], seconds = self.sw.time(_solved_menu, cfg, cfg_path, out / "menu.csv", summary, menu_text)
            total += seconds
        self.setup_solve_times.append(times)
        if self.menus:
            first = next(iter(self.menus.values()))
            self.market = first["dist"], first["cost"]
            (lo, hi), seconds = self.sw.time(lambda d: (d.lower_support(), d.upper_support()), first["dist"])
            self.support = lo, hi
            total += seconds
        return total

    def _audit_menu(self, i: int, name: str, m: dict, pass_dir: Path, res: PassResult) -> float:
        """The five audit operations on one menu; returns their summed
        adjusted seconds (each is timed on its own, see hostspeed)."""
        from remenu import verification

        p = self.params
        out = pass_dir / name
        argv = ["verify", "--config", str(m["config_path"]), "--out", str(out), "--menu", str(m["menu_path"])]
        code, total, err = run_cli(argv, self.sw)
        if self.tally.op(code == 0, f"verify {name}: exit {code} {err}"):
            res.verify_times.append(total)
        dist, cost, rule = m["dist"], m["cost"], m["rule"]
        calls = {
            "check_ic": (verification.check_ic, rule, dist, inputs.AUDIT_PAIRS, np.random.default_rng(p["ic_seed"] + i)),
            "check_ir": (verification.check_ir, rule, dist, inputs.AUDIT_PAIRS, np.random.default_rng(p["ir_seed"] + i)),
            "mc rule": (verification.monte_carlo_profit, rule, dist, cost, inputs.AUDIT_MC_SAMPLES, p["mc_seed"] + i),
            "mc table": (verification.monte_carlo_profit, m["table"], dist, cost, inputs.AUDIT_MC_SAMPLES, p["mc_seed"] + i),
        }
        got = {}
        for label, (fn, *args) in calls.items():
            got[label], seconds = self.sw.time(self.tally.call, f"{label} {name}", fn, *args)
            total += seconds
        ic, ir = got["check_ic"], got["check_ir"]
        report = (out / "report.json").read_text("utf-8") if code == 0 else None
        res.outputs[name] = (report, ic.to_dict() if ic else None, ir.to_dict() if ir else None, got["mc rule"], got["mc table"])
        return total

    def _identity(self) -> tuple[list, float]:
        """j_general against the weighted single-kink sums, both classes;
        returns the results and the summed adjusted seconds."""
        from remenu import bl_decompose, change_loss, quota_share, verification

        dist, cost = self.market
        rng = np.random.default_rng(self.params["utilities_seed"])
        identity, total = [], 0.0
        for v in verification.random_utilities(inputs.AUDIT_UTILITIES, *self.support, rng):
            for cls, jp in (("quota_share", quota_share.j_phi), ("change_loss", change_loss.j_phi_cl)):
                lhs, seconds = self.sw.time(
                    self.tally.call, f"j_general {cls}", verification.j_general, v, dist, cost, cls
                )
                rhs, more = self.sw.time(lambda: sum(w * jp(tk, dist, cost) for tk, w in bl_decompose(v)))
                total += seconds + more
                identity.append((cls, lhs, rhs))
        return identity, total

    def _first_best(self) -> list:
        from remenu import verification

        dist, cost = self.market
        a, k = dist.sample(4 * inputs.AUDIT_FIRST_BEST_PAIRS, np.random.default_rng(self.params["pairs_seed"]))
        pairs = []
        for i in range(0, len(a) - 1, 2):
            if len(pairs) == inputs.AUDIT_FIRST_BEST_PAIRS:
                break
            (a1, k1), (a2, k2) = sorted(((float(a[i]), float(k[i])), (float(a[i + 1]), float(k[i + 1]))), reverse=True)
            if a2 < a1:
                r = self.tally.call("first_best", verification.first_best_demo, a1, k1, a2, k2, dist, cost)
                pairs.append(r.to_dict() if r else None)
        return pairs

    def run_pass(self, pass_dir: Path) -> PassResult:
        res = PassResult()
        for i, (name, m) in enumerate(self.menus.items()):
            seconds = self._audit_menu(i, name, m, pass_dir, res)
            res.audit_times.append(seconds)
            res.wall += seconds
        res.outputs["j_general"], seconds = self._identity()
        res.wall += seconds
        res.outputs["first_best"], seconds = self.sw.time(self._first_best)
        res.wall += seconds
        return res

    def gate(self, result: PassResult) -> None:
        for name, (summary, menu_text) in self.setup_outputs.items():
            m = self.menus[name]
            out = gate.SolveOutput.from_summary(summary, menu_text)
            fails = gate.check_consistency(out, m["class"], m["dist"], m["cost"])
            fails += gate.check_menu_closed_form(out, m["config"], m["class"])
            fails += gate.check_reference(out, name)
            self.tally.checks(f"gate setup {name}", fails)
        for name, m in self.menus.items():
            got = result.outputs.get(name)
            if got is None:
                self.tally.op(False, f"gate {name}: no output")
                continue
            report, ic, ir, mc_rule, mc_table = got
            fails = []
            if report is None or not json.loads(report)["passed"]:
                fails.append("verify report does not pass")
            if not (ic and ic["passed"] and ir and ir["passed"]):
                fails.append("rule-menu IC/IR audit does not pass")
            if mc_rule is None or not abs(mc_rule[0] - m["solved"].value) <= MC_Z_LIMIT * mc_rule[1]:
                fails.append(f"Monte Carlo {mc_rule} vs J {m['solved'].value!r}")
            if mc_table is None or not all(map(math.isfinite, mc_table)):
                fails.append(f"tabulated-menu Monte Carlo {mc_table}")
            self.tally.checks(f"gate audit {name}", fails)
        best = {m["class"]: m["solved"].value for m in self.menus.values()}
        fails = []
        for cls, lhs, rhs in result.outputs.get("j_general", []):
            if lhs is None or abs(lhs - rhs) > IDENTITY_TOL * max(1.0, abs(rhs)):
                fails.append(f"{cls}: j_general {lhs!r} vs weighted sum {rhs!r}")
            elif cls in best and lhs > best[cls] + IDENTITY_TOL:
                fails.append(f"{cls}: candidate J {lhs!r} beats the optimum {best[cls]!r}")
        self.tally.checks("gate j_general identity", fails)
        fails = []
        for r in result.outputs.get("first_best", []):
            if r is None:
                fails.append("first_best_demo raised")
                continue
            a1, d2 = r["type_1"][0], r["deductibles"][1]
            if r["mimic_gain"] < -1e-12 or (d2 < a1 and r["mimic_gain"] <= 1e-12):
                fails.append(f"mimic gain {r['mimic_gain']!r} at {r['type_1']}, {r['type_2']}")
            if not r["profit_inequality_holds"]:
                fails.append(f"mimic profit above first-best at {r['type_1']}, {r['type_2']}")
        if len(result.outputs.get("first_best", [])) != inputs.AUDIT_FIRST_BEST_PAIRS:
            fails.append("fewer first-best pairs than drawn for")
        self.tally.checks("gate first_best", fails)

    def self_check_perturbation(self) -> list[str]:
        missed = []
        for name, m in self.menus.items():
            out = m["solved"].perturbed(1e-3)
            fails = gate.check_consistency(out, m["class"], m["dist"], m["cost"])
            fails += gate.check_menu_closed_form(out, m["config"], m["class"])
            fails += gate.check_reference(out, name)
            if not fails:
                missed.append(name)
        return missed


WORKLOADS = {w.name: w for w in (SweepExp, Audit, GenericLoss)}
