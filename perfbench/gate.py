"""Correctness gate: every solved output is checked by a route independent
of the solver's search, outside every timed window.

* consistency: the reported J equals the public objective at the reported
  tau*, and for exponential markets every menu.csv row equals the
  closed-form contract rule at that tau*;
* closed_form: the a = 3k market's optima 225000/(5 - ln 1.1) (stop-loss)
  and 4500000/98 (quota-share), with their closed-form J;
* reference: tau*, J and menu.csv as recorded at the seed commit, within
  |dtau*| <= refine_tol tau*, |dJ| <= 1e-10 |J| (relative);
* enumerate: on a discrete market J is nondecreasing between atoms, so the
  exact optimum is the best atom; the solver may fall short of it by at
  most its grid step times the largest slope of J, (1 + theta) h;
* live: the reported optimum beats the objective on a 201-point grid and
  at tau* (1 +- 1e-4) and tau* (1 +- 1e-3).

Each check returns a list of failure messages (empty when it passes) and,
where an exact optimum exists, the relative shortfall
(J_oracle - J_reported) / |J_oracle| that feeds ``j_gap_rel``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LN11 = math.log(1.1)
REFINE_TOL = 1e-6
J_REF_TOL = 1e-10
J_SELF_TOL = 1e-12
ROW_TOL = 1e-9
MENU_FIELDS = ("a", "k", "contract_class", "lambda", "deductible", "premium", "risk_reduction")


def objective_of(solver_class: str):
    from remenu import change_loss, quota_share, stop_loss

    return {
        "stop_loss": stop_loss.objective,
        "quota_share": quota_share.j_phi,
        "change_loss": change_loss.j_phi_cl,
    }[solver_class]


def parse_menu(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return [
        {f: (r[f] if f == "contract_class" else float(r[f])) for f in MENU_FIELDS}
        for r in rows
    ]


def _close(x: float, y: float, rel: float, abs_floor: float = 0.0) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= max(rel * max(abs(x), abs(y)), abs_floor)


@dataclass(frozen=True)
class SolveOutput:
    """What one solve reported: tau*, J and (when tabulated) menu.csv text."""

    tau: float
    value: float
    menu_text: str | None = None

    @classmethod
    def from_summary(cls, summary_text: str, menu_text: str | None) -> "SolveOutput":
        s = json.loads(summary_text)
        return cls(float(s["tau_star"]), float(s["objective_value"]), menu_text)

    def perturbed(self, rel: float) -> "SolveOutput":
        return SolveOutput(self.tau * (1.0 + rel), self.value, self.menu_text)


def check_consistency(out: SolveOutput, solver_class: str, dist, cost) -> list[str]:
    if not math.isfinite(out.value):
        return [f"objective value {out.value} is not finite"]
    if math.isinf(out.tau):
        return [] if out.value == 0.0 else [f"shut-down optimum reports J = {out.value}"]
    j = objective_of(solver_class)(out.tau, dist, cost)
    if not _close(j, out.value, J_SELF_TOL, J_SELF_TOL):
        return [f"reported J {out.value!r} != J(tau*) {j!r}"]
    return []


def _exp_params(config: dict) -> tuple[float, float, float]:
    theta = float(config["cost"]["theta"])
    dist_cfg = config["cost"].get("distortion", {"kind": "identity"})
    c = 1.0 if dist_cfg["kind"] == "identity" else float(dist_cfg.get("param", 1.0))
    p0 = float(config.get("loss", {}).get("point_mass_zero", 0.0))
    return theta, c, p0


def expected_rows(config: dict, solver_class: str, tau: float, rows: list[dict]) -> list[dict]:
    """Closed-form menu rows of an exponential market at kink tau."""
    theta, c, p0 = _exp_params(config)
    out = []
    for r in rows:
        a, k = r["a"], r["k"]
        ts = max((k / c) * math.log1p(theta) + k * math.log(1.0 - p0), 0.0)
        amp = (1.0 + theta) * (1.0 - p0) ** c * (k / c)
        xi = ts + amp * math.exp(-c * ts / k)
        full = amp
        if solver_class == "quota_share":
            served = a > tau or (a == tau and a >= full)
            lam, ded, prem = (1.0, 0.0, tau) if served else (0.0, 0.0, 0.0)
        else:
            served = a > tau or (a == tau and a >= xi)
            if not served:
                lam, ded, prem = 0.0, math.inf, 0.0
            else:
                ded = min(ts, tau) if (solver_class == "stop_loss" and a > tau) else ts
                lam, prem = 1.0, tau - ded
        rr = lam * max(a - ded, 0.0) - prem if lam > 0.0 else -prem
        out.append(
            {"a": a, "k": k, "contract_class": solver_class, "lambda": lam,
             "deductible": ded, "premium": prem, "risk_reduction": rr}
        )
    return out


def compare_rows(got: list[dict], want: list[dict], abs_tol: float, what: str) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} menu rows, expected {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        for f in MENU_FIELDS:
            gv, wv = g[f], w[f]
            ok = gv == wv if f == "contract_class" else _close(gv, wv, ROW_TOL, abs_tol)
            if not ok:
                return [f"{what}: row {i + 1} field {f} = {gv!r}, expected {wv!r}"]
    return []


def check_menu_closed_form(out: SolveOutput, config: dict, solver_class: str) -> list[str]:
    rows = parse_menu(out.menu_text)
    if not rows:
        return ["menu.csv has no rows"]
    scale = max(1.0, abs(out.tau)) if math.isfinite(out.tau) else 1.0
    want = expected_rows(config, solver_class, out.tau, rows)
    return compare_rows(rows, want, ROW_TOL * scale, "closed-form menu")


# -- oracles -----------------------------------------------------------------


def closed_form_optimum(config: dict, solver_class: str) -> tuple[float, float] | None:
    """(tau*, J*) of the a = 3k market (theta 0.1, identity, k ~ U(5000, 25000))."""
    types = config["types"]
    plain = (
        types["variant"] == "degenerate_alpha"
        and config["cost"]["theta"] == 0.1
        and config["cost"].get("distortion", {"kind": "identity"})["kind"] == "identity"
        and float(config.get("loss", {}).get("point_mass_zero", 0.0)) == 0.0
        and (types["k_dist"]["lo"], types["k_dist"]["hi"]) == (5000, 25000)
        and abs(types["alpha_dist"]["value"] - math.exp(-3.0)) <= 1e-15
    )
    if not plain:
        return None
    if solver_class == "stop_loss":
        t = 225000.0 / (5.0 - LN11)
        j = (t * (25000.0 - t / 3.0) - ((1.0 + LN11) / 2.0) * (25000.0**2 - t**2 / 9.0)) / 20000.0
        return t, j
    if solver_class == "quota_share":
        t = 4500000.0 / 98.0
        return t, -49.0 * t * t / 3600000.0 + 1.25 * t - 17187.5
    return None


def check_closed_form(out: SolveOutput, config: dict, solver_class: str) -> tuple[list[str], float | None]:
    got = closed_form_optimum(config, solver_class)
    if got is None:
        return [f"no closed form for this {solver_class} market"], None
    tau_cf, j_cf = got
    fails = []
    if not _close(out.tau, tau_cf, REFINE_TOL):
        fails.append(f"tau* {out.tau!r} vs closed form {tau_cf!r}")
    if not _close(out.value, j_cf, 1e-9):
        fails.append(f"J {out.value!r} vs closed form {j_cf!r}")
    return fails, (j_cf - out.value) / abs(j_cf)


def check_reference(out: SolveOutput, name: str) -> list[str]:
    summary = REFERENCE_DIR / f"{name}.summary.json"
    menu = REFERENCE_DIR / f"{name}.menu.csv"
    if not (summary.is_file() and menu.is_file()):
        return [f"no recorded reference for {name}"]
    ref = SolveOutput.from_summary(summary.read_text("utf-8"), menu.read_text("utf-8"))
    fails = []
    if not _close(out.tau, ref.tau, REFINE_TOL):
        fails.append(f"tau* {out.tau!r} vs reference {ref.tau!r}")
    if not _close(out.value, ref.value, J_REF_TOL):
        fails.append(f"J {out.value!r} vs reference {ref.value!r}")
    if out.menu_text is not None:
        abs_tol = REFINE_TOL * abs(ref.tau) if math.isfinite(ref.tau) else 0.0
        fails += compare_rows(parse_menu(out.menu_text), parse_menu(ref.menu_text), abs_tol, "reference menu")
    return fails


def check_enumerate(out: SolveOutput, solver_class: str, dist, cost, grid_points: int) -> tuple[list[str], float]:
    """Compare against the best atom; J is nondecreasing between atoms."""
    from remenu import KProfile

    objective = objective_of(solver_class)
    profile = KProfile(cost, dist.family)
    j_oracle = max(0.0, *(objective(float(a), dist, cost, profile) for a in dist.a_vals))
    lo = 0.0 if solver_class == "quota_share" else dist.lower_support()
    step = (dist.upper_support() - lo) / (grid_points - 1)
    fails = []
    if out.value > j_oracle + J_SELF_TOL * max(1.0, abs(j_oracle)):
        fails.append(f"J {out.value!r} exceeds the best atom {j_oracle!r}")
    if j_oracle - out.value > (1.0 + cost.theta) * step + J_SELF_TOL * abs(j_oracle):
        fails.append(f"J {out.value!r} short of the best atom {j_oracle!r} by more than one grid step")
    gap = (j_oracle - out.value) / abs(j_oracle) if j_oracle else 0.0
    return fails, gap


def check_live(out: SolveOutput, solver_class: str, dist, cost) -> list[str]:
    """The reported optimum against the objective on a coarse grid and
    at small relative offsets of tau*."""
    objective = objective_of(solver_class)
    lo = 0.0 if solver_class == "quota_share" else dist.lower_support()
    hi = dist.upper_support()
    probes = [float(t) for t in np.linspace(lo, hi, 201)]
    if math.isfinite(out.tau):
        probes += [out.tau * (1.0 + s * d) for d in (1e-4, 1e-3) for s in (-1.0, 1.0)]
    slack = J_SELF_TOL * max(1.0, abs(out.value))
    for t in probes:
        if lo <= t <= hi:
            j = objective(t, dist, cost)
            if j > out.value + slack:
                return [f"J({t!r}) = {j!r} beats the reported optimum {out.value!r}"]
    return []
