"""Seeded inputs of the three workloads.

Everything the program sees is generated here from the workload seed, as
plain data (config dicts, atom lists), so that the same seed always gives
the same inputs.  The five bundled scenario configs are frozen copies of
``scripts/*.json`` as shipped; they are the only unseeded inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BUNDLED_DIR = HERE / "configs"
PRODUCT_CONFIGS = (
    "uniform_alpha_stop_loss",
    "uniform_alpha_quota_share",
    "uniform_alpha_change_loss",
)
DISCRETE_SIZES = (3, 30, 300)
GENERIC_GRID = 51
AUDIT_PAIRS = 10_000
AUDIT_MC_SAMPLES = 100_000
AUDIT_UTILITIES = 20
AUDIT_FIRST_BEST_PAIRS = 20


@dataclass(frozen=True)
class SolveInput:
    """One solve: a scenario config, its contract class and its oracle.

    oracle is "closed_form" (degenerate market with a known optimum),
    "reference" (recorded seed output), "live" (optimality re-checked on
    the public objective) or "enumerate" (discrete market: J at every atom).
    """

    name: str
    config: dict
    solver_class: str
    oracle: str


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def _config(cost: dict, loss: dict, types: dict, solver_class: str, grid: int = 10001) -> dict:
    return {
        "cost": cost,
        "loss": loss,
        "types": types,
        "solver": {"class": solver_class, "grid_points": grid, "refine_tol": 1e-6},
        "seed": 0,
    }


def bundled(name: str) -> dict:
    return json.loads((BUNDLED_DIR / f"{name}.json").read_text("utf-8"))


def _product_variant(rng: np.random.Generator) -> tuple[dict, dict, dict]:
    """Exponential product market with drawn loading, power distortion,
    atom at zero and type ranges.

    The ranges keep sup_k theta*_k below the lowest risk level L (the
    paper's regime; there the stop-loss objective has no theta*-crossing
    split): theta*_k <= k ln(1.2) / 0.7 <= 0.27 k and k_hi <= 4 k_lo, while
    L >= 1.77 k_lo.
    """
    theta = float(rng.uniform(0.05, 0.2))
    power = float(rng.uniform(0.7, 1.0))
    p0 = float(rng.uniform(0.0, 0.2))
    k_lo = float(rng.uniform(2000.0, 8000.0))
    k_hi = k_lo * float(rng.uniform(2.0, 4.0))
    a_lo = float(rng.uniform(0.03, 0.07))
    a_hi = a_lo + float(rng.uniform(0.05, 0.1))
    cost = {"theta": theta, "distortion": {"kind": "power", "param": power}}
    loss = {"family": "exponential", "point_mass_zero": p0}
    types = {
        "variant": "product_uniform",
        "k_dist": {"lo": k_lo, "hi": k_hi},
        "alpha_dist": {"lo": a_lo, "hi": a_hi},
    }
    return cost, loss, types


def _discrete_atoms(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """n atoms (alpha, k, weight) with k ~ U(5000, 25000), alpha ~ U(0.03, 0.15)."""
    weights = rng.dirichlet(np.ones(n))
    weights = weights / weights.sum()
    ks = rng.uniform(5000.0, 25000.0, n)
    alphas = rng.uniform(0.03, 0.15, n)
    return [(float(a), float(k), float(w)) for a, k, w in zip(alphas, ks, weights)]


def sweep_exp_inputs(seed: int) -> list[SolveInput]:
    """Bundled configs, 3 product variants and 3 discrete markets (both
    classes each): 17 CLI solves at the default 10,001-point grid."""
    out = []
    for path in sorted(BUNDLED_DIR.glob("*.json")):
        cfg = json.loads(path.read_text("utf-8"))
        degenerate = cfg["types"]["variant"] == "degenerate_alpha"
        out.append(
            SolveInput(path.stem, cfg, cfg["solver"]["class"], "closed_form" if degenerate else "reference")
        )
    rng = _rng(seed, 1)
    for i in range(3):
        cost, loss, types = _product_variant(rng)
        for cls in ("stop_loss", "quota_share"):
            out.append(SolveInput(f"product{i}_{cls}", _config(cost, loss, types, cls), cls, "live"))
    rng = _rng(seed, 2)
    for n in DISCRETE_SIZES:
        atoms = _discrete_atoms(rng, n)
        cost = {
            "theta": float(rng.uniform(0.05, 0.3)),
            "distortion": {"kind": "power", "param": float(rng.uniform(0.7, 1.0))},
        }
        types = {
            "variant": "discrete",
            "k_dist": {"atoms": [[k, w] for _a, k, w in atoms]},
            "alpha_dist": {"atoms": [a for a, _k, _w in atoms]},
        }
        for cls in ("stop_loss", "quota_share"):
            cfg = _config(cost, {"family": "exponential"}, types, cls)
            out.append(SolveInput(f"discrete{n}_{cls}", cfg, cls, "enumerate"))
    return out


# -- generic-loss markets -------------------------------------------------


class LomaxSurvival:
    """S(y) = (1 + y / (2k))**-3: a Lomax loss with scale 2k (mean k)."""

    def __init__(self, k: float):
        self.scale = 2.0 * k

    def __call__(self, y: float) -> float:
        return (1.0 + y / self.scale) ** -3.0


def lomax_loss(k: float):
    from remenu import GenericLoss

    return GenericLoss(LomaxSurvival(k))


GENERIC_WEIGHTS = (0.1, 0.4, 0.25, 0.25)
# Concave: u**0.75 at u = 0.2 and 0.55.  Fixed, because where the kinks of
# h(S(y)) fall sets how fast adaptive Simpson converges on every call.
TABULATED_KNOTS = [(0.0, 0.0), (0.2, 0.2**0.75), (0.55, 0.55**0.75), (1.0, 1.0)]


def _spread_atoms(rng: np.random.Generator, alpha_of, a_over_k: float) -> list[tuple[float, float, float]]:
    """4 atoms with risk levels a near 0, 1/3, 2/3 and 1 of [a_min, a_max]
    and weights GENERIC_WEIGHTS; the seed jitters every position and scale.

    A generic-loss solve costs one adaptive quadrature per atom above the
    kink at every objective evaluation, so its cost follows where the atoms
    and the optimum sit.  With a / k near a_over_k (xi_k about a / 2) the
    optimum is the second atom on every draw, an interior atom the grid
    search can miss, and the cost stays alike across seeds."""
    a_min = float(rng.uniform(20000.0, 30000.0))
    a_max = a_min * float(rng.uniform(2.0, 2.2))
    u = [0.0, 1.0 / 3.0 + float(rng.uniform(-0.03, 0.03)), 2.0 / 3.0 + float(rng.uniform(-0.03, 0.03)), 1.0]
    atoms = []
    for ui, w in zip(u, GENERIC_WEIGHTS):
        a = a_min + ui * (a_max - a_min)
        k = a / (a_over_k * float(rng.uniform(0.97, 1.03)))
        atoms.append((alpha_of(a, k), k, w))
    return atoms


def generic_loss_params(seed: int) -> list[dict]:
    """Two 4-atom markets with no closed-form cost: Lomax losses under a
    power(0.9) distortion, and exponential losses under a concave
    tabulated distortion.  The loading is 0.1, as in the bundled markets;
    sup theta* stays far below the lowest risk level, so the change-loss
    condition holds on every draw."""
    rng = _rng(seed, 3)
    lomax = {
        "name": "lomax",
        "atoms": _spread_atoms(rng, lambda a, k: (1.0 + a / (2.0 * k)) ** -3.0, 2.58),
        "theta": 0.1,
        "distortion": {"kind": "power", "exponent": 0.9},
    }
    tabulated = {
        "name": "exp_tabulated",
        "atoms": _spread_atoms(rng, lambda a, k: math.exp(-a / k), 2.9),
        "theta": 0.1,
        "distortion": {"kind": "tabulated", "knots": TABULATED_KNOTS},
    }
    return [lomax, tabulated]


def build_generic_market(params: dict):
    """(dist, cost) of one generic-loss market."""
    from remenu import CostFunctional, DiscreteTypes, Distortion, GenericFamily

    spec = params["distortion"]
    if spec["kind"] == "power":
        distortion = Distortion.power(spec["exponent"])
        family = GenericFamily(lomax_loss)
    else:
        distortion = Distortion.tabulated([tuple(p) for p in spec["knots"]])
        family = None  # exponential
    dist = DiscreteTypes(params["atoms"], family)
    return dist, CostFunctional(params["theta"], distortion)


def verify_config(params: dict) -> dict:
    """Config handed to ``remenu verify`` for a generic-loss menu.

    verify audits the menu file alone and only validates the config's cost
    section; the schema has no field for these loss families or for
    tabulated knots, so the cost section carries the loading only."""
    types = {
        "variant": "discrete",
        "k_dist": {"atoms": [[k, w] for _a, k, w in params["atoms"]]},
        "alpha_dist": {"atoms": [a for a, _k, _w in params["atoms"]]},
    }
    cost = {"theta": params["theta"], "distortion": {"kind": "identity"}}
    return _config(cost, {"family": "exponential"}, types, "stop_loss", GENERIC_GRID)


# -- audit ------------------------------------------------------------------


def audit_params(seed: int) -> dict:
    """Seeds of every random draw the audit pass makes."""
    rng = _rng(seed, 4)
    draws = [int(x) for x in rng.integers(0, 2**31 - 1, 5)]
    return {
        "ic_seed": draws[0],
        "mc_seed": draws[1],
        "utilities_seed": draws[2],
        "pairs_seed": draws[3],
        "ir_seed": draws[4],
    }


def fingerprint(seed: int) -> str:
    """Canonical text of every generated input, for the determinism check."""
    payload = {
        "sweep-exp": [(s.name, s.config, s.solver_class, s.oracle) for s in sweep_exp_inputs(seed)],
        "generic-loss": generic_loss_params(seed),
        "audit": audit_params(seed),
    }
    return json.dumps(payload, sort_keys=True, allow_nan=False)

