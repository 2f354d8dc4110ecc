"""Scenario configuration: strict JSON parsed straight into library objects.

The cost section becomes a ``CostFunctional`` at parse time; the loss and
types sections are kept raw and become a ``TypeDistribution`` only when
``build_dist`` is called, so a command that needs no market never reads them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError, DomainError
from .risk_model import CostFunctional, Distortion, ExponentialFamily
from .type_space import DegenerateAlpha, DiscreteTypes, ProductUniform, TypeDistribution

_SOLVER_CLASSES = ("stop_loss", "quota_share", "change_loss")
_DISTORTION_KINDS = {"identity": "identity", "power": "power", "proportional_hazard": "power"}
# The uniform-k variants and their alpha_dist keys, in constructor order.
_UNIFORM_K = {
    "product_uniform": (ProductUniform, ("lo", "hi")),
    "degenerate_alpha": (DegenerateAlpha, ("value",)),
}


def _take(section: dict, name: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {name}: {sorted(missing)}")
    return section


def _num(section: dict, name: str, key: str, default=None) -> float:
    val = section.get(key, default)
    if val is None:
        raise ConfigError(f"{name}.{key} is required")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name}.{key} must be a number, got {val!r}")
    return float(val)


def _int(section: dict, name: str, key: str, default: int) -> int:
    val = _num(section, name, key, default)
    if not val.is_integer():
        raise ConfigError(f"{name}.{key} must be an integer, got {section[key]!r}")
    return int(val)


def _cost(raw) -> CostFunctional:
    cost = _take(raw, "cost", {"theta", "distortion"}, {"theta"})
    d = _take(cost.get("distortion", {"kind": "identity"}), "cost.distortion", {"kind", "param"}, {"kind"})
    kind = str(d["kind"])
    if kind not in _DISTORTION_KINDS:
        raise ConfigError(f"unknown distortion kind {kind!r}")
    param = _num(d, "cost.distortion", "param", 1.0)
    try:
        distortion = Distortion(_DISTORTION_KINDS[kind], exponent=param)
    except DomainError as exc:
        raise ConfigError(f"cost.distortion.param: {exc}") from exc
    return CostFunctional(_num(cost, "cost", "theta"), distortion)


@dataclass(frozen=True)
class SolverConfig:
    solver_class: str = "stop_loss"
    grid_points: int = 10001
    refine_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.solver_class not in _SOLVER_CLASSES:
            raise ConfigError(f"solver.class must be one of {_SOLVER_CLASSES}")
        if self.grid_points < 2:
            raise ConfigError("solver.grid_points must be >= 2")
        if not 0.0 < self.refine_tol < 1.0:
            raise ConfigError("solver.refine_tol must lie in (0, 1)")


@dataclass(frozen=True)
class ScenarioConfig:
    cost: CostFunctional
    loss: dict  # raw section, read by build_dist
    types: dict  # raw section, read by build_dist
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ScenarioConfig":
        top = _take(raw, "config", {"cost", "loss", "types", "solver", "seed"}, {"cost", "types"})
        cost = _cost(top["cost"])
        s = _take(top.get("solver", {}), "solver", {"class", "grid_points", "refine_tol"}, set())
        default = SolverConfig()
        solver = SolverConfig(
            str(s.get("class", default.solver_class)),
            _int(s, "solver", "grid_points", default.grid_points),
            _num(s, "solver", "refine_tol", default.refine_tol),
        )
        return cls(cost, top.get("loss", {}), top["types"], solver, top.get("seed", 0))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def build_cost(self) -> CostFunctional:
        return self.cost

    def build_dist(self) -> TypeDistribution:
        loss = _take(self.loss, "loss", {"family", "point_mass_zero"}, set())
        name = str(loss.get("family", "exponential"))
        if name != "exponential":
            raise ConfigError(f"unknown loss family {name!r}")
        family = ExponentialFamily(_num(loss, "loss", "point_mass_zero", 0.0))
        keys = {"variant", "k_dist", "alpha_dist"}
        types = _take(self.types, "types", keys, keys)
        variant = str(types["variant"])
        if variant in _UNIFORM_K:
            dist_cls, alpha_keys = _UNIFORM_K[variant]
            kd = _take(types["k_dist"], "types.k_dist", {"lo", "hi"}, {"lo", "hi"})
            ad = _take(types["alpha_dist"], "types.alpha_dist", set(alpha_keys), set(alpha_keys))
            ks = [_num(kd, "types.k_dist", key) for key in ("lo", "hi")]
            alphas = [_num(ad, "types.alpha_dist", key) for key in alpha_keys]
            return dist_cls(*ks, *alphas, family)
        if variant != "discrete":
            raise ConfigError(f"unknown types variant {variant!r}")
        atoms = _take(types["k_dist"], "types.k_dist", {"atoms"}, {"atoms"})["atoms"]
        alphas = _take(types["alpha_dist"], "types.alpha_dist", {"atoms"}, {"atoms"})["atoms"]
        if not isinstance(atoms, list) or not isinstance(alphas, list):
            raise ConfigError("discrete variant needs k_dist.atoms and alpha_dist.atoms lists")
        if len(atoms) != len(alphas):
            raise ConfigError("k atoms and alpha atoms must align")
        triples = []
        for ka, aa in zip(atoms, alphas):
            if not (isinstance(ka, list) and len(ka) == 2):
                raise ConfigError("each k atom must be [k, weight]")
            if not isinstance(aa, (int, float)) or isinstance(aa, bool):
                raise ConfigError("each alpha atom must be a number")
            triples.append((float(aa), float(ka[0]), float(ka[1])))
        return DiscreteTypes(triples, family)
