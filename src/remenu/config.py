"""Scenario configuration: strict JSON schema and object builders."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError
from .risk_model import CostFunctional, Distortion, ExponentialFamily, LossFamily
from .type_space import DegenerateAlpha, DiscreteTypes, ProductUniform, TypeDistribution

_SOLVER_CLASSES = ("stop_loss", "quota_share", "change_loss")


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


@dataclass(frozen=True)
class DistortionConfig:
    kind: str = "identity"
    param: float = 1.0

    def build(self) -> Distortion:
        if self.kind == "identity":
            return Distortion.identity()
        if self.kind in ("power", "proportional_hazard"):  # the same transform u**c
            return Distortion.power(self.param)
        raise ConfigError(f"unknown distortion kind {self.kind!r}")


@dataclass(frozen=True)
class CostConfig:
    theta: float
    distortion: DistortionConfig = field(default_factory=DistortionConfig)

    def build(self) -> CostFunctional:
        return CostFunctional(self.theta, self.distortion.build())


@dataclass(frozen=True)
class LossConfig:
    family: str = "exponential"
    point_mass_zero: float = 0.0

    def build(self) -> LossFamily:
        if self.family == "exponential":
            return ExponentialFamily(self.point_mass_zero)
        raise ConfigError(f"unknown loss family {self.family!r}")


@dataclass(frozen=True)
class TypesConfig:
    variant: str
    k_dist: dict
    alpha_dist: dict

    def build(self, family: LossFamily, outer_nodes: int, simpson_tol: float) -> TypeDistribution:
        if self.variant == "product_uniform":
            kd = _take(self.k_dist, "types.k_dist", {"lo", "hi"}, {"lo", "hi"})
            ad = _take(self.alpha_dist, "types.alpha_dist", {"lo", "hi"}, {"lo", "hi"})
            return ProductUniform(
                _num(kd, "types.k_dist", "lo"),
                _num(kd, "types.k_dist", "hi"),
                _num(ad, "types.alpha_dist", "lo"),
                _num(ad, "types.alpha_dist", "hi"),
                family,
                outer_nodes=outer_nodes,
                simpson_tol=simpson_tol,
            )
        if self.variant == "degenerate_alpha":
            kd = _take(self.k_dist, "types.k_dist", {"lo", "hi"}, {"lo", "hi"})
            ad = _take(self.alpha_dist, "types.alpha_dist", {"value"}, {"value"})
            return DegenerateAlpha(
                _num(kd, "types.k_dist", "lo"),
                _num(kd, "types.k_dist", "hi"),
                _num(ad, "types.alpha_dist", "value"),
                family,
                outer_nodes=outer_nodes,
                simpson_tol=simpson_tol,
            )
        if self.variant == "discrete":
            atoms = self.k_dist.get("atoms") if isinstance(self.k_dist, dict) else None
            alphas = self.alpha_dist.get("atoms") if isinstance(self.alpha_dist, dict) else None
            _take(self.k_dist, "types.k_dist", {"atoms"}, {"atoms"})
            _take(self.alpha_dist, "types.alpha_dist", {"atoms"}, {"atoms"})
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
        raise ConfigError(f"unknown types variant {self.variant!r}")


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
class QuadratureConfig:
    outer_nodes: int = 256
    simpson_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (isinstance(self.outer_nodes, int) and self.outer_nodes >= 1):
            raise ConfigError(
                f"quadrature.outer_nodes must be an integer >= 1, got {self.outer_nodes!r}"
            )
        if not 0.0 < self.simpson_tol < 1.0:
            raise ConfigError(f"quadrature.simpson_tol must lie in (0, 1), got {self.simpson_tol}")


@dataclass(frozen=True)
class ScenarioConfig:
    cost: CostConfig
    loss: LossConfig
    types: TypesConfig
    solver: SolverConfig = field(default_factory=SolverConfig)
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ScenarioConfig":
        top = _take(
            raw,
            "config",
            {"cost", "loss", "types", "solver", "quadrature", "seed"},
            {"cost", "types"},
        )
        cost_raw = _take(top["cost"], "cost", {"theta", "distortion"}, {"theta"})
        dist_cfg = DistortionConfig()
        if "distortion" in cost_raw:
            d = _take(cost_raw["distortion"], "cost.distortion", {"kind", "param"}, {"kind"})
            dist_cfg = DistortionConfig(str(d["kind"]), _num(d, "cost.distortion", "param", 1.0))
        cost = CostConfig(_num(cost_raw, "cost", "theta"), dist_cfg)

        loss_raw = _take(
            top.get("loss", {}), "loss", {"family", "point_mass_zero"}, set()
        )
        loss = LossConfig(
            str(loss_raw.get("family", "exponential")),
            _num(loss_raw, "loss", "point_mass_zero", 0.0),
        )

        types_raw = _take(
            top["types"], "types", {"variant", "k_dist", "alpha_dist"}, {"variant", "k_dist", "alpha_dist"}
        )
        types = TypesConfig(str(types_raw["variant"]), types_raw["k_dist"], types_raw["alpha_dist"])

        solver_raw = _take(
            top.get("solver", {}),
            "solver",
            {"class", "grid_points", "refine_tol"},
            set(),
        )
        solver = SolverConfig(
            str(solver_raw.get("class", "stop_loss")),
            _int(solver_raw, "solver", "grid_points", 10001),
            _num(solver_raw, "solver", "refine_tol", 1e-6),
        )

        quad_raw = _take(
            top.get("quadrature", {}), "quadrature", {"outer_nodes", "simpson_tol"}, set()
        )
        quadrature = QuadratureConfig(
            _int(quad_raw, "quadrature", "outer_nodes", 256),
            _num(quad_raw, "quadrature", "simpson_tol", 1e-10),
        )

        return cls(cost, loss, types, solver, quadrature, top.get("seed", 0))

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
        return self.cost.build()

    def build_dist(self) -> TypeDistribution:
        family = self.loss.build()
        return self.types.build(
            family, self.quadrature.outer_nodes, self.quadrature.simpson_tol
        )
