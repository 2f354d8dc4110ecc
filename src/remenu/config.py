"""Scenario configuration: strict JSON parsed straight into library objects.

The cost section becomes a ``CostFunctional`` at parse time; the loss and
types sections are kept raw and become a ``TypeDistribution`` only when
``build_dist`` is called, so a command that needs no market never reads them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError, DomainError
from .menus import CONTRACT_CLASSES
from .risk_model import CostFunctional, Distortion, ExponentialFamily
from .type_space import DegenerateAlpha, DiscreteTypes, ProductUniform, TypeDistribution

MAX_GRID_POINTS = 10**6  # the cap on solver.grid_points, checked before any grid is built
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


def _number(val, name: str, *args) -> float:
    """val as a float; the label is name % args, formatted only for an error."""
    if not isinstance(val, bool) and isinstance(val, (int, float)):
        try:
            return float(val)
        except OverflowError:
            raise ConfigError(f"{name % args} must be a finite number, got an integer too large for a float") from None
    if val is None:
        raise ConfigError(f"{name % args} is required")
    raise ConfigError(f"{name % args} must be a number, got {val!r}")


def _num(section: dict, name: str, key: str, default=None) -> float:
    return _number(section.get(key, default), "%s.%s", name, key)


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
        raise ConfigError(f"cost.distortion.kind must be one of {sorted(_DISTORTION_KINDS)}, got {kind!r}")
    param = _num(d, "cost.distortion", "param", 1.0)
    if kind == "identity" and "param" in d:
        raise ConfigError("cost.distortion.param: identity distortion takes no exponent")
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
        if self.solver_class not in CONTRACT_CLASSES:
            raise ConfigError(f"solver.class must be one of {CONTRACT_CLASSES}, got {self.solver_class!r}")
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            raise ConfigError(f"solver.grid_points must lie in [2, {MAX_GRID_POINTS}], got {self.grid_points:.17g}")
        if not 0.0 < self.refine_tol < 1.0:
            raise ConfigError(f"solver.refine_tol must lie in (0, 1), got {self.refine_tol!r}")


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
    def from_file(cls, path: str) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # a JSONDecodeError, or an integer literal past int's digit limit
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
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

    def build_cost(self) -> CostFunctional:
        return self.cost

    def build_dist(self) -> TypeDistribution:
        loss = _take(self.loss, "loss", {"family", "point_mass_zero"}, set())
        name = str(loss.get("family", "exponential"))
        if name != "exponential":
            raise ConfigError(f"loss.family must be 'exponential', got {name!r}")
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
            raise ConfigError(f"types.variant must be one of {[*_UNIFORM_K, 'discrete']}, got {variant!r}")
        atoms = _take(types["k_dist"], "types.k_dist", {"atoms"}, {"atoms"})["atoms"]
        alphas = _take(types["alpha_dist"], "types.alpha_dist", {"atoms"}, {"atoms"})["atoms"]
        if not isinstance(atoms, list) or not isinstance(alphas, list):
            raise ConfigError("types.k_dist.atoms and types.alpha_dist.atoms must be lists")
        if len(atoms) != len(alphas):
            raise ConfigError(f"types.k_dist.atoms ({len(atoms)}) and types.alpha_dist.atoms ({len(alphas)}) must align")
        return DiscreteTypes(_atom_rows(atoms, alphas), family)


def _atom_rows(atoms: list, alphas: list) -> list[tuple[float, float, float]]:
    """The (alpha, k, weight) rows of aligned discrete atoms, read atom by
    atom so that a ConfigError names the first bad atom."""
    rows = []
    for i, (ka, aa) in enumerate(zip(atoms, alphas)):
        if not (isinstance(ka, list) and len(ka) == 2):
            raise ConfigError(f"types.k_dist.atoms[{i}] must be [k, weight]")
        k = _number(ka[0], "types.k_dist.atoms[%d][0]", i)
        w = _number(ka[1], "types.k_dist.atoms[%d][1]", i)
        rows.append((_number(aa, "types.alpha_dist.atoms[%d]", i), k, w))
    return rows
