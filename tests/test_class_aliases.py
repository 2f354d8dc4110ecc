"""Names kept only for the benchmark harness, which nothing else in the
project imports or names:

* the per-class modules ``remenu.stop_loss``, ``remenu.quota_share`` and
  ``remenu.change_loss``, aliases of the one threshold menu: each alias is a
  ``partial`` of its ``threshold`` function;
* ``GenericFamily(builder)``, a checked constructor of the ScaleFamily of
  ``builder(1.0)``."""

import ast
import importlib
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from remenu import DomainError, ExponentialLoss, GenericFamily, GenericLoss, ScaleFamily, threshold

ROOT = Path(__file__).resolve().parents[1]
# Class -> (menu alias, objective alias); each module also has `solve`.
ALIASES = {
    "stop_loss": ("StopLossMenu", "objective"),
    "quota_share": ("QuotaShareMenu", "j_phi"),
    "change_loss": ("ChangeLossMenu", "j_phi_cl"),
}
MODULES = {f"remenu.{kind}" for kind in ALIASES}
# The alias modules themselves and this test may name them.
ALLOWED = {ROOT / "src" / "remenu" / f"{kind}.py" for kind in ALIASES} | {Path(__file__).resolve()}


def parts(alias):
    assert isinstance(alias, partial)
    return alias.func, alias.args, alias.keywords


@pytest.mark.parametrize("kind", ALIASES)
def test_each_alias_is_a_partial_of_the_threshold_function(kind, cost, degenerate_dist):
    module = importlib.import_module(f"remenu.{kind}")
    menu_name, objective_name = ALIASES[kind]
    assert parts(getattr(module, menu_name)) == (threshold.ThresholdMenu, (), {"contract_class": kind})
    assert parts(getattr(module, objective_name)) == (threshold.objective, (kind,), {})
    assert parts(module.solve) == (threshold.solve, (kind,), {})
    names = {name for name in vars(module) if not name.startswith("__")}
    assert names == {menu_name, objective_name, "solve", "partial", "threshold"}
    # Called as the benchmark calls them, they give the threshold results.
    menu = module.solve(degenerate_dist, cost, grid_points=101)
    assert menu == threshold.solve(kind, degenerate_dist, cost, grid_points=101)
    assert getattr(module, menu_name)(menu.tau_star, menu.objective_value, cost, degenerate_dist) == menu


def names_of_alias_modules(tree: ast.AST, in_package: bool) -> list[str]:
    """Every import, attribute or string in tree that names an alias module.
    Relative imports count only inside the package (in_package)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in MODULES]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            elif in_package and node.level == 1:
                base = "remenu" + (f".{node.module}" if node.module else "")
            else:
                continue
            found += [base] if base in MODULES else []
            found += [f"{base}.{a.name}" for a in node.names if f"{base}.{a.name}" in MODULES]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = f"{node.value.id}.{node.attr}"
            found += [name] if name in MODULES else []
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [node.value] if node.value in MODULES else []
    return found


def names_of_generic_family(tree: ast.AST) -> list[str]:
    """Every name, attribute, import or string in tree that names GenericFamily."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "GenericFamily":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "GenericFamily":
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name == "GenericFamily"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += re.findall(r"\bGenericFamily\b", node.value)
    return found


def uses_outside(allowed: set[Path], scan) -> dict[str, list[str]]:
    """What scan finds in each file of src/, tests/ and scripts/ but allowed."""
    paths = [p for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    assert ROOT / "src" / "remenu" / "cli.py" in paths
    uses = {}
    for path in paths:
        if path.resolve() in allowed:
            continue
        found = scan(ast.parse(path.read_text("utf-8")), "remenu" in path.parts)
        if found:
            uses[str(path.relative_to(ROOT))] = found
    return uses


def test_nothing_else_uses_the_alias_modules():
    assert uses_outside(ALLOWED, names_of_alias_modules) == {}


def test_nothing_else_names_generic_family():
    # Its definition, its export and its own tests.
    src = ROOT / "src" / "remenu"
    allowed = {src / "risk_model.py", src / "__init__.py", Path(__file__).resolve()}
    assert uses_outside(allowed, lambda tree, _in_package: names_of_generic_family(tree)) == {}


@pytest.mark.parametrize(
    "source, in_package",
    [
        ("import remenu.stop_loss", False),
        ("from remenu import quota_share", False),
        ("from remenu.change_loss import solve", False),
        ("from . import stop_loss", True),
        ("from .quota_share import j_phi", True),
        ("import remenu\nremenu.change_loss.solve", False),
        ("importlib.import_module('remenu.stop_loss')", False),
    ],
)
def test_the_scan_finds_each_way_of_naming_a_module(source, in_package):
    assert names_of_alias_modules(ast.parse(source), in_package)


@pytest.mark.parametrize(
    "source",
    [
        "from remenu import GenericFamily",
        "from remenu.risk_model import GenericFamily as Family",
        "from .risk_model import GenericFamily",
        "import remenu\nremenu.GenericFamily(f)",
        "GenericFamily(f)",
        "getattr(remenu, 'GenericFamily')",
        '"""Markets built with GenericFamily(builder)."""',
    ],
)
def test_the_scan_finds_each_way_of_naming_generic_family(source):
    assert names_of_generic_family(ast.parse(source))


def lomax(k):
    """S_k(y) = (1 + y / 2k)^-3, a scale family."""
    return GenericLoss(lambda y: (1.0 + y / (2.0 * k)) ** -3.0)


@pytest.mark.parametrize("builder", [ExponentialLoss, lambda k: ExponentialLoss(k, 0.1)], ids=["exp", "exp-atom"])
def test_generic_family_is_the_scale_family_of_its_unit_loss(builder):
    assert GenericFamily(builder) == ScaleFamily(builder(1.0))


def test_generic_family_prices_from_builder_one():
    family, y = GenericFamily(lomax), np.array([0.0, 0.5, 3.0, 1e5])
    assert type(family) is ScaleFamily
    np.testing.assert_array_equal(family.base.survival(y), lomax(1.0).survival(y))
    np.testing.assert_array_equal(family.survival(y, 4.0), lomax(4.0).survival(y))


def test_generic_family_rejects_a_builder_that_is_no_scale_family():
    with pytest.raises(DomainError, match="scale family"):
        GenericFamily(lambda k: ExponentialLoss(k + 1000.0))
