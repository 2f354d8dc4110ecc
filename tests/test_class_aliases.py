"""The per-class modules ``remenu.stop_loss``, ``remenu.quota_share`` and
``remenu.change_loss`` are aliases of the one threshold menu, kept for the
benchmark harness: each alias is a ``partial`` of its ``threshold`` function,
and nothing else in the project imports or names the modules."""

import ast
import importlib
from functools import partial
from pathlib import Path

import pytest

from remenu import threshold

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


def test_nothing_else_uses_the_alias_modules():
    paths = [p for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    assert ROOT / "src" / "remenu" / "cli.py" in paths
    uses = {}
    for path in paths:
        if path.resolve() in ALLOWED:
            continue
        found = names_of_alias_modules(ast.parse(path.read_text("utf-8")), "remenu" in path.parts)
        if found:
            uses[str(path.relative_to(ROOT))] = found
    assert uses == {}


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
