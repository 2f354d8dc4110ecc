"""Static guards on src/remenu: no per-element numpy wrappers.

np.vectorize and np.frompyfunc call a Python function once per element; the
library prices arrays, so neither may come back into its source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "remenu"
PER_ELEMENT = {"vectorize", "frompyfunc"}


def per_element_uses(source: str) -> list[str]:
    """Every use of numpy's vectorize or frompyfunc in a module: as an
    attribute of a name bound to numpy, or imported from numpy."""
    tree = ast.parse(source)
    numpy_names = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname or a.name for a in node.names if a.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in PER_ELEMENT
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_names
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import {a.name}" for a in node.names if a.name in PER_ELEMENT]
    return sorted(found)


@pytest.mark.parametrize(
    "snippet, hits",
    [
        ("import numpy as np\nf = np.vectorize(g)\n", 1),
        ("import numpy\nf = numpy.vectorize(g, otypes=[float])\n", 1),
        ("import numpy as np\nu = np.frompyfunc(g, 1, 1)\n", 1),
        ("import numpy as xp\nf = xp.vectorize(g)\n", 1),
        ("from numpy import vectorize, frompyfunc\n", 2),
        ("import numpy as np\nf = np.vectorize\nh = np.frompyfunc\n", 2),
        ("import numpy as np\n# np.vectorize in a comment\ns = 'np.vectorize'\n", 0),
        ("import numpy as np\ny = self.vectorize(x)\nz = np.vectorized\n", 0),
    ],
)
def test_scan_finds_per_element_wrappers(snippet, hits):
    assert len(per_element_uses(snippet)) == hits


def test_src_has_no_per_element_wrappers():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {p.name: per_element_uses(p.read_text("utf-8")) for p in files}
    assert {name: uses for name, uses in found.items() if uses} == {}
