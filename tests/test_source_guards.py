"""Static guards on src/remenu: no per-element numpy wrappers, no dense solvers.

np.vectorize and np.frompyfunc call a Python function once per element; the
library prices arrays, so neither may come back into its source.  Its
quadrature rules come from recurrences, so np.polynomial and np.linalg (dense
eigenproblems and factorizations through LAPACK) stay out of it too."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "remenu"
PER_ELEMENT = {"vectorize", "frompyfunc"}
DENSE_SOLVERS = {"polynomial", "linalg"}


def numpy_uses(source: str, names: set[str]) -> list[str]:
    """Every use of numpy's attributes in names in a module: as an attribute
    of a name bound to numpy, imported from numpy, or imported as a numpy
    submodule (import numpy.linalg, from numpy.linalg import ...)."""
    tree = ast.parse(source)
    numpy_names = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname or a.name for a in node.names if a.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in numpy_names
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: from numpy import {a.name}" for a in node.names if a.name in names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[:2] in (["numpy", n] for n in names):
            found.append(f"line {node.lineno}: from {node.module} import ...")
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[:2] in (["numpy", n] for n in names)
            ]
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
    assert len(numpy_uses(snippet, PER_ELEMENT)) == hits


@pytest.mark.parametrize(
    "snippet, hits",
    [
        ("import numpy as np\nx, w = np.polynomial.legendre.leggauss(8)\n", 1),
        ("import numpy as xp\nv = xp.linalg.eigvalsh(a)\n", 1),
        ("from numpy import linalg, polynomial\n", 2),
        ("import numpy.linalg\nimport numpy.polynomial.legendre as leg\n", 2),
        ("from numpy.linalg import eigh\nfrom numpy.polynomial.legendre import leggauss\n", 2),
        ("import numpy as np\ny = scipy.linalg.eigh(a)\nz = np.linalgebra\n", 0),
        ("from numpy import lib\nimport numpy.random\n", 0),
    ],
)
def test_scan_finds_dense_solvers(snippet, hits):
    assert len(numpy_uses(snippet, DENSE_SOLVERS)) == hits


def src_uses(names: set[str]) -> dict[str, list[str]]:
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {p.name: numpy_uses(p.read_text("utf-8"), names) for p in files}
    return {name: uses for name, uses in found.items() if uses}


def test_src_has_no_per_element_wrappers():
    assert src_uses(PER_ELEMENT) == {}


def test_src_has_no_dense_solvers():
    assert src_uses(DENSE_SOLVERS) == {}
