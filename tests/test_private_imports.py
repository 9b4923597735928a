"""No package module imports a private name from another, and none
imports inside a function body.

A ``_``-prefixed name is internal to the module that defines it; a
sibling that needs it should use a public name instead, so each concept
keeps one implementation behind one interface.  An import inside a
function hides an import cycle between modules; every import sits at
the top of its module, so the import graph is the one the modules show.
The tests themselves may reach into internals on purpose and are not
scanned.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "relugeom"


def private_imports(source: str) -> set[str]:
    """Private names imported from a package module, as ``module.name``;
    dunder names such as ``__version__`` are public."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "relugeom":
            continue
        prefix = "." * node.level + (f"{module}." if module else "")
        found |= {prefix + a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")}
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_from_a_sibling(path):
    assert private_imports(path.read_text()) == set()


def test_not_vacuous():
    source = (
        "from .partition import SectorIndex, _mask_of\n"
        "from relugeom.io import _g17\n"
        "from . import _version, __version__\n"
        "from numpy.linalg import _umath_linalg\n"
        "from __future__ import annotations\n"
    )
    assert private_imports(source) == {".partition._mask_of", "relugeom.io._g17", "._version"}


def function_imports(source: str) -> list[int]:
    """Line numbers of the imports inside a function body, nested ones included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))}
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_imports(path.read_text()) == []


def test_function_imports_not_vacuous():
    source = (
        "import numpy as np\n"
        "def sample(n):\n"
        "    from .layer import refuse_draw\n"
        "    def inner():\n"
        "        import math\n"
        "class Frame:\n"
        "    import json\n"
        "    async def load(self):\n"
        "        from . import io\n"
    )
    assert function_imports(source) == [3, 5, 9]
