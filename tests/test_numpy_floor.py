"""The package runs on the oldest numpy that pyproject.toml allows.

pyproject.toml declares numpy >= 1.24 while the tests may run on a newer
release, where a name added after 1.24 works and hides the break.  So
the source is scanned for those names instead of being run on 1.24.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "relugeom"

# Names that numpy added after 1.24, as written after ``np.``.
NEWER_THAN_FLOOR = {
    # 1.25
    "dtypes", "exceptions",
    # 2.0
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
    "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
    "concat", "isdtype", "long", "matrix_transpose", "permute_dims", "pow",
    "strings", "trapezoid", "ulong", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "vecdot",
    "linalg.cross", "linalg.diagonal", "linalg.matrix_norm", "linalg.matrix_transpose",
    "linalg.outer", "linalg.svdvals", "linalg.trace", "linalg.vecdot", "linalg.vector_norm",
    # 2.1
    "cumulative_prod", "cumulative_sum", "unstack",
    # 2.2
    "matvec", "vecmat",
}


def numpy_names(source: str) -> set[str]:
    """Dotted names reached from an imported numpy module, e.g. ``linalg.svd``."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "numpy":
            prefix = node.module.partition(".")[2]
            names |= {f"{prefix}.{a.name}" if prefix else a.name for a in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in aliases:
            parts.reverse()
            names |= {".".join(parts[: i + 1]) for i in range(len(parts))}
    return names


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_name_newer_than_the_floor(path):
    assert numpy_names(path.read_text()) & NEWER_THAN_FLOOR == set()


def test_pyproject_floor_is_the_scanned_one():
    pyproject = (SOURCE.parent.parent / "pyproject.toml").read_text()
    assert '"numpy>=1.24"' in pyproject


def test_not_vacuous_on_newer_names():
    source = (
        "import numpy as np\n"
        "from numpy import unstack\n"
        "from numpy.linalg import vector_norm\n"
        "counts = np.bitwise_count(x)\n"
        "v = np.linalg.vecdot(a, b)\n"
        "ok = np.linalg.svd(a)\n"
    )
    found = numpy_names(source) & NEWER_THAN_FLOOR
    assert found == {"unstack", "linalg.vector_norm", "bitwise_count", "linalg.vecdot"}
