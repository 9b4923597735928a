"""A frozen value is written only by its own ``__post_init__``.

``object.__setattr__`` gets round ``frozen=True``.  On ``self`` inside
``__post_init__`` it finishes building the object; anywhere else it
changes a value that other code may already hold, or hangs hidden state
on it.  The tests themselves are not scanned.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "relugeom"


def foreign_writes(source: str) -> list[int]:
    """The lines of the ``object.__setattr__`` calls that do not write
    ``self`` from within a ``__post_init__``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                target = child.args[0] if child.args else None
                if function != "__post_init__" or not (isinstance(target, ast.Name) and target.id == "self"):
                    found.append(child.lineno)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_frozen_values_written_only_by_their_post_init(path):
    assert foreign_writes(path.read_text()) == []


def test_not_vacuous():
    source = (
        "class Grade:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 't', 1)\n"  # allowed
        "    def pieces(self):\n"
        "        piece = Piece()\n"
        "        object.__setattr__(piece, '_grade', (self, 0))\n"  # line 6: another object
        "        object.__setattr__(self, 't', 2)\n"  # line 7: self, after construction
        "def sample_piece(piece):\n"
        "    object.__setattr__(piece, '_grade', None)\n"  # line 9: a module function
        "class Piece:\n"
        "    def __post_init__(self):\n"
        "        f = lambda: object.__setattr__(self, 't', 3)\n"  # line 12: deferred in a lambda
        "        setattr(self, 't', 4)\n"
    )
    assert foreign_writes(source) == [6, 7, 9, 12]
