"""The boundary oracles stay independent of what they check.

``piece_count_oracle`` and ``sample_boundary_patterns`` cross-check the
enumeration: the witness count and the sampled pattern census are
compared with ``enumerate_pieces``.  The comparison means something only
if neither oracle reaches the enumeration, the canonical boundary, the
graded subset order or the piece count, so no function they run in
``boundary.py`` may name one of them.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "relugeom" / "boundary.py"
ORACLES = ("piece_count_oracle", "sample_boundary_patterns")
CHECKED = {"enumerate_pieces", "canonical_boundary", "graded_subsets", "piece_count", "DecisionBoundary"}


def named(node: ast.AST) -> set[str]:
    """Every name and attribute the code under ``node`` reads or writes;
    docstrings and other strings are not names."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def oracle_references(source: str) -> dict[str, set[str]]:
    """Per module function an oracle runs, the oracle itself and each
    function of the module it calls in turn, the checked names it uses."""
    functions = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    reached, pending = {}, [name for name in ORACLES if name in functions]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached[name] = named(functions[name])
            pending += [callee for callee in reached[name] if callee in functions]
    return {name: names & CHECKED for name, names in reached.items()}


def test_oracles_never_name_what_they_check():
    references = oracle_references(SOURCE.read_text())
    assert {"_readout", "_segment_roots"} <= references.keys()  # the helpers are followed
    assert references == dict.fromkeys(references, set())


def test_not_vacuous():
    source = (
        "def piece_count_oracle(layer, output):\n"
        "    return _witnesses(layer) + len(graded_subsets(3))\n"
        "def _witnesses(layer):\n"
        "    return _boundary(layer).piece_count\n"
        "def _boundary(layer):\n"
        "    return enumerate_pieces(layer, None)\n"
        "def sample_boundary_patterns(layer, output, rng):\n"
        "    '''Unlike enumerate_pieces, ...'''\n"
        "    return bd.canonical_boundary(2, 0), DecisionBoundary\n"
        "def unrelated():\n"
        "    return enumerate_pieces\n"
    )
    assert oracle_references(source) == {
        "piece_count_oracle": {"graded_subsets"},
        "_witnesses": {"piece_count"},
        "_boundary": {"enumerate_pieces"},
        "sample_boundary_patterns": {"canonical_boundary", "DecisionBoundary"},
    }
