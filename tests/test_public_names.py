"""Every public name of the package has a caller outside its own tests.

A public module-level function or class of ``src/relugeom`` must be
named by package code other than its definition (its own module
included), named in ``bench/`` or listed in ``relugeom.__all__``;
otherwise it is an orphan that only its tests reach.  The ``cmd_*``
functions are the exception: ``cli.main`` looks them up by name, so each
must match a subcommand of ``build_parser()``.
"""

import ast
from pathlib import Path

import relugeom
from relugeom.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "relugeom"


def public_definitions(tree: ast.Module) -> set[str]:
    """The public functions and classes defined at the top of a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")}


def named(tree: ast.Module) -> set[str]:
    """Every name that a module's code mentions: imported, read, read as an
    attribute or written as a string (``setattr`` and fault tables)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def orphans(modules: dict[str, ast.Module], outside: set[str], exported: set[str]) -> dict[str, set[str]]:
    """Per module, its public definitions that no module's code names,
    that ``outside`` does not hold and that are not ``exported``; the
    ``cmd_*`` are checked against the parser instead."""
    callers = set().union(outside, exported, *map(named, modules.values()))
    found = {name: public_definitions(tree) - callers for name, tree in modules.items()}
    found = {name: {d for d in lonely if not d.startswith("cmd_")} for name, lonely in found.items()}
    return {name: lonely for name, lonely in found.items() if lonely}


def parse_all(paths) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def test_every_public_name_has_a_caller():
    modules = parse_all(sorted(SOURCE.glob("*.py")))
    bench = set().union(*(named(tree) for tree in parse_all(sorted((ROOT / "bench").glob("*.py"))).values()))
    assert orphans(modules, bench, set(relugeom.__all__)) == {}


def test_every_command_function_is_a_subcommand():
    parser = build_parser()
    (subcommands,) = (action.choices for action in parser._actions if action.dest == "command")
    cli = ast.parse((SOURCE / "cli.py").read_text())
    commands = {name[len("cmd_"):].replace("_", "-") for name in public_definitions(cli) if name.startswith("cmd_")}
    assert commands == set(subcommands)


def test_not_vacuous():
    modules = {
        "a": ast.parse(
            "def used(): pass\ndef orphan(): pass\nclass Lonely: pass\ndef _private(): pass\n"
            "def exported(): pass\ndef benched(): pass\ndef cmd_run(): pass\ndef inner(): pass\n"
            "def caller(): return inner()\n"
        ),
        "b": ast.parse("from .a import used, caller\n"),
        "c": ast.parse("import a\na.Lonely\n"),
    }
    assert orphans(modules, {"benched"}, {"exported"}) == {"a": {"orphan"}}
    assert orphans({**modules, "d": ast.parse("setattr(a, 'orphan', None)\n")}, {"benched"}, {"exported"}) == {}
