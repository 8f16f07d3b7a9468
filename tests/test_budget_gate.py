"""One budget gate: ``linfq.charge`` is the only place that raises
TooLarge or reads a budget's bit length, and ``cli.main`` the only place
that catches TooLarge, so a hand-written gate fails here.  Likewise no
command hand-writes an exit code: ``cli.main`` alone maps the outcome
exceptions, and argparse rejects bad arguments.  The validating
constructors run only on input read from outside the package: its own
constructions build valid trees and congruences directly, and the check
table witnesses them."""

import ast
from pathlib import Path

import pytest

import idealcensus

PACKAGE = Path(idealcensus.__file__).parent


def _names(node, name: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name
               for n in ast.walk(node))


def _sites(kind) -> list[tuple[str, str]]:
    """(module, enclosing function) of every node that ``kind`` matches."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if kind(node):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, None)
    return found


def test_only_charge_raises_too_large():
    assert _sites(lambda n: isinstance(n, ast.Raise) and n.exc is not None
                  and _names(n.exc, "TooLarge")) == [("linfq", "charge")]


def test_only_charge_reads_a_bit_length():
    assert _sites(lambda n: isinstance(n, ast.Attribute)
                  and n.attr == "bit_length") == [("linfq", "charge")]


def _catchers(name: str) -> list[tuple[str, str]]:
    return _sites(lambda n: isinstance(n, ast.ExceptHandler) and n.type is not None
                  and _names(n.type, name))


def test_only_main_catches_too_large():
    assert _catchers("TooLarge") == [("cli", "main")]


@pytest.mark.parametrize("name", ["NotIndecomposable", "NotRegular"])
def test_only_main_catches_a_bijection_outcome(name):
    assert _catchers(name) == [("cli", "main")]


def test_no_command_has_a_try():
    assert [f for m, f in _sites(lambda n: isinstance(n, ast.Try))
            if m == "cli" and f.startswith("cmd_")] == []


def test_cli_returns_2_only_for_argument_combinations():
    # --method bruteforce needs --q; export --q applies only to ideal-census
    assert [f for m, f in _sites(lambda n: isinstance(n, ast.Return)
                                 and isinstance(n.value, ast.Constant)
                                 and n.value.value == 2)
            if m == "cli"] == ["cmd_count", "cmd_export"]


def _callers(name: str) -> list[tuple[str, str]]:
    return _sites(lambda n: isinstance(n, ast.Call) and _names(n.func, name))


@pytest.mark.parametrize("name", ["from_leaves", "from_map"])
def test_only_the_congruence_parser_validates_a_structure(name):
    assert _callers(name) == [("cli", "parse_congruence_text")]


def test_regularity_is_tested_only_on_outside_input():
    assert [site for site in _callers("is_regular") if site[0] != "checks"] == [
        ("congruence", "to_indecomposable"),
        ("congruence", "subgroup_generators"),
        ("congruence", "class_index"),
    ]
