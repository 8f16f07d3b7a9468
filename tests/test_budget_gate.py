"""One budget gate: ``linfq.charge`` is the only place that raises
TooLarge or reads a budget's bit length, and ``cli.main`` the only place
that catches TooLarge, so a hand-written gate fails here."""

import ast
from pathlib import Path

import idealcensus

PACKAGE = Path(idealcensus.__file__).parent


def _names_too_large(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "TooLarge"
               or isinstance(n, ast.Attribute) and n.attr == "TooLarge"
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
                  and _names_too_large(n.exc)) == [("linfq", "charge")]


def test_only_charge_reads_a_bit_length():
    assert _sites(lambda n: isinstance(n, ast.Attribute)
                  and n.attr == "bit_length") == [("linfq", "charge")]


def test_only_main_catches_too_large():
    assert _sites(lambda n: isinstance(n, ast.ExceptHandler) and n.type is not None
                  and _names_too_large(n.type)) == [("cli", "main")]
