"""One budget gate: ``linfq.charge`` is the only place that raises
TooLarge or reads a budget's bit length, and ``cli.main`` the only place
that catches TooLarge, so a hand-written gate fails here.  Likewise no
command hand-writes an exit code: ``cli.main`` alone maps the outcome
exceptions, and argparse rejects bad arguments.  The validating
constructors run only on input read from outside the package: its own
constructions build valid trees and congruences directly, and the check
table witnesses them.  And every module-level name of the library has a
caller in the library or the benchmark, or a reason why tests alone
need it, and each such reason names a library name that nothing else
reads; every name a module imports with ``from`` is read in that
module, or has a reason why a reader outside it needs the binding.
Only ``qpoly`` reads the private slots of ``LaurentPoly``, so its
representation is a one-module concern."""

import ast
from functools import cache
from pathlib import Path

import pytest

import idealcensus
from idealcensus.qpoly import LaurentPoly

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


def test_only_qpoly_reads_the_polynomial_slots():
    slots = set(LaurentPoly.__slots__)
    readers = _sites(lambda n: isinstance(n, ast.Attribute) and n.attr in slots)
    assert {module for module, _ in readers} == {"qpoly"}


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


# Names that only tests call, each kept as the reference a test compares with.
TEST_REFERENCES = {
    "letter_slots": "test_ideals pins the per-letter slot counts brute force charges "
                    "p**slots for, n*n at the widest tree",
}


def _loaded(node) -> set[str]:
    """Names read, attributes and imported names anywhere under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, (ast.Attribute, ast.alias))}


def _defined(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


@cache
def _unread_names() -> tuple[tuple[str, str], ...]:
    """(module, name) of each top-level name of the library that no other
    top-level statement of the library or the benchmark reads."""
    statements = [(path, node, _loaded(node))
                  for path in [*sorted(PACKAGE.glob("*.py")),
                               *sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))]
                  if path.name != "__init__.py"
                  for node in ast.parse(path.read_text(), str(path)).body]
    return tuple((path.stem, name) for path, node, _ in statements
                 if path.parent == PACKAGE
                 for name in _defined(node)
                 if not any(name in loaded for _, other, loaded in statements
                            if other is not node))


def test_every_library_name_has_a_caller():
    assert [f"{module}.{name}" for module, name in _unread_names()
            if name not in TEST_REFERENCES] == []


def test_every_test_reference_is_an_unread_library_name():
    # an entry is stale once the library stops defining its name or starts reading it
    assert sorted(set(TEST_REFERENCES) - {name for _, name in _unread_names()}) == []


# From-imports that their module never reads, each kept for a reader outside it.
_TRACED = "perfbench's test_from_imports_are_wrapped_too checks that the tracer wraps it"
UNREAD_IMPORTS = {
    ("haglund", "count_invertible_support"): _TRACED,
    ("ideals", "_full_rank"): _TRACED,
}


def test_every_from_import_is_read():
    # __init__ imports the package's public names to export them
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(path.stem, alias.asname or alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                   for alias in node.names if (alias.asname or alias.name) not in read]
    assert sorted(unread) == sorted(UNREAD_IMPORTS)
