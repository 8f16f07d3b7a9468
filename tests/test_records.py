"""The package's value types.  The small values are NamedTuples; a
tree's signature and stats, the census and the structural census's
``TreeWalk`` are ``words.Record`` classes, which are not tuples and hold
their fields in ``__slots__``.  Each is frozen, is equal to a value of
its own type with equal fields, and hashes by its fields.  A census
entry is a plain tuple."""

import pytest

from idealcensus.checks import CheckConfig
from idealcensus.congruence import RightCongruence, action_table
from idealcensus.ideals import Census, Route, ideal_count_by_trees, word_entry
from idealcensus.linfq import FqMatrix
from idealcensus.qpoly import LaurentPoly
from idealcensus.words import CodeTree, TreeSignature, TreeStats, signature, tree_stats

LEAVES = ("aa", "ab", "b")
IMAGES = {"aa": "a", "ab": "", "b": ""}


def tree() -> CodeTree:
    return CodeTree.from_leaves(LEAVES)


def entry() -> tuple:
    return word_entry(tree(), 3)


# each builds a new value from the same fields; the name is the field assigned to
VALUES = {
    "CheckConfig.max_n": lambda: CheckConfig(max_n=3, primes=(2,)),
    "RightCongruence.images": lambda: RightCongruence.from_map(tree(), IMAGES),
    "ActionTable.a_next": lambda: action_table(RightCongruence.from_map(tree(), IMAGES)),
    "FqMatrix.entries": lambda: FqMatrix.identity(2, 3),
    "Route.name": lambda: Route("formula", "formula", len),
    "CodeTree.leaves": tree,
    "TreeSignature.ranks": lambda: signature(tree()),
    "TreeStats.partition": lambda: tree_stats(tree()),
    "Census.total": lambda: Census(LaurentPoly({2: 1}), (entry(),)),
    "TreeWalk.count": lambda: ideal_count_by_trees(3).entries,
}


@pytest.mark.parametrize("name", VALUES)
def test_assignment_raises(name):
    value = VALUES[name]()
    assert type(value).__name__ == name.split(".")[0]
    field = name.split(".")[1]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_values_and_hashes(name):
    first, second = VALUES[name](), VALUES[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)


def test_records_print_their_fields():
    assert repr(signature(tree())) == "TreeSignature(size=2, ranks=(1,), lengths=(2,))"
    assert repr(tree_stats(tree())) == (
        "TreeStats(a_count=1, a_cells=1, b_cells=0, partition=(2, 2))")
    assert entry() == ((1,), (2,), 1, 1, 0, (2, 2), 3)


def test_a_record_equals_only_its_own_class():
    sig = TreeSignature(2, (1,), (2,))
    assert sig != (2, (1,), (2,))
    assert TreeStats(1, 1, 0, (2, 2)) != TreeSignature(1, 1, 0)
    assert sig == signature(tree())


def test_a_census_is_not_a_tuple():
    # perfbench's ``jobs.without_timings`` reads any tuple answer as
    # (exit code, stdout), and the structural job answers with a Census
    assert not isinstance(Census(1), tuple)


def test_code_tree_layout_is_built_once_per_tree():
    t = tree()
    layout = t.layout
    assert t.layout is layout and t.parts is t.parts
    other = tree()
    assert other == t and other.layout is not layout and other.layout == layout

