"""Regular right congruences, the permutation correspondence, subgroups."""

import itertools
import time
from math import factorial

import pytest
from hypothesis import given, strategies as st

import idealcensus.congruence as congruence
from idealcensus.congruence import (
    NotIndecomposable,
    NotRegular,
    RightCongruence,
    action_table,
    class_index,
    enumerate_regular,
    free_reduce,
    from_indecomposable,
    group_concat,
    group_inverse,
    group_word_str,
    hall_count,
    is_regular,
    parse_group_word,
    subgroup_contains,
    subgroup_generators,
    to_indecomposable,
)
from idealcensus.linfq import TooLarge
from idealcensus.words import CodeTree

EXAMPLE = RightCongruence.from_map(
    CodeTree.from_leaves(["aa", "ab", "baa", "bab", "bba", "bbb"]),
    {"aa": "", "ab": "", "baa": "b", "bab": "ba", "bba": "bb", "bbb": "a"},
)

group_words = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(-3, 3)), max_size=6
).map(free_reduce)


def test_from_map_validation():
    tree = CodeTree.from_leaves(["a", "b"])
    with pytest.raises(ValueError):
        RightCongruence.from_map(tree, {"a": ""})  # missing leaf
    with pytest.raises(ValueError):
        RightCongruence.from_map(tree, {"a": "", "b": "a"})  # a is no prefix
    with pytest.raises(ValueError):
        RightCongruence.from_map(tree, {"a": "", "b": "b"})  # not smaller
    tree2 = CodeTree.from_leaves(["aa", "ab", "b"])
    with pytest.raises(ValueError):
        RightCongruence.from_map(tree2, {"aa": "a", "ab": "ab", "b": ""})


def test_example_action_table():
    table = action_table(EXAMPLE)
    assert table.states == ("", "a", "b", "ba", "bb")
    assert tuple(table.states[i] for i in table.a_next) == ("a", "", "ba", "b", "bb")
    assert tuple(table.states[i] for i in table.b_next) == ("b", "", "bb", "ba", "a")
    assert is_regular(EXAMPLE)


def test_irregular_congruence():
    rc = RightCongruence.from_map(
        CodeTree.from_leaves(["aa", "ab", "b"]),
        {"aa": "a", "ab": "", "b": ""},
    )
    assert not is_regular(rc)
    with pytest.raises(NotRegular):
        to_indecomposable(rc)
    with pytest.raises(NotRegular):
        subgroup_generators(rc)


def test_example_correspondence():
    assert to_indecomposable(EXAMPLE) == (3, 2, 5, 4, 6, 1)
    assert from_indecomposable((3, 2, 5, 4, 6, 1)) == EXAMPLE


def test_smallest_congruence():
    (rc,) = enumerate_regular(1)
    assert rc.tree.leaves == ("a", "b")
    assert rc.images == ("", "")
    assert to_indecomposable(rc) == (2, 1)


def test_from_indecomposable_rejects():
    for bad in [(1,), (1, 2), (1, 3, 2), (2, 1, 3)]:
        with pytest.raises(NotIndecomposable):
            from_indecomposable(bad)
    with pytest.raises(ValueError):
        from_indecomposable((1, 1))


def test_hall_counts_frozen():
    assert [hall_count(n) for n in range(1, 8)] == \
        [1, 3, 13, 71, 461, 3447, 29093]


def test_enumerate_regular_refuses_before_computing_hall_count():
    # 1500! alone exceeds the budget; hall_count(1500) would take minutes
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"hall_count\(1500\) candidates"):
        next(enumerate_regular(1500, 2 ** 1600))
    assert time.perf_counter() - start < 1.0


def test_enumerate_regular_accepts_n_times_n_factorial_without_hall_count(monkeypatch):
    # hall_count(n) <= n * n!, so that budget needs no hall_count(n)
    def refuse(n):
        raise AssertionError("hall_count computed")

    monkeypatch.setattr(congruence, "hall_count", refuse)
    assert next(enumerate_regular(600, 600 * factorial(600))).tree.n == 600
    assert len(list(enumerate_regular(4, 4 * 24))) == 71


def test_enumerate_regular_reaches_past_the_recursion_limit():
    # the tree and staircase walks once nested a generator frame per node
    start = time.perf_counter()
    assert next(enumerate_regular(1500, 1500 * factorial(1500))).tree.n == 1500
    assert time.perf_counter() - start < 5.0


def test_enumerate_regular_charges_hall_count_between_its_bounds(monkeypatch):
    # 4! = 24 <= budget < 4 * 4! = 96: only hall_count(4) = 71 decides
    calls = []
    real = congruence.hall_count

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(congruence, "hall_count", counted)
    with pytest.raises(TooLarge, match=r"hall_count\(4\) candidates"):
        next(enumerate_regular(4, 70))
    assert len(list(enumerate_regular(4, 71))) == 71
    assert calls == [4, 4]


# -- free group words ------------------------------------------------------


def test_free_reduce():
    assert free_reduce([("a", 1), ("a", 2)]) == (("a", 3),)
    assert free_reduce([("a", 1), ("b", 0), ("a", -1)]) == ()
    assert free_reduce([("a", 1), ("b", 2), ("b", -2), ("a", 1)]) == (("a", 2),)


def test_group_word_rendering():
    assert group_word_str(()) == "1"
    assert group_word_str((("b", 1), ("a", 2), ("b", -1))) == "ba^2b^-1"
    assert parse_group_word("ba^2b^-1") == (("b", 1), ("a", 2), ("b", -1))
    assert parse_group_word("1") == ()
    assert parse_group_word("abb") == (("a", 1), ("b", 2))
    with pytest.raises(ValueError):
        parse_group_word("a^")
    with pytest.raises(ValueError):
        parse_group_word("xyz")


@given(group_words)
def test_group_word_str_roundtrip(w):
    assert parse_group_word(group_word_str(w)) == w


@given(group_words, group_words)
def test_group_concat_reduces(u, v):
    w = group_concat(u, v)
    assert free_reduce(w) == w
    assert group_concat(w, group_inverse(w)) == ()


@given(group_words)
def test_group_inverse_involution(w):
    assert group_inverse(group_inverse(w)) == w


def test_example_subgroup_generators():
    gens = [group_word_str(g) for g in subgroup_generators(EXAMPLE)]
    assert gens == ["a^2", "ab", "ba^2b^-1", "baba^-1b^-1", "b^2ab^-2", "b^3a^-1"]


def test_class_index_walks():
    # from the class of 1: a stays at a, then b reaches ab ~ 1
    assert class_index(EXAMPLE, parse_group_word("ab")) == \
        EXAMPLE.tree.prefixes.index("")
    assert class_index(EXAMPLE, parse_group_word("b")) == \
        EXAMPLE.tree.prefixes.index("b")
    # b^3 ~ a, so b^3 a^-1 comes back to the identity class
    assert subgroup_contains(EXAMPLE, parse_group_word("b^3a^-1"))
    assert not subgroup_contains(EXAMPLE, parse_group_word("b"))


@pytest.mark.parametrize("n", range(1, 4))
def test_generators_live_in_the_subgroup(n):
    for rc in enumerate_regular(n):
        gens = subgroup_generators(rc)
        assert len(gens) == n + 1
        for g in gens:
            assert subgroup_contains(rc, g)
        # small products of generators and inverses stay inside
        for g, h in itertools.product(gens[:3], repeat=2):
            assert subgroup_contains(rc, group_concat(g, group_inverse(h)))


def test_index_two_subgroups_match_classical_sets():
    """The three index-2 subgroups, by their classical generating sets.

    Each classical set must be accepted by exactly one of the three
    regular congruences with two classes, and the match is a perfect
    one; the computed generating sets present the same subgroups with
    inverse letters allowed.
    """
    classical = [
        ["a^2", "ab", "ba"],
        ["a", "bab", "b^2"],
        ["a^2", "aba", "b"],
    ]
    congruences = list(enumerate_regular(2))
    assert len(congruences) == 3
    matches = []
    for gens in classical:
        hits = [i for i, rc in enumerate(congruences)
                if all(subgroup_contains(rc, parse_group_word(g)) for g in gens)]
        assert len(hits) == 1
        matches.append(hits[0])
    assert sorted(matches) == [0, 1, 2]
    computed = {i: [group_word_str(g) for g in subgroup_generators(rc)]
                for i, rc in enumerate(congruences)}
    assert sorted(computed.values()) == [
        ["a", "bab^-1", "b^2"],
        ["a^2", "ab", "ba^-1"],
        ["a^2", "aba^-1", "b"],
    ]
