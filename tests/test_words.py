"""Words over {a, b}, the twisted order, code trees and signatures."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from idealcensus.words import (
    A_INVERSE,
    MAX_WORD_LENGTH,
    CodeTree,
    EmptyWord,
    InvalidSignature,
    TreeSignature,
    TrivialTree,
    all_words,
    alph_compare,
    check_word,
    enumerate_trees,
    parse_word,
    rank_identity_bijection,
    reconstruct,
    signature,
    strip_a_run,
    strip_b_run,
    strip_last_run,
    tree_records,
    tree_stats,
    twisted_compare,
    twisted_key,
    word_compact,
    word_str,
)

# the running example: the six-leaf tree behind the permutation 325461
EXAMPLE_LEAVES = ("aa", "ab", "baa", "bab", "bba", "bbb")

short_words = st.text(alphabet="ab", max_size=6)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_parse_word():
    assert parse_word("ba^2b") == "baab"
    assert parse_word("baab") == "baab"
    assert parse_word("1") == ""
    assert parse_word(" a^3 ") == "aaa"
    with pytest.raises(ValueError):
        parse_word("ac")
    with pytest.raises(ValueError):
        parse_word("a^")


def test_check_word_accepts_exactly_the_words_over_a_b():
    for w in ("", "a", "abba"):
        assert check_word(w) == w
    for bad in ("Xab", "aXb", "abX", "A", "ä", "a b", 5):
        with pytest.raises(ValueError) as info:
            check_word(bad)
        assert str(info.value) == f"not a word over a, b: {bad!r}"


@given(st.text(alphabet="abAB äX\n", max_size=8) | st.text(max_size=8))
def test_check_word_agrees_with_the_per_character_test(w):
    if all(ch in "ab" for ch in w):
        assert check_word(w) == w
    else:
        with pytest.raises(ValueError):
            check_word(w)


def test_parse_word_rejects_a_long_word_before_building_it():
    assert len(parse_word(f"ba^{MAX_WORD_LENGTH - 1}")) == MAX_WORD_LENGTH
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="longer than"):
            parse_word("ba^1000000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # an exponent past int()'s digit limit is rejected before int() reads it
    for exponent in ("9" * 5000, "10000"):
        with pytest.raises(ValueError, match="longer than 1000 letters"):
            parse_word("a^" + exponent)
    assert parse_word("a^0002") == "aa"
    assert parse_word("ba^" + "0" * 5000 + "3") == "baaa"


def test_word_rendering():
    assert word_str("") == "1"
    assert word_str("ab") == "ab"
    assert word_compact("") == "1"
    assert word_compact("aab") == "a^2b"
    assert word_compact("abba") == "ab^2a"


@given(short_words)
def test_compact_roundtrip(w):
    assert parse_word(word_compact(w)) == w


def test_strips():
    assert strip_a_run("baa") == "b"
    assert strip_a_run("bb") == "bb"
    assert strip_b_run("abb") == "a"
    assert strip_last_run("abb") == "a"
    assert strip_last_run("aba") == "ab"
    with pytest.raises(EmptyWord):
        strip_last_run("")


def test_twisted_order_explicit():
    chain = ["aa", "a", "", A_INVERSE, "aab", "ab", "ba", "b", "bb"]
    keys = [twisted_key(x) for x in chain]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # a^-1 sits above every power of a and below every word with a b
    assert twisted_compare("aaaa", A_INVERSE) < 0
    assert twisted_compare(A_INVERSE, "ab") < 0
    assert twisted_compare(A_INVERSE, A_INVERSE) == 0


@given(short_words, short_words)
def test_twisted_compare_antisymmetric(u, v):
    assert twisted_compare(u, v) == -twisted_compare(v, u)
    assert (twisted_compare(u, v) == 0) == (u == v)


@given(st.lists(short_words, max_size=8))
def test_twisted_key_sorts_consistently(ws):
    ordered = sorted(ws, key=twisted_key)
    for x, y in zip(ordered, ordered[1:]):
        assert twisted_compare(x, y) <= 0


@given(short_words, short_words)
def test_alph_compare_matches_python(u, v):
    assert alph_compare(u, v) == (0 if u == v else (-1 if u < v else 1))


def test_all_words_count():
    assert sum(1 for _ in all_words(4)) == 2 ** 5 - 1


def test_tree_validation():
    with pytest.raises(ValueError):
        CodeTree.from_leaves([])
    with pytest.raises(ValueError):
        CodeTree.from_leaves(["a", "ab"])  # not prefix-free
    with pytest.raises(ValueError):
        CodeTree.from_leaves(["a", "ba"])  # not maximal: bb missing
    with pytest.raises(ValueError):
        CodeTree.from_leaves(["a", "b", "b"])


def test_example_tree_shape():
    tree = CodeTree.from_leaves(EXAMPLE_LEAVES)
    assert tree.n == 5
    assert tree.leaves == EXAMPLE_LEAVES
    assert tree.prefixes == ("", "a", "b", "ba", "bb")
    c_a, c_b, p_a, p_b = tree.parts
    assert c_a == ("aa", "baa", "bba")
    assert c_b == ("ab", "bab", "bbb")
    assert p_a == ("", "a", "ba")
    assert p_b == ("", "b", "bb")


def test_trivial_tree_parts():
    tree = CodeTree.from_leaves([""])
    assert tree.n == 0
    assert tree.parts == ((), (), (), ())
    with pytest.raises(TrivialTree):
        signature(tree)


@pytest.mark.parametrize("n", range(7))
def test_tree_counts_are_catalan(n):
    trees = list(enumerate_trees(n))
    assert len(trees) == CATALAN[n]
    assert len({t.leaves for t in trees}) == len(trees)
    for t in trees:
        assert len(t.leaves) == n + 1
        # the enumeration promises valid trees; spot-check via the validator
        assert CodeTree.from_leaves(t.leaves) == t


def recursive_leaf_sets(n):
    """The root-split definition of the tree order, one frame per node."""
    if n == 0:
        yield ("",)
        return
    for left in range(n):
        for l_leaves in recursive_leaf_sets(left):
            for r_leaves in recursive_leaf_sets(n - 1 - left):
                yield tuple("a" + w for w in l_leaves) + tuple("b" + w for w in r_leaves)


@pytest.mark.parametrize("n", range(9))
def test_tree_order_is_the_root_split_recursion(n):
    assert [t.leaves for t in enumerate_trees(n)] == list(recursive_leaf_sets(n))


def test_tree_enumeration_reaches_past_the_recursion_limit():
    tree = next(enumerate_trees(1200))
    assert tree.leaves[0] == "a" and tree.leaves[-1] == "b" * 1200


@pytest.mark.parametrize("n", range(1, 10))
def test_tree_records_equal_the_word_level_data(n):
    assert list(tree_records(n)) == [(signature(t), tree_stats(t))
                                     for t in enumerate_trees(n)]


def test_tree_records_hold_one_tuple_per_value():
    # the census holds these tuples for every tree: one copy per value
    records = list(tree_records(9))
    for field, values in ((lambda r: r[0].ranks, 256), (lambda r: r[0].lengths, 256),
                          (lambda r: r[1].partition, 153)):
        tuples = [field(r) for r in records]
        assert len({id(t) for t in tuples}) == len(set(tuples)) == values


def test_tree_records_need_an_internal_node():
    with pytest.raises(TrivialTree):
        tree_records(0)
    with pytest.raises(ValueError):
        tree_records(-1)


def test_example_signature_and_stats():
    tree = CodeTree.from_leaves(EXAMPLE_LEAVES)
    sig = signature(tree)
    assert sig == TreeSignature(5, (1, 3, 5), (2, 2, 1))
    st_ = tree_stats(tree)
    assert st_.a_count == 3
    assert tuple(itertools.accumulate(sig.lengths)) == (2, 4, 5)
    assert st_.a_cells == 8
    assert st_.b_cells == 3
    assert st_.partition == (2, 3, 3)


def test_reconstruct_example():
    tree = reconstruct(TreeSignature(5, (1, 3, 5), (2, 2, 1)))
    assert tree.leaves == EXAMPLE_LEAVES


def test_reconstruct_small():
    assert reconstruct(TreeSignature(1, (1,), (1,))).leaves == ("a", "b")
    assert reconstruct(TreeSignature(2, (1, 2), (1, 1))).leaves == ("a", "ba", "bb")


@pytest.mark.parametrize("bad", [
    TreeSignature(2, (2,), (1,)),        # first rank must be 1
    TreeSignature(2, (1, 4), (1, 1)),    # rank beyond n+1
    TreeSignature(2, (1,), (0,)),        # zero run length
    TreeSignature(2, (1,), (2, 1)),      # length count mismatch
    TreeSignature(2, (1,), (1,)),        # scan exhausts early
    TreeSignature(0, (1,), (1,)),
])
def test_reconstruct_rejects(bad):
    with pytest.raises(InvalidSignature):
        reconstruct(bad)


@pytest.mark.parametrize("n", range(1, 5))
def test_reconstruct_accepts_only_tree_signatures(n):
    # every rank set containing 1, every run length 1..n+1: what the scan
    # accepts is a valid tree with that signature, the rest is refused
    accepted = 0
    for rest in itertools.chain.from_iterable(
            itertools.combinations(range(2, n + 2), r) for r in range(n + 1)):
        ranks = (1, *rest)
        for lengths in itertools.product(range(1, n + 2), repeat=len(ranks)):
            sig = TreeSignature(n, ranks, lengths)
            try:
                tree = reconstruct(sig)
            except InvalidSignature:
                continue
            accepted += 1
            assert CodeTree.from_leaves(tree.leaves) == tree
            assert signature(tree) == sig
    assert accepted == CATALAN[n]


def test_rank_bijection_example():
    tree = CodeTree.from_leaves(EXAMPLE_LEAVES)
    phi = rank_identity_bijection(tree)
    sig = signature(tree)
    # domain size: leaves strictly above each a-ending leaf
    assert len(phi) == (tree.n + 1) * len(sig.ranks) - sum(sig.ranks)
    assert len(set(phi.values())) == len(phi)
    kinds = {}
    for tag, _ in phi.values():
        kinds[tag] = kinds.get(tag, 0) + 1
    assert kinds == {"pair_b": 3, "leaf_b": 3, "pair_a": 3}


