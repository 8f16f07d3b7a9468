"""The right-ideal census: closed formula, tree sum, and brute force.

The codimension-n count is a polynomial in q; three independent routes
must produce it, and evaluating at small primes must match exhaustive
enumeration of coefficient assignments.
"""

import tracemalloc
from collections import Counter
from math import comb

import pytest

import idealcensus.ideals as ideals
import idealcensus.words as words
from idealcensus.checks import per_tree_action_counts
from idealcensus.ideals import (
    CodimensionZero,
    cell_decomposition,
    census_by_keys,
    count_invertible_a_actions,
    count_invertible_b_actions,
    ideal_count_brute_force,
    ideal_count_by_trees,
    ideal_count_formula,
    ideal_count_hook_formula,
    tree_contribution,
)
from idealcensus.haglund import haglund_product
from idealcensus.linfq import DEFAULT_BUDGET, TooLarge, enumerate_matrices, is_invertible
from idealcensus.qpoly import ZERO, LaurentPoly
from idealcensus.words import CodeTree, enumerate_trees, signature, tree_stats

EXAMPLE_TREE = CodeTree.from_leaves(["aa", "ab", "baa", "bab", "bba", "bbb"])
EDGE = CodeTree.from_leaves(["a", "b"])


def assignment_slots(tree: CodeTree) -> tuple[tuple[str, str], ...]:
    """The normal form's scalars: one per pair (leaf c, prefix p < c), in (c, p) order."""
    return tuple((c, p) for c in tree.leaves for p in tree.prefixes if p < c)


def test_codimension_zero_rejected():
    for fn in (ideal_count_formula, ideal_count_hook_formula,
               ideal_count_by_trees, cell_decomposition):
        with pytest.raises(CodimensionZero):
            fn(0)
        with pytest.raises(CodimensionZero):
            fn(-2)


def test_formula_frozen_values():
    assert ideal_count_formula(1) == LaurentPoly({2: 1, 1: -2, 0: 1})
    assert ideal_count_formula(2) == LaurentPoly(
        {6: 1, 5: -1, 4: -3, 3: 5, 2: -2})
    assert str(ideal_count_formula(2)) == "q^6 - q^5 - 3q^4 + 5q^3 - 2q^2"


def _census_in_ints(n: int, q: int) -> int:
    """The census at the integer q from the recursion
    P_j = [j]_q! - sum_{k<j} P_k [j-k]_q!, in plain ints: no qpoly code."""
    m = n + 1
    fact = [1]
    for j in range(1, m + 1):
        fact.append(fact[-1] * ((q ** j - 1) // (q - 1)))
    indec = [0]
    for j in range(1, m + 1):
        indec.append(fact[j] - sum(indec[k] * fact[j - k] for k in range(1, j)))
    return (q - 1) ** m * q ** (m * (n - 2) // 2) * indec[m]


def test_formula_at_codim_forty_matches_the_int_recursion():
    # the DP and the (q-1)^41 shifts run at sizes the dict oracle of
    # test_qpoly cannot reach; the census evaluated at q = 2 and q = 3 must equal
    # the same recursion solved in ints at that q
    f = ideal_count_formula(40)
    for q in (2, 3):
        assert f.evaluate(q) == _census_in_ints(40, q)


def test_formula_at_codim_thirty():
    f = ideal_count_formula(30)
    assert f.valuation >= 0
    assert f.degree == 31 * 28 // 2 + 31 + comb(31, 2)
    assert f.evaluate(1) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_entries_equal_tree_contributions(n):
    trees = list(enumerate_trees(n))
    report = ideal_count_by_trees(n)
    assert len(report.entries) == len(trees)
    for tree, entry in zip(trees, report.entries):
        assert entry == ideals.word_entry(tree, tree_contribution(tree))


def test_one_haglund_product_per_partition(monkeypatch):
    calls = []
    real = ideals.haglund_product

    def counted(parts):
        calls.append(tuple(parts))
        return real(parts)

    monkeypatch.setattr(ideals, "haglund_product", counted)
    stats = [tree_stats(tree) for tree in enumerate_trees(6)]
    keys = {(st.a_count, st.a_cells + st.b_cells, st.partition) for st in stats}
    partitions = {st.partition for st in stats}
    report = ideal_count_by_trees(6)
    # the total is packed in one int and builds no Haglund product;
    # drawing the entries builds one per partition
    assert calls == []
    assert len(partitions) < len(keys) < len(list(report.entries)) == 132
    assert sorted(calls) == sorted(partitions)
    # one object per value: the 45 keys hold 40 values
    values = [entry[-1] for entry in report.entries]
    assert len({id(v) for v in values}) == len(set(values)) == 40 < len(keys) == 45


def _census_by_keys_reference(keys, n):
    """Σ m * haglund_product(λ) * (q-1)^(n+1-ℓ) * q^cells, one product per key."""
    return sum((LaurentPoly({cells: m}) * haglund_product(lam).times_q_minus_one(n + 1 - len(lam))
                for (cells, lam), m in keys.items()), ZERO)


@pytest.mark.parametrize("n", range(1, 11))
def test_census_by_keys_matches_one_product_per_key(n):
    keys = Counter((a_cells + b_cells, lam) for *_, a_cells, b_cells, lam in words.tree_records(n))
    assert census_by_keys(keys, n) == _census_by_keys_reference(keys, n)


def test_census_by_keys_on_keys_no_tree_has(monkeypatch):
    products = []
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(LaurentPoly, name, lambda *args: products.append(args))
    monkeypatch.setattr(ideals, "haglund_product", lambda *args: products.append(args))
    huge = {(0, (1, 2)): 10 ** 30, (3, (2, 2, 3)): 7 * 10 ** 30 + 1, (1, (3, 3, 3)): 10 ** 30}
    vanishing = {**huge, (2, (1, 1, 3)): 5, (0, (0, 2, 3)): 10 ** 40}
    got = [census_by_keys(keys, 3) for keys in (huge, vanishing, {})]
    assert products == []
    monkeypatch.undo()
    # the slots widen to hold coefficients near 10**31
    assert got[0] == _census_by_keys_reference(huge, 3)
    assert max(c for _, c in got[0].terms) > 2 ** 100
    # λ_1 = 1 <= 1 and λ_0 = 0 <= 0: those terms vanish
    assert got[1] == got[0]
    assert got[2] is ZERO


def test_structural_total_is_the_formula():
    for n in range(1, 12):
        assert ideal_count_by_trees(n).total == ideal_count_formula(n)


def test_structural_route_builds_no_word(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(words, name)

        def spy(*args):
            calls.append(name)
            return real(*args)
        return spy

    for name in ("signature", "tree_stats", "enumerate_trees"):
        spy = counted(name)
        monkeypatch.setattr(words, name, spy)
        monkeypatch.setattr(ideals, name, spy)
    report = ideal_count_by_trees(6)
    entries = list(report.entries)
    assert calls == []
    monkeypatch.undo()
    assert [e[:2] for e in entries] == [(sig.ranks, sig.lengths)
                                        for sig in map(signature, enumerate_trees(6))]


def test_report_total_is_the_sum_of_its_entries():
    for n in range(1, 9):
        report = ideal_count_by_trees(n)
        assert report.total == sum((e[-1] for e in report.entries), 0)
    report = ideal_count_brute_force(3, 2)
    assert report.total == sum(e[-1] for e in report.entries)


def test_equal_values_under_distinct_keys_sum_to_the_formula():
    # at n = 8, distinct tree keys already give equal contributions
    report = ideal_count_by_trees(8)
    keys = {(e[3] + e[4], e[5]) for e in report.entries}
    assert len({e[-1] for e in report.entries}) < len(keys)
    assert report.total == ideal_count_formula(8)


def test_structural_entries_come_from_the_walk(monkeypatch):
    report = ideal_count_by_trees(7)
    first = list(report.entries)
    assert list(report.entries) == first and len(first) == len(report.entries)
    # a walk that loses its last tree: the length and the total follow the walk
    real = ideals.tree_records
    monkeypatch.setattr(ideals, "tree_records", lambda n: list(real(n))[:-1])
    census = ideal_count_by_trees(7)
    assert len(census.entries) == ideals.catalan(7) - 1
    assert len(list(census.entries)) == ideals.catalan(7) - 1
    assert census.total != ideal_count_formula(7)


def test_two_structural_runs_give_equal_censuses():
    # perfbench's traced mode compares a traced answer with an untraced one
    first, second = ideal_count_by_trees(5), ideal_count_by_trees(5)
    assert first == second and hash(first) == hash(second)
    assert first != ideal_count_by_trees(6)


def test_structural_total_holds_no_per_tree_object():
    # codim 11 has 58,786 trees; the total's walk keeps its keys only
    tracemalloc.start()
    try:
        census = ideal_count_by_trees(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(census.entries) == ideals.catalan(11)
    assert peak < 8 << 20


@pytest.mark.parametrize("route", ideals.ROUTES.values(), ids=list(ideals.ROUTES))
def test_every_route_returns_a_census(route):
    census = route.run(2, 3 if route.needs_q else None, DEFAULT_BUDGET)
    assert isinstance(census, ideals.Census)
    if route.per_tree:
        assert len(census.entries) == ideals.catalan(2)
    else:
        assert census.entries == ()
    assert (census.indec is not None) == (route.name == "formula")


def test_enumerating_routes_charge_the_budget():
    with pytest.raises(TooLarge):
        ideal_count_hook_formula(4, budget=119)  # 5! = 120 permutations
    assert ideal_count_hook_formula(4, budget=120) == ideal_count_formula(4)
    with pytest.raises(TooLarge):
        ideal_count_by_trees(5, budget=41)  # Catalan(5) = 42 trees
    assert ideal_count_by_trees(5, budget=42).total == ideal_count_formula(5)
    with pytest.raises(TooLarge):
        cell_decomposition(4, budget=119)  # the cells walk S_5 too
    assert len(list(cell_decomposition(4, budget=120))) == 71  # indecomposables of size 5


def test_example_tree_contribution():
    contrib = tree_contribution(EXAMPLE_TREE)
    expected = ((LaurentPoly({1: 1, 0: -1})) ** 3
                * LaurentPoly({8: 1, 7: -1, 6: -2, 5: 2, 4: 1, 3: -1}).shift(11))
    assert contrib == expected
    assert contrib.evaluate(2) == 147456


def test_assignment_slots():
    assert ideals.letter_slots(EDGE) == (1, 1)
    assert sum(ideals.letter_slots(EXAMPLE_TREE)) == 22
    assert assignment_slots(EDGE) == (("a", ""), ("b", ""))
    slots = assignment_slots(EXAMPLE_TREE)
    assert len(slots) == 22
    assert slots[0] == ("aa", "")
    assert ("bbb", "bb") in slots
    assert ("aa", "b") not in slots  # b is not below aa


@pytest.mark.parametrize("n,p,expected", [
    (1, 2, 1), (1, 3, 4), (2, 2, 16), (2, 3, 360), (3, 2, 1088), (3, 5, 183200000),
])
def test_brute_force_census_frozen(n, p, expected):
    report = ideal_count_brute_force(n, p)
    assert report.total == expected
    assert report.total == ideal_count_formula(n).evaluate(p)


def test_brute_force_census_codim_four():
    assert ideal_count_brute_force(4, 2).total == 290816 == ideal_count_formula(4).evaluate(2)


def test_brute_force_budget():
    with pytest.raises(TooLarge):
        ideal_count_brute_force(3, 3, budget=10)


def test_widest_letter_has_n_squared_slots():
    # brute force charges p**(n*n) matrices per letter before the first tree
    for n in range(1, 8):
        assert max(max(ideals.letter_slots(t)) for t in enumerate_trees(n)) == n * n


def test_brute_force_budget_counts_matrices_per_letter():
    # codim 2: up to 6 slots per tree, at most 4 of them in one letter
    assert max(max(ideals.letter_slots(t)) for t in enumerate_trees(2)) == 4
    assert max(sum(ideals.letter_slots(t)) for t in enumerate_trees(2)) == 6
    assert ideal_count_brute_force(2, 2, budget=2 ** 4).total == 16
    with pytest.raises(TooLarge):
        ideal_count_brute_force(2, 2, budget=2 ** 4 - 1)


def test_edge_tree_counts():
    # single coefficient per letter; invertible iff nonzero
    for p in (2, 3, 5):
        assert count_invertible_a_actions(EDGE, p) == p - 1
        assert count_invertible_b_actions(EDGE, p) == p - 1


# 3 internal nodes; 6 slots in the a-action and 3 in the b-action
FAN = CodeTree.from_leaves(["a", "ba", "bba", "bbb"])


def test_example_tree_action_legs():
    # 11 free cells in the a-action, k = 3 leaves ending in a
    assert count_invertible_a_actions(EXAMPLE_TREE, 2) == 256  # (2-1)^3 * 2^8
    assert count_invertible_b_actions(EXAMPLE_TREE, 2) == 576  # 2^3 * 72
    assert ideals.letter_slots(FAN) == (6, 3)
    assert count_invertible_a_actions(FAN, 3) * count_invertible_b_actions(FAN, 3) == 3888


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("p", (2, 3))
def test_per_tree_action_counts(n, p):
    assert [tree for tree, ok in per_tree_action_counts(n, p) if not ok] == []


def small_trees():
    return [tree for n in range(1, 4) for tree in enumerate_trees(n)]


@pytest.mark.parametrize("tree", small_trees(), ids=str)
@pytest.mark.parametrize("p", (2, 3))
def test_letter_counts_match_filtered_enumeration(tree, p):
    # each letter's row family, read off the unit entries and the slots, against
    # the reference walk over every matrix it describes; the rows' equality
    # witnesses that every slot is exactly one free cell of one letter
    index = {w: i for i, w in enumerate(tree.prefixes)}
    for letter, count in (("a", count_invertible_a_actions),
                          ("b", count_invertible_b_actions)):
        rows = [([int(w + letter == v) for v in tree.prefixes],
                 [index[r] for c, r in assignment_slots(tree) if c == w + letter])
                for w in tree.prefixes]
        assert ideals.action_rows(tree)[letter] == rows
        direct = sum(1 for m in enumerate_matrices(rows, p) if is_invertible(m))
        assert count(tree, p) == direct


def test_cell_decomposition_small():
    assert list(cell_decomposition(1)) == [((2, 1), 0)]
    assert list(cell_decomposition(2)) == [((2, 3, 1), 2), ((3, 1, 2), 2), ((3, 2, 1), 3)]


def test_cell_decomposition_is_lazy(monkeypatch):
    def one_then_fail(m):
        yield (2, 3, 4, 1)
        raise AssertionError("drew a second cell")

    monkeypatch.setattr(ideals, "enumerate_indecomposables", one_then_fail)
    # 4 * 1 / 2 + inv(2341) = 2 + 3
    assert next(cell_decomposition(3)) == ((2, 3, 4, 1), 5)
    with pytest.raises(TooLarge):
        cell_decomposition(4, budget=119)  # charged at the call, before any cell


def test_one_action_layout_per_count(monkeypatch):
    calls = []
    real = ideals.action_rows

    def counted(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(ideals, "action_rows", counted)
    ideals.ideal_count_brute_force(3, 2)
    # one per letter's count in each of the Catalan(3) trees
    assert len(calls) == 2 * ideals.catalan(3)
