"""Acceptance suite: the ten headline guarantees of the package.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Everything here is exact integer/polynomial
arithmetic; there are no tolerances.
"""

from math import comb

from idealcensus.checks import (
    branch_floor,
    class_intervals,
    hook_strip_identity,
    power_separation,
    rank_sum_identity,
    series_identity,
    twist_order,
)
from idealcensus.congruence import (
    RightCongruence,
    enumerate_regular,
    from_indecomposable,
    hall_count,
    to_indecomposable,
)
from idealcensus.haglund import (
    haglund_hook_sum,
    haglund_product,
    partitions_bounded,
)
from idealcensus.ideals import (
    count_invertible_a_actions,
    ideal_count_brute_force,
    ideal_count_by_trees,
    ideal_count_formula,
    ideal_count_hook_formula,
)
from idealcensus.linfq import count_invertible_support
from idealcensus.permstat import (
    enumerate_indecomposables,
    enumerate_permutations,
    hook_number,
    hook_union_size,
    indec_inversion_polynomial,
    inversion_distribution,
    inversions,
    is_indecomposable,
)
from idealcensus.qpoly import LaurentPoly, q_factorial
from idealcensus.words import (
    CodeTree,
    enumerate_trees,
    rank_identity_bijection,
    reconstruct,
    signature,
    tree_stats,
)


def failures(cases):
    return [case for case, ok in cases if not ok]


def test_criterion_01_inversion_polynomials():
    """Indecomposable inversion polynomials for sizes 1..4, exactly."""
    assert indec_inversion_polynomial(1) == LaurentPoly({0: 1})
    assert indec_inversion_polynomial(2) == LaurentPoly({1: 1})
    assert indec_inversion_polynomial(3) == LaurentPoly({3: 1, 2: 2})
    assert indec_inversion_polynomial(4) == LaurentPoly(
        {6: 1, 5: 3, 4: 5, 3: 4})


def test_criterion_02_triple_sequence_agreement():
    """Indecomposables, regular congruences, and the subgroup recursion
    all count 1, 3, 13, 71, 461, 3447 for n = 1..6."""
    expected = [1, 3, 13, 71, 461, 3447]
    for n, want in zip(range(1, 7), expected):
        assert sum(1 for _ in enumerate_indecomposables(n + 1)) == want
        assert sum(1 for _ in enumerate_regular(n)) == want
        assert hall_count(n) == want


def test_criterion_03_correspondence_roundtrip():
    """The congruence/permutation correspondence is a bijection for
    n <= 5, and maps the worked six-class congruence to 325461."""
    for n in range(1, 6):
        image = set()
        for rc in enumerate_regular(n):
            theta = to_indecomposable(rc)
            assert theta not in image
            image.add(theta)
            assert from_indecomposable(theta) == rc
        assert image == set(enumerate_indecomposables(n + 1))
    worked = RightCongruence.from_map(
        CodeTree.from_leaves(["aa", "ab", "baa", "bab", "bba", "bbb"]),
        {"aa": "", "ab": "", "baa": "b", "bab": "ba",
         "bba": "bb", "bbb": "a"},
    )
    assert to_indecomposable(worked) == (3, 2, 5, 4, 6, 1)
    assert from_indecomposable((3, 2, 5, 4, 6, 1)) == worked


def test_criterion_04_statistic_identities():
    """Hook-union size agrees with both inversion-based routes and with
    the strip decomposition on all of S_n, n <= 6; the worked values
    are 22 for 325461 and 5 for 231."""
    for n in range(7):
        for s in enumerate_permutations(n):
            grid = hook_union_size(s)
            assert grid == hook_number(s)
            assert grid == inversions(s) + comb(n, 2)
    assert failures(hook_strip_identity(0, 6)) == []
    assert hook_union_size((3, 2, 5, 4, 6, 1)) == 22
    assert hook_union_size((2, 3, 1)) == 5


def test_criterion_05_words_suite():
    """Rank-sum identity, the explicit bijection behind it, and the
    signature round-trip on all trees with up to 8 internal nodes
    (1430 trees at n = 8); the order lemmas exhaustively at length 7."""
    sizes = {}
    for n in range(9):
        sizes[n] = 0
        for tree in enumerate_trees(n):
            sizes[n] += 1
            phi = rank_identity_bijection(tree)
            c_a, c_b, p_b = tree.parts.c_a, tree.parts.c_b, tree.parts.p_b
            expected = ({("pair_b", (p, c)) for p in p_b if p
                         for c in c_b if p < c}
                        | {("leaf_b", c) for c in c_b}
                        | {("pair_a", (g, c)) for g in c_a
                           for c in c_a if g < c})
            assert set(phi.values()) == expected
            assert len(phi.values()) == len(expected)
            if n:
                assert reconstruct(signature(tree)) == tree
    assert sizes[8] == 1430
    assert failures(rank_sum_identity(0, 8)) == []
    assert failures(power_separation(7)) == []
    assert failures(class_intervals(7)) == []
    assert failures(twist_order(7)) == []
    assert failures(branch_floor(7)) == []


def test_criterion_06_staircase_count_triple_agreement():
    """Product formula == hook sum for every staircase shape with up to
    6 parts; both match exhaustive matrix enumeration over F_p for
    p in {2, 3, 5} on shapes with up to 3 parts (at most 9 support
    cells).  The worked shape (2,3,3) gives q^3 (q-1)^3 (q+1)^2, which
    is 72 at q = 2."""
    for n in range(1, 7):
        for parts in partitions_bounded(n):
            assert haglund_product(parts) == haglund_hook_sum(parts)
    for n in range(1, 4):
        for parts in partitions_bounded(n):
            value = haglund_product(parts)
            for p in (2, 3, 5):
                assert value.evaluate(p) == count_invertible_support(parts, p)
    worked = haglund_product((2, 3, 3))
    assert worked == LaurentPoly({8: 1, 7: -1, 6: -2, 5: 2, 4: 1, 3: -1})
    assert worked.evaluate(2) == 72


def test_criterion_07_census_polynomial_routes():
    """Closed formula, hook-statistic route, and the tree-by-tree sum
    produce the same census polynomial for every codimension n <= 6."""
    for n in range(1, 7):
        formula = ideal_count_formula(n)
        assert formula == ideal_count_hook_formula(n)
        assert formula == ideal_count_by_trees(n).total


def test_criterion_08_census_brute_force():
    """Exhaustive enumeration of ideal data over F_p matches the
    evaluated formula: 1, 4, 16, 360, 1088 at the five smallest
    (codimension, prime) pairs."""
    frozen = {(1, 2): 1, (1, 3): 4, (2, 2): 16, (2, 3): 360, (3, 2): 1088}
    for (n, p), want in frozen.items():
        assert ideal_count_brute_force(n, p).total == want
        assert ideal_count_formula(n).evaluate(p) == want


def test_criterion_09_a_action_leg():
    """The letter-a action is invertible for exactly (p-1)^k p^N
    assignments on every tree with n <= 3 at p in {2, 3}; on the
    six-leaf worked tree k = 3, N = 8 and the count at p = 2 is 256."""
    for n in range(1, 4):
        for tree in enumerate_trees(n):
            st = tree_stats(tree)
            for p in (2, 3):
                expected = (p - 1) ** st.a_count * p ** st.a_cells
                assert count_invertible_a_actions(tree, p) == expected
    worked = CodeTree.from_leaves(["aa", "ab", "baa", "bab", "bba", "bbb"])
    st = tree_stats(worked)
    assert st.a_count == 3 and st.a_cells == 8
    assert count_invertible_a_actions(worked, 2) == 256


def test_criterion_10_generating_series():
    """The q-factorial series is the reciprocal of the indecomposable
    series through order t^8, and the inversion distribution over S_n
    is the q-factorial for n <= 7."""
    assert failures(series_identity(8)) == []
    for n in range(8):
        assert inversion_distribution(n) == q_factorial(n)
