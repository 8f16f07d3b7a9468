"""Permutation statistics, indecomposability, and the hook-cell count.

The grid route (hook_union_size) and the inversion routes (hook_number)
are independent implementations; several tests here pin them against
each other and against hand-checked instances.
"""

from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from idealcensus.permstat import (
    DuplicateLetters,
    enumerate_indecomposables,
    enumerate_permutations,
    hook_number,
    hook_union_size,
    indec_inversion_polynomial,
    indec_inversion_polynomials,
    recursion_cost,
    indecomposable_factors,
    inverse,
    inversion_distribution,
    inversions,
    is_indecomposable,
    lr_maxima,
    parse_permutation,
    permutation_str,
    shifted_concat,
    standardize,
    strip_lr_maxima,
)
from idealcensus.congruence import hall_count
from idealcensus.ideals import cell_decomposition
from idealcensus.linfq import DEFAULT_BUDGET, TooLarge
from idealcensus.qpoly import LaurentPoly, q_factorial

perms = st.permutations(range(1, 8)).map(tuple)


def test_parse_and_render():
    assert parse_permutation("325461") == (3, 2, 5, 4, 6, 1)
    assert parse_permutation("3,2,5,4,6,1") == (3, 2, 5, 4, 6, 1)
    assert permutation_str((3, 2, 5, 4, 6, 1)) == "325461"
    assert permutation_str(tuple(range(1, 12))) == "1,2,3,4,5,6,7,8,9,10,11"
    with pytest.raises(ValueError):
        parse_permutation("1231")
    with pytest.raises(ValueError):
        parse_permutation("a")


def test_worked_statistics():
    t = (3, 2, 5, 4, 6, 1)
    assert inversions(t) == 7
    assert hook_union_size(t) == 22
    assert hook_number(t) == 22
    assert hook_union_size((2, 3, 1)) == 5


def test_hook_small_cases():
    assert hook_union_size(()) == 0
    assert hook_union_size((1,)) == 0
    assert hook_union_size((1, 2)) == 1
    assert hook_union_size((2, 1)) == 2


def test_lr_maxima_worked():
    lr = lr_maxima((3, 2, 5, 4, 6, 1))
    assert lr.positions == (1, 3, 5)
    assert lr.values == (3, 5, 6)
    assert lr.count == 3
    assert lr_maxima(()) == ((), ())


def test_standardize():
    assert standardize((3, 6, 4, 9)) == (1, 3, 2, 4)
    assert standardize(()) == ()
    with pytest.raises(DuplicateLetters):
        standardize((2, 2))


def test_strip_lr_maxima():
    assert strip_lr_maxima((3, 2, 5, 4, 6, 1)) == (2, 3, 1)
    assert strip_lr_maxima((1, 2, 3)) == ()


def test_indecomposable_basics():
    assert not is_indecomposable(())
    assert is_indecomposable((1,))
    assert not is_indecomposable((1, 2))
    assert is_indecomposable((2, 1))
    assert set(enumerate_indecomposables(3)) == {(2, 3, 1), (3, 1, 2), (3, 2, 1)}


def test_indecomposable_counts():
    counts = [sum(1 for _ in enumerate_indecomposables(m)) for m in range(1, 8)]
    assert counts == [1, 1, 3, 13, 71, 461, 3447]


def test_inversion_polynomials_frozen():
    assert indec_inversion_polynomial(1) == LaurentPoly({0: 1})
    assert indec_inversion_polynomial(2) == LaurentPoly({1: 1})
    assert indec_inversion_polynomial(3) == LaurentPoly({3: 1, 2: 2})
    assert indec_inversion_polynomial(4) == LaurentPoly({6: 1, 5: 3, 4: 5, 3: 4})


@pytest.mark.parametrize("m", range(1, 10))
def test_recursion_matches_enumeration(m):
    polys = indec_inversion_polynomials(m)
    assert len(polys) == m
    assert polys[-1] == indec_inversion_polynomial(m)


def test_recursion_counts_are_hall_counts():
    # P_{n+1}(1) counts the indecomposables of size n+1 (OEIS A003319)
    polys = indec_inversion_polynomials(21)
    assert [p.evaluate(1) for p in polys[:7]] == [1, 1, 3, 13, 71, 461, 3447]
    assert [polys[n].evaluate(1) for n in range(1, 21)] == \
        [hall_count(n) for n in range(1, 21)]


def test_recursion_cost_is_its_coefficient_products():
    # [j-1]_q! * [j]_q, then P_k * [j-k]_q! for k < j, dense operands
    for m in range(61):
        direct = sum((comb(j - 1, 2) + 1) * j for j in range(1, m + 1)) + sum(
            (comb(k, 2) - k + 2) * (comb(j - k, 2) + 1)
            for j in range(1, m + 1) for k in range(1, j))
        assert recursion_cost(m) == direct
    # the default budget reaches P_61, the formula route's codim 60
    assert recursion_cost(61) == 64231475 <= DEFAULT_BUDGET < recursion_cost(62) == 70889870
    indec_inversion_polynomials(5, budget=recursion_cost(5))
    with pytest.raises(TooLarge):
        indec_inversion_polynomials(5, budget=recursion_cost(5) - 1)


def test_recursion_rejects_empty_size():
    with pytest.raises(ValueError):
        indec_inversion_polynomials(0)


@pytest.mark.parametrize("n", range(1, 6))
def test_cell_dimension_is_hook_less_size(n):
    cells = list(cell_decomposition(n))
    assert [theta for theta, _ in cells] == list(enumerate_indecomposables(n + 1))
    for theta, d in cells:
        assert d == (n + 1) * (n - 2) // 2 + inversions(theta) == hook_union_size(theta) - (n + 1)


def test_factorization_roundtrip():
    assert indecomposable_factors((1, 2, 4, 3)) == ((1,), (1,), (2, 1))
    assert indecomposable_factors(()) == ()
    for n in range(1, 7):
        for s in enumerate_permutations(n):
            factors = indecomposable_factors(s)
            assert all(is_indecomposable(f) for f in factors)
            rebuilt = ()
            for f in factors:
                rebuilt = shifted_concat(rebuilt, f)
            assert rebuilt == s
            assert (len(factors) == 1) == is_indecomposable(s)


def test_shifted_concat():
    assert shifted_concat((2, 1), (1, 3, 2)) == (2, 1, 3, 5, 4)
    assert shifted_concat((), (1,)) == (1,)


@given(perms)
def test_inverse_is_an_involution(s):
    assert inverse(inverse(s)) == s


@given(perms)
def test_transpose_symmetry(s):
    t = inverse(s)
    assert inversions(s) == inversions(t)
    assert hook_union_size(s) == hook_union_size(t)


@given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple))
def test_inversions_by_definition(s):
    n = len(s)
    pairs = sum(1 for i in range(n) for j in range(i + 1, n) if s[i] > s[j])
    assert inversions(s) == pairs == hook_union_size(s) - comb(n, 2)


@given(perms, perms)
def test_inversions_add_under_shifted_concat(a, b):
    assert inversions(shifted_concat(a, b)) == inversions(a) + inversions(b)


@given(st.lists(st.integers(0, 10 ** 6), unique=True, max_size=8))
def test_standardize_fixed_points_are_permutations(word):
    s = standardize(word)
    assert sorted(s) == list(range(1, len(word) + 1))
    assert standardize(s) == s


@pytest.mark.parametrize("n", range(6))
def test_inversion_distribution_is_q_factorial(n):
    assert inversion_distribution(n) == q_factorial(n)
    assert inversion_distribution(n).evaluate(1) == factorial(n)
