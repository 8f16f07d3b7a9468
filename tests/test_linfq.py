"""Dense matrices over prime fields and counts over row families."""

import itertools
import random

import pytest

from idealcensus import linfq
from idealcensus.haglund import haglund_product
from idealcensus.linfq import (
    FqMatrix,
    NonSquare,
    MAX_CERTIFIED_PRIME,
    TooLarge,
    charge,
    check_prime,
    count_invertible_rows,
    count_invertible_support,
    enumerate_matrices,
    is_invertible,
)


def det_permanent_expansion(rows, p):
    """Independent oracle: determinant by signed permutation expansion."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod = (prod * rows[i][perm[i]]) % p
        total = (total + sign * prod) % p
    return total % p


def test_check_prime():
    assert check_prime(2) == 2
    assert check_prime(97) == 97
    for bad in (0, 1, 4, 9, -3, 2.0):
        with pytest.raises(ValueError):
            check_prime(bad)


def test_check_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(10 ** 4):
        try:
            check_prime(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == trial(n), n


def test_check_prime_large():
    # 561 is a Carmichael number, the next two are strong pseudoprimes to
    # the bases 2..7 resp. 2..23, and 2^67 - 1 = 193707721 * 761838257287.
    for composite in (561, 3215031751, 3825123056546413051, 2 ** 67 - 1):
        with pytest.raises(ValueError):
            check_prime(composite)
    for prime in (10 ** 18 + 3, 2 ** 61 - 1):
        assert check_prime(prime) == prime
    with pytest.raises(ValueError, match="too large"):
        check_prime(2 ** 89 - 1)
    assert MAX_CERTIFIED_PRIME < 2 ** 89 - 1


def test_from_rows_reduces_mod_p():
    m = FqMatrix.from_rows([[5, -1], [7, 3]], 3)
    assert m.entries == ((2, 2), (1, 0))
    assert m.entries[0][1] == 2
    with pytest.raises(ValueError):
        FqMatrix.from_rows([[1, 2], [3]], 5)


def test_zero_and_identity():
    assert FqMatrix.zero(2, 3).entries == ((0, 0), (0, 0))
    eye = FqMatrix.identity(3, 2)
    assert eye.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert is_invertible(eye)
    assert not is_invertible(FqMatrix.zero(2, 2))
    assert FqMatrix.zero(2, 3).modulus == 3


def test_invertibility_small_cases():
    assert is_invertible(FqMatrix.from_rows([[1, 1], [0, 1]], 2))
    assert not is_invertible(FqMatrix.from_rows([[1, 1], [1, 1]], 2))
    # invertible over Q but singular mod 3
    assert not is_invertible(FqMatrix.from_rows([[1, 2], [2, 1]], 3))
    assert is_invertible(FqMatrix.from_rows([[1, 2], [2, 1]], 5))
    with pytest.raises(NonSquare):
        is_invertible(FqMatrix.from_rows([[1, 0, 1], [0, 1, 0]], 2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_invertibility_matches_determinant_oracle(p):
    rng = random.Random(p)
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        m = FqMatrix.from_rows(rows, p)
        assert is_invertible(m) == (det_permanent_expansion(rows, p) != 0)


@pytest.mark.parametrize("p", [2, 3])
def test_full_group_order(p):
    # |GL_2(F_p)| = (p^2 - 1)(p^2 - p)
    count = sum(1 for m in enumerate_matrices([([0, 0], [0, 1])] * 2, p)
                if is_invertible(m))
    assert count == (p * p - 1) * (p * p - p)


def test_enumerate_support_matrices_shape():
    mats = list(enumerate_matrices([([0, 0], [0]), ([0, 0], [1])], 3))
    assert len(mats) == 9
    assert len(set(mats)) == 9
    for m in mats:
        assert m.rows == m.cols == 2
        assert m.entries[0][1] == 0 and m.entries[1][0] == 0


def test_enumerate_support_little_endian_from_zero():
    mats = list(enumerate_matrices([([0, 0], [0, 1])], 2))
    assert [m.entries for m in mats[:4]] == [((0, 0),), ((1, 0),), ((0, 1),), ((1, 1),)]
    # the walk starts at the fixed rows; a fixed entry in a free column is overwritten
    mats = list(enumerate_matrices([([1, 0], []), ([4, 1], [1, 0])], 3))
    assert [m.entries for m in mats[:4]] == [
        ((1, 0), (0, 0)), ((1, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 0), (1, 0))]
    assert len(mats) == 9


def test_enumerate_support_explicit_dims():
    # the fixed rows give the dimensions, also where no cell is free
    mats = list(enumerate_matrices([([0, 0, 0], [0]), ([0, 0, 0], [])], 2))
    assert len(mats) == 2
    assert all(m.rows == 2 and m.cols == 3 for m in mats)
    assert [m.entries for m in enumerate_matrices([], 2)] == [()]


def test_enumerate_support_validation():
    with pytest.raises(ValueError, match="ragged"):
        list(enumerate_matrices([([0, 0], [0]), ([0], [])], 2))
    with pytest.raises(ValueError, match="in 0..1"):
        list(enumerate_matrices([([0, 0], [2])], 2))  # columns are 0-based
    with pytest.raises(ValueError, match="distinct"):
        list(enumerate_matrices([([0, 0], [1, 1])], 2))
    with pytest.raises(ValueError):
        list(enumerate_matrices([([0], [0])], 4))
    with pytest.raises(TooLarge):
        list(enumerate_matrices([([0] * 5, range(5))] * 5, 3, budget=100))


def test_charge_refuses_a_size_past_the_bit_length_without_its_cost():
    def cost(size):
        raise AssertionError("cost computed")

    budget = 1000  # bit length 10
    with pytest.raises(TooLarge, match="^things exceed budget 1000$"):
        charge(11, cost, budget, "things")
    charge(10, lambda k: budget, budget, "things")
    with pytest.raises(TooLarge, match="^things exceed budget 999$"):
        charge(10, lambda k: budget, budget - 1, "things")
    charge(0, lambda k: 1, 1, "things")


def test_count_invertible_support_validation():
    with pytest.raises(ValueError):
        count_invertible_support((2, 1), 2)  # not weakly increasing
    with pytest.raises(ValueError):
        count_invertible_support((1, 3), 2)  # part exceeds the bound
    with pytest.raises(ValueError):
        count_invertible_support((-1, 2), 2)
    with pytest.raises(TooLarge):
        count_invertible_support((3, 3, 3), 5, budget=100)


@pytest.mark.parametrize("p,expected", [(2, 2), (3, 12), (5, 80)])
def test_staircase_two_rows(p, expected):
    # shape (1, 2): lower triangular 2x2, count (p-1)^2 * p
    assert count_invertible_support((1, 2), p) == expected


def test_worked_staircase():
    assert count_invertible_support((2, 2), 2) == 6
    assert count_invertible_support((2, 3, 3), 2) == 72
    # a vanishing shape: first column empty forces singularity
    assert count_invertible_support((0, 2), 3) == 0


@pytest.mark.parametrize("p", [2, 3])
def test_count_matches_filtered_enumeration(p):
    # independent route: filter the reference walk over the staircase's row family
    for parts in [(1,), (1, 1), (1, 2), (2, 2), (1, 2, 3)]:
        rows = [([0] * len(parts), list(range(v))) for v in parts]
        direct = sum(1 for m in enumerate_matrices(rows, p) if is_invertible(m))
        assert count_invertible_rows(rows, p) == direct
        assert count_invertible_support(parts, p) == direct


def test_staircase_three_rows_at_five():
    assert count_invertible_support((3, 3, 3), 5) == 1488000  # |GL_3(F_5)|


def test_one_span_per_superspace(monkeypatch):
    # each node searches each subspace its candidates reach once: the 31
    # lines of F_5^3 at the root, then under each line, searched once, the
    # 6 planes through it (775 = 31 + 124 * 6 when every nonzero first
    # row searched its line again)
    extend = linfq._extend_span
    built = []

    def extend_span(span, v, *args):
        built.append(v)
        return extend(span, v, *args)

    monkeypatch.setattr(linfq, "_extend_span", extend_span)
    assert count_invertible_support((3, 3, 3), 5) == 1488000
    assert len(built) == 31 + 31 * 6


def test_staircase_four_rows_at_three():
    # the full staircase is all of GL_4(F_3)
    assert count_invertible_support((4, 4, 4, 4), 3) == 24_261_120


@pytest.mark.parametrize("p", [2, 3])
def test_rows_count_matches_filtered_enumeration(p):
    # rows with fixed entries outside their free columns, against the reference walk
    rng = random.Random(p)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = []
        for _ in range(n):
            free = rng.sample(range(n), rng.randint(0, n))
            fixed = [0 if j in free else rng.randrange(p) for j in range(n)]
            rows.append((fixed, free))
        direct = sum(1 for m in enumerate_matrices(rows, p) if is_invertible(m))
        assert count_invertible_rows(rows, p) == direct


def test_rows_count_matches_filtered_enumeration_at_five():
    # rows with nonzero fixed entries have candidate sets that are not
    # closed under scaling, so shared span sets are checked on them too
    p = 5
    rng = random.Random(p)
    for _ in range(30):
        n = rng.randint(2, 4)
        left = 5  # at most p**5 <= 2**12 matrices per family
        rows = []
        for _ in range(n):
            free = rng.sample(range(n), rng.randint(0, min(n, left)))
            left -= len(free)
            fixed = [0 if j in free else rng.randrange(p) for j in range(n)]
            rows.append((fixed, free))
        direct = sum(1 for m in enumerate_matrices(rows, p) if is_invertible(m))
        assert count_invertible_rows(rows, p) == direct


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_free_columns_overwrite_their_fixed_entries(p):
    # a fixed entry inside a free column, however large or negative, is
    # overwritten by the free value, never added to it
    assert count_invertible_rows([([5], [0])], 11) == 10
    assert count_invertible_rows([([-1], [0])], p) == p - 1
    rng = random.Random(100 + p)
    for _ in range(30):
        n = rng.randint(1, 3)
        left = 4  # at most p**4 matrices per family
        rows = []
        for _ in range(n):
            free = rng.sample(range(n), rng.randint(0, min(n, left)))
            left -= len(free)
            fixed = [rng.choice([rng.randrange(1, p), -rng.randrange(1, p),
                                 p + rng.randrange(p), 0]) for _ in range(n)]
            rows.append((fixed, free))
        direct = sum(1 for m in enumerate_matrices(rows, p) if is_invertible(m))
        assert count_invertible_rows(rows, p) == direct, rows


@pytest.mark.parametrize("p", [2, 3, 5, 7, 17, 31, 127, 131, 8191])
def test_counts_across_lane_widths(p):
    # primes on both sides of each step of the packed vectors' lane width
    assert count_invertible_rows([([1, 0], []), ([0, 0], [1])], p) == p - 1
    assert count_invertible_rows([([1, 0], []), ([p + 3, 0], [1])], p) == p - 1
    if p <= 131:
        gl2 = (p * p - 1) * (p * p - p)
        assert count_invertible_rows([([0, 0], [0, 1])] * 2, p, budget=p ** 4) == gl2
    if p <= 5:
        rows = [([0, 0, 0], [0, 1, 2])] * 2 + [([0, 1, 0], [2])]
        direct = sum(1 for m in enumerate_matrices(rows, p) if is_invertible(m))
        assert count_invertible_rows(rows, p) == direct


def test_staircase_at_thirteen_matches_the_haglund_product():
    parts = (1, 3, 3)
    assert count_invertible_support(parts, 13) == haglund_product(parts).evaluate(13)


def test_count_invertible_rows_validation():
    assert count_invertible_rows([], 2) == 1
    assert count_invertible_rows([([1, 0], []), ([1, 0], [])], 3) == 0
    assert count_invertible_rows([([0, 0], [0, 1])] * 2, 3) == 48  # |GL_2(F_3)|
    with pytest.raises(NonSquare):
        count_invertible_rows([([0, 0], [0])], 2)
    with pytest.raises(ValueError):
        count_invertible_rows([([0], [1])], 2)
    with pytest.raises(ValueError):
        count_invertible_rows([([0, 0], [0, 0]), ([0, 0], [])], 2)
    with pytest.raises(ValueError):
        count_invertible_rows([([0], [0])], 4)
    with pytest.raises(TooLarge):
        count_invertible_rows([([0] * 3, range(3))] * 3, 5, budget=5 ** 9 - 1)
    # no free cell, yet the span sets grow to 2**11 vectors: p**n is charged too
    identity = [([int(i == j) for j in range(12)], []) for i in range(12)]
    assert count_invertible_rows(identity, 2, budget=2 ** 12) == 1
    with pytest.raises(TooLarge, match="2\\*\\*12 span vectors"):
        count_invertible_rows(identity, 2, budget=2 ** 10)
