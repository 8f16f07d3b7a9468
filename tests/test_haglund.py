"""Staircase-supported invertible matrix counts: product form vs hook sum."""

import pytest

from idealcensus.haglund import (
    check_partition,
    constrained_permutations,
    haglund_product,
    partitions_bounded,
)
from idealcensus.qpoly import LaurentPoly, ZERO


def test_check_partition():
    assert check_partition([0, 1, 3]) == (0, 1, 3)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition((2, 1))
    with pytest.raises(ValueError):
        check_partition((1, 4, 4))  # part above the number of parts
    with pytest.raises(ValueError):
        check_partition((-1,))


def test_product_form_explicit():
    assert haglund_product((1,)) == LaurentPoly({1: 1, 0: -1})
    # q^3 (q-1)^3 (q+1)^2
    assert haglund_product((2, 3, 3)) == LaurentPoly(
        {8: 1, 7: -1, 6: -2, 5: 2, 4: 1, 3: -1})
    assert haglund_product((2, 3, 3)).evaluate(2) == 72


def test_product_vanishes_below_staircase():
    assert haglund_product((0,)) == ZERO
    assert haglund_product((1, 1)) == ZERO
    assert haglund_product((1, 2, 2)) == ZERO
    assert haglund_product((1, 2, 3)) != ZERO


def test_constrained_permutations():
    assert list(constrained_permutations((1, 2, 3))) == [(1, 2, 3)]
    assert list(constrained_permutations((2, 2, 3))) == [(1, 2, 3), (2, 1, 3)]
    assert list(constrained_permutations((1, 1))) == []
    assert sum(1 for _ in constrained_permutations((3, 3, 3))) == 6


def recursive_constrained_permutations(parts):
    """The backtracking definition, one generator frame per row."""
    n = len(parts)
    used = [False] * (n + 1)
    row = []

    def backtrack(i):
        if i == n:
            yield tuple(row)
            return
        for v in range(1, parts[i] + 1):
            if not used[v]:
                used[v] = True
                row.append(v)
                yield from backtrack(i + 1)
                row.pop()
                used[v] = False

    yield from backtrack(0)


@pytest.mark.parametrize("n", range(9))
def test_constrained_permutations_order_is_the_backtracking(n):
    # every staircase up to n = 6; beyond, a full one and a ragged one
    cases = partitions_bounded(n) if n <= 6 else [(n,) * n, tuple(range(2, n + 1)) + (n,)]
    for parts in cases:
        assert (list(constrained_permutations(parts))
                == list(recursive_constrained_permutations(parts)))


def test_constrained_permutations_reach_past_the_recursion_limit():
    assert next(constrained_permutations(range(1, 1201))) == tuple(range(1, 1201))


def test_partitions_bounded():
    assert list(partitions_bounded(1)) == [(0,), (1,)]
    assert list(partitions_bounded(2)) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(list(partitions_bounded(3))) == 20
    for parts in partitions_bounded(3):
        assert check_partition(parts) == parts


def test_degree_of_nonzero_products():
    for parts in partitions_bounded(4):
        h = haglund_product(parts)
        if h.is_zero:
            continue
        n = len(parts)
        assert h.degree == n * (n - 1) // 2 + sum(v - i for i, v in enumerate(parts))
        assert h.evaluate(1) == 0  # every factor vanishes at q=1
