"""Permutation statistics tied to 0/1 matrices and their hook cells.

A permutation of size n is a tuple of the values 1..n in one-line
notation; sigma maps position i (1-based) to sigma[i-1].  Its matrix has
a 1 in row i, column sigma(i).  The hook of a 1-cell is the set of cells
strictly to its left in its row together with the cells strictly below it
in its column; the statistic of interest is the size of the union of all
hooks, counted here both directly on the grid and through the inversion
count (two deliberately separate routes).

A permutation is indecomposable when no proper prefix {1..i}, i < n, is
stabilized.  ``enumerate_indecomposables`` streams them in lexicographic
order; the size-0 permutation is the unit of shifted concatenation and is
excluded from that stream.

The inversion polynomial P_m of the indecomposables of size m has two
routes here: ``indec_inversion_polynomials`` solves the inverse-series
recursion P_m = [m]_q! - sum_{k<m} P_k [m-k]_q! in O(m^2) polynomial
products (Comtet; OEIS A003319 at q = 1), and
``indec_inversion_polynomial`` enumerates S_m.  The census formula uses
the first; the second stays as its witness.  The hook strip identity and
the generating-series identity are checked in ``checks``, which names the
permutation or t-order that fails.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from math import comb
from typing import Iterator, NamedTuple, Sequence

from .linfq import DEFAULT_BUDGET, charge
from .qpoly import LaurentPoly, ONE, ZERO, geometric

Perm = tuple[int, ...]


class DuplicateLetters(ValueError):
    """Standardization input must have pairwise distinct letters."""


def check_permutation(s: Sequence[int]) -> Perm:
    t = tuple(s)
    if sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t!r}")
    return t


def parse_permutation(text: str) -> Perm:
    """Parse '325461' (single digits) or '3,2,5,4,6,1', in ASCII digits.
    An entry with more digits than the permutation's size has is
    rejected before it is converted."""
    text = text.strip()
    chunks = [c.strip() for c in text.split(",")] if "," in text else list(text)
    width = len(str(len(chunks)))
    if not chunks or not all(c.isascii() and c.isdigit() and len(c.lstrip("0")) <= width
                             for c in chunks):
        raise ValueError(f"not a permutation: {text[:40]!r}")
    return check_permutation(int(c) for c in chunks)


def permutation_str(s: Perm) -> str:
    if len(s) <= 9:
        return "".join(str(v) for v in s)
    return ",".join(str(v) for v in s)


def inverse(s: Perm) -> Perm:
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v - 1] = i + 1
    return tuple(out)


def inversions(s: Perm) -> int:
    """Number of pairs i < j with s(i) > s(j).

    Each value is counted against the larger values before it, found by
    bisection in the sorted list of the values seen so far: O(n log n)
    comparisons, where the pairs themselves number O(n**2).
    """
    seen: list[int] = []
    count = 0
    for i, v in enumerate(s):
        k = bisect(seen, v)
        count += i - k
        seen.insert(k, v)
    return count


def hook_union_size(s: Perm) -> int:
    """Size of the union of all hooks, counted directly on the grid.

    This marks cells and counts them; it shares no code with the
    inversion route ``hook_number`` on purpose.
    """
    n = len(s)
    marked = [[False] * n for _ in range(n)]
    for i, v in enumerate(s):
        row = marked[i]
        for j in range(v - 1):
            row[j] = True
        for k in range(i + 1, n):
            marked[k][v - 1] = True
    return sum(1 for row in marked for cell in row if cell)


def hook_number(s: Perm) -> int:
    """Hook-union size via statistics: 2*inv + non-inversions = inv + C(n,2)."""
    return inversions(s) + comb(len(s), 2)


def is_indecomposable(s: Perm) -> bool:
    """True when no proper prefix {1..i}, i < n, is stabilized.

    The empty permutation is the concatenation unit, not a generator,
    and counts as decomposable here.
    """
    n = len(s)
    if n == 0:
        return False
    high = 0
    for i in range(n - 1):
        high = max(high, s[i])
        if high == i + 1:
            return False
    return True


class LRMaxima(NamedTuple):
    positions: tuple[int, ...]
    values: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.positions)


def lr_maxima(s: Perm) -> LRMaxima:
    """Left-to-right maxima: positions i with s(i) > s(j) for all j < i."""
    positions: list[int] = []
    values: list[int] = []
    high = 0
    for i, v in enumerate(s):
        if v > high:
            positions.append(i + 1)
            values.append(v)
            high = v
    return LRMaxima(tuple(positions), tuple(values))


def is_indecomposable_lr(s: Perm) -> bool:
    """Indecomposability read off the left-to-right maxima alone:
    each maximum must reach at least the next maximum's position."""
    if len(s) == 0:
        return False
    positions = lr_maxima(s).positions
    return all(s[positions[h] - 1] >= positions[h + 1]
               for h in range(len(positions) - 1))


def standardize(word: Sequence[int]) -> Perm:
    """Relabel distinct letters order-isomorphically to 1..len(word).

    >>> standardize((3, 6, 4, 9))
    (1, 3, 2, 4)
    """
    if len(set(word)) != len(word):
        raise DuplicateLetters(f"letters must be distinct: {tuple(word)!r}")
    rank = {v: r + 1 for r, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def strip_lr_maxima(s: Perm) -> Perm:
    """Drop the left-to-right maxima values and standardize the rest.

    >>> strip_lr_maxima((3, 2, 5, 4, 6, 1))
    (2, 3, 1)
    """
    keep = set(lr_maxima(s).values)
    return standardize([v for v in s if v not in keep])


def shifted_concat(a: Perm, b: Perm) -> Perm:
    """Place b after a, shifted up by len(a); inversions add."""
    n = len(a)
    return a + tuple(v + n for v in b)


def enumerate_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order on one-line notation."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return iter(itertools.permutations(range(1, n + 1)))


def enumerate_indecomposables(n: int) -> Iterator[Perm]:
    return (s for s in enumerate_permutations(n) if is_indecomposable(s))


def indecomposable_factors(s: Perm) -> tuple[Perm, ...]:
    """Unique factorization under shifted concatenation."""
    factors: list[Perm] = []
    start = 0
    high = 0
    for i, v in enumerate(s):
        high = max(high, v)
        if high == i + 1:
            factors.append(tuple(v - start for v in s[start:i + 1]))
            start = i + 1
    return tuple(factors)


def indec_inversion_polynomial(m: int) -> LaurentPoly:
    """Sum of q**inv over indecomposable permutations of size m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return LaurentPoly((inversions(s), 1) for s in enumerate_indecomposables(m))


def recursion_cost(m: int) -> int:
    """Coefficient pairs that ``indec_inversion_polynomials(m)`` multiplies.

    [j-1]_q! has C(j-1, 2) + 1 coefficients and [j]_q has j, and P_k,
    of valuation k - 1 and degree C(k, 2), has C(k, 2) - k + 2.  So the
    cost is the sum over j <= m of (C(j-1, 2) + 1) * j plus, over
    k < j <= m, (C(k, 2) - k + 2) * (C(j-k, 2) + 1): a polynomial of
    degree 6 in m, written here in the binomial basis (its forward
    differences at m = 0), so a huge m costs O(1) big-int steps.
    """
    return sum(c * comb(m, i) for i, c in enumerate((0, 1, 2, 4, 5, 1, 1)))


def indec_inversion_polynomials(m: int, budget: int = DEFAULT_BUDGET) -> list[LaurentPoly]:
    """[P_1, ..., P_m], P_j the sum of q**inv over the indecomposable
    permutations of size j, from the recursion
    P_j = [j]_q! - sum_{k<j} P_k [j-k]_q!.

    Every permutation factors uniquely as an indecomposable prefix
    followed by an arbitrary permutation, and inversions add under
    shifted concatenation; nothing is enumerated.  The coefficient
    products of its C(m+1, 2) polynomial products (``recursion_cost``)
    are charged against ``budget`` first.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    # charged at size 1: the cost is cheap to compute at any m
    cost = recursion_cost(m)
    charge(1, lambda _: cost, budget, f"{cost} coefficient products up to P_{m}")
    fact = [ONE]
    for j in range(1, m + 1):
        fact.append(fact[-1] * geometric(j))
    polys: list[LaurentPoly] = []
    for j in range(1, m + 1):
        tail = sum((polys[k - 1] * fact[j - k] for k in range(1, j)), ZERO)
        polys.append(fact[j] - tail)
    return polys


def inversion_distribution(n: int) -> LaurentPoly:
    """Sum of q**inv over all of S_n (equals the q-factorial)."""
    return LaurentPoly((inversions(s), 1) for s in enumerate_permutations(n))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
