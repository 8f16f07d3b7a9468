"""Permutation statistics tied to 0/1 matrices and their hook cells.

A permutation of size n is a tuple of the values 1..n in one-line
notation; sigma maps position i (1-based) to sigma[i-1].  Its matrix has
a 1 in row i, column sigma(i).  The hook of a 1-cell is the set of cells
strictly to its left in its row together with the cells strictly below it
in its column; the statistic of interest is the size of the union of all
hooks, counted here both directly on the grid, one int bitset of marked
cells per row, and through the inversion count (two deliberately
separate routes).

A permutation is indecomposable when no proper prefix {1..i}, i < n, is
stabilized.  ``enumerate_indecomposables`` streams them in lexicographic
order; the size-0 permutation is the unit of shifted concatenation and is
excluded from that stream.

The inversion polynomial P_m of the indecomposables of size m has three
derivations here, each with its role:

* ``lehmer_indec_polynomial`` runs a DP over Lehmer codes, one packed
  int per state, with shifts and additions and no polynomial product.
  The census formula takes its P_(n+1) from it, and
  ``lehmer_indec_polynomials`` runs it once per j <= m for
  ``export --object indec-polys``.
* ``indec_inversion_polynomials`` solves the inverse-series recursion
  P_m = [m]_q! - sum_{k<m} P_k [m-k]_q! in O(m^2) polynomial products
  (Comtet; OEIS A003319 at q = 1).  It is the DP's witness only: the
  two share nothing, and ``checks`` compares them for every m <= 20.
* ``indec_inversion_polynomial`` enumerates S_m, the witness of both at
  small m.

The hook strip identity and the generating-series identity are checked
in ``checks``, which names the permutation or t-order that fails.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, factorial
from typing import Iterator, NamedTuple, Sequence

from .linfq import DEFAULT_BUDGET, charge
from .qpoly import LaurentPoly, ONE, ZERO, unpack

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

    Each value is counted against the larger values before it: the
    values seen so far are the set bits of one int, so those above v
    are the bits of ``seen >> v``, counted by ``int.bit_count``.  That
    is O(n / 64) machine-word steps per value, exact at any n.
    """
    seen = 0
    count = 0
    for v in s:
        count += (seen >> v).bit_count()
        seen |= 1 << v
    return count


def hook_union_size(s: Perm) -> int:
    """Size of the union of all hooks, counted directly on the grid.

    This marks cells and counts them, row by row; it shares no code with
    the inversion route ``hook_number`` on purpose.  Row i's marked cells
    are one int's set bits: the cells left of its 1, bits 0..s(i)-2,
    together with ``above``, the columns that hold a 1 in a row above
    (each such 1 marks the cells below it).  ``above`` gains the column
    of row i's 1 after the row is counted by ``int.bit_count``.
    """
    above = 0
    count = 0
    for v in s:
        count += (((1 << (v - 1)) - 1) | above).bit_count()
        above |= 1 << (v - 1)
    return count


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
    for i, v in zip(range(1, n), s):
        if v > high:
            high = v
        if high == i:
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
        if v > high:
            high = v
        if high == i + 1:
            factors.append(tuple(v - start for v in s[start:i + 1]))
            start = i + 1
    return tuple(factors)


def indec_inversion_polynomial(m: int) -> LaurentPoly:
    """Sum of q**inv over indecomposable permutations of size m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return LaurentPoly(Counter(map(inversions, enumerate_indecomposables(m))))


def recursion_cost(m: int) -> int:
    """Coefficient pairs that ``indec_inversion_polynomials(m)`` multiplies.

    [j-1]_q! has C(j-1, 2) + 1 coefficients and [j]_q has j, and P_k,
    of valuation k - 1 and degree C(k, 2), has C(k, 2) - k + 2.  So the
    cost is the sum over j <= m of (C(j-1, 2) + 1) * j plus, over
    k < j <= m, (C(k, 2) - k + 2) * (C(j-k, 2) + 1): a polynomial of
    degree 6 in m, written here in the binomial basis (its forward
    differences at m = 0), so a huge m costs O(1) big-int steps.  The
    [j]_q factors are applied by ``LaurentPoly.times_geometric``, a
    window sum that multiplies no pairs, but they are still charged.
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
        fact.append(fact[-1].times_geometric(j))
    polys: list[LaurentPoly] = []
    for j in range(1, m + 1):
        tail = sum((polys[k - 1] * fact[j - k] for k in range(1, j)), ZERO)
        polys.append(fact[j] - tail)
    return polys


def lehmer_cost(m: int) -> int:
    """Slots of the ints that ``lehmer_indec_polynomial(m)`` builds.

    After step j it holds F_j[M] for M = j+1..m.  That polynomial has
    degree jM - C(j+1, 2) (every c_i = M - i) and is held times
    (q-1)^(j-1), so its int spans jM - C(j+1, 2) + j slots, and every
    operation on it is a shift, an addition or a subtraction of about
    that many slots.  The sum over 1 <= j < M <= m, plus the C(m, 2) + 1
    slots of P_m as they are read back, is a polynomial of degree 4 in
    m, written here in the binomial basis, so a huge m costs O(1)
    big-int steps.  The one exact division at the end, about m^3 / 2
    slot pairs, is of lower order and is not charged.
    """
    return 1 + 3 * comb(m, 2) + 4 * comb(m, 3) + 2 * comb(m, 4)


def lehmer_indec_polynomial(m: int, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """P_m, the sum of q**inv over the indecomposable permutations of
    size m, from a DP over Lehmer codes that multiplies no polynomials.

    The code c_i = #{j > i : θ_j < θ_i} has 0 <= c_i <= m - i and sums to
    inv(θ), and θ_1..θ_k is {1..k} exactly when max_{i<=k}(c_i + i) = k.
    Let F_k[M] sum q^(c_1+...+c_k) over the code prefixes with that
    maximum M and no split so far.  c_(k+1) keeps the maximum or raises
    it to M', so

        F_(k+1)[M'] = F_k[M'] [M'-k]_q + q^(M'-k-1) sum_{M<M'} F_k[M],

    keeping M' > k + 1; and P_m = F_(m-1)[m], since c_m = 0.

    The DP runs at q = 2^w, one int per state: every coefficient of P_m
    lies in 0..m!, so slots of w >= bitlen(m!) + 1 bits, in whole bytes,
    read P_m back from P_m(2^w) exactly.  The states after step k are
    held times (q-1)^(k-1), so [j]_q = (q^j - 1)/(q - 1) costs a shift
    and a subtraction, not a division; one exact division by
    (q-1)^(m-2) at the end gives P_m(2^w).  Its slots (``lehmer_cost``)
    are charged against ``budget`` first.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    # charged at size 1: the cost is cheap to compute at any m
    cost = lehmer_cost(m)
    charge(1, lambda _: cost, budget, f"{cost} slots of the Lehmer-code DP for P_{m}")
    width = len(format(factorial(m), "x")) // 2 + 1  # bytes per slot
    w = 8 * width
    # F_1[M] = q^(M-1), c_1 = M - 1; at m = 1 the one state is P_1 = 1
    states = [1 << w * (top - 1) for top in range(min(m, 2), m + 1)]
    for k in range(1, m - 1):
        # states[i] is F_k[k+1+i] times (q-1)^(k-1).  M' = k+1 would split
        # after k+1, so states[0] goes on only in ``below``, and each new
        # state, x (q^(i+1) - 1) + (q - 1) q^i below, moves down one place
        below = states[0]
        for i in range(1, len(states)):
            x = states[i]
            states[i - 1] = ((x + below) << w * (i + 1)) - x - (below << w * i)
            below += x
        states.pop()
    return unpack(states[0] // ((1 << w) - 1) ** max(m - 2, 0), width)


def lehmer_total_cost(m: int) -> int:
    """Slots of ``lehmer_indec_polynomials(m)``: the sum of
    ``lehmer_cost(j)`` over j <= m, in the binomial basis too (each
    C(j, i) sums to C(m+1, i+1))."""
    return m + 3 * comb(m + 1, 3) + 4 * comb(m + 1, 4) + 2 * comb(m + 1, 5)


def lehmer_indec_polynomials(m: int, budget: int = DEFAULT_BUDGET) -> list[LaurentPoly]:
    """[P_1, ..., P_m], one ``lehmer_indec_polynomial(j)`` per j; their
    slots (``lehmer_total_cost``) are charged against ``budget`` first."""
    if m < 1:
        raise ValueError("m must be at least 1")
    cost = lehmer_total_cost(m)
    charge(1, lambda _: cost, budget, f"{cost} slots of the Lehmer-code DP up to P_{m}")
    # each P_j's own charge is below the whole, so none of them refuses
    return [lehmer_indec_polynomial(j, budget) for j in range(1, m + 1)]


def inversion_distribution(n: int) -> LaurentPoly:
    """Sum of q**inv over all of S_n (equals the q-factorial)."""
    return LaurentPoly(Counter(map(inversions, enumerate_permutations(n))))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
