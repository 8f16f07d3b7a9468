"""Dense matrices over a prime field F_p and exhaustive support counts.

Entries are plain ints reduced mod p; the matrix carries the modulus,
whose primality is checked on construction.  Everything here is exact.
A family of matrices with free cells has one format, a row family: one
``(fixed row, free columns)`` pair per row, 0-based, its row i being the
fixed row with each free column set to every value of F_p.  Its counts
are one side of a dual check against closed product formulas and must
stay independent of them: ``count_invertible_rows`` walks the matrices
row by row and prunes a row as soon as it falls into the span of the
rows above it.  Every prefix of independent rows is still visited; the
candidates of one node that span the same subspace share one span set,
and each node of the last level counts the last-row candidates outside
its own span.  Nothing is reused from one node to another, and no count
is ever multiplied out from a formula.
``enumerate_matrices`` walks every assignment of the free cells with
``itertools.product`` and stays the reference: the tests compare the
counts against it, and ``checks.per_tree_action_counts`` filters each
letter's matrices through ``is_invertible`` for every small tree.

``charge`` is the one budget gate of the package: every enumerating
route, here and in ``ideals`` and ``congruence``, calls it with the size
and cost of what it is about to walk, and it raises ``TooLarge`` before
any of that work starts.  Sizes past the budget's bit length are refused
without computing their cost, so a huge n is refused at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Sequence

DEFAULT_BUDGET = 1 << 26


class NonSquare(ValueError):
    """Invertibility is defined for square matrices only."""


class TooLarge(Exception):
    """Enumeration would exceed the assignment budget."""


def charge(size: int, cost: Callable[[int], int], budget: int, what: str) -> None:
    """Raise TooLarge when an enumeration of cost(size) items exceeds
    ``budget``; ``what`` names the items in the message.

    Every caller must have cost(size) >= 2**(size-1): then a size above
    the budget's bit length costs more than the budget, and it is refused
    without calling ``cost``, which may be a huge number to compute.
    That holds for (n+1)! at size n+1, for Catalan(n) and hall_count(n)
    at size n, and for p**k at size k.
    """
    if size > budget.bit_length() or cost(size) > budget:
        raise TooLarge(f"{what} exceed budget {budget}")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases _SMALL_PRIMES has no strong pseudoprime
# below this bound (Sorenson and Webster, Math. Comp. 2017).
MAX_CERTIFIED_PRIME = 318665857834031151167461


def check_prime(p: int) -> int:
    """p itself if it is a prime; ValueError otherwise, and for moduli
    too large for the deterministic Miller-Rabin test to certify."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"modulus must be a prime: {p!r}")
    if p in _SMALL_PRIMES:
        return p
    if any(p % b == 0 for b in _SMALL_PRIMES):
        raise ValueError(f"modulus must be a prime: {p}")
    if p < 41 * 41:
        return p
    if p >= MAX_CERTIFIED_PRIME:
        raise ValueError(f"modulus too large to certify as a prime "
                         f"(must be below {MAX_CERTIFIED_PRIME}): {p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _SMALL_PRIMES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"modulus must be a prime: {p}")
    return p


@dataclass(frozen=True)
class FqMatrix:
    """Immutable matrix over F_p; entries reduced mod p at construction."""

    rows: int
    cols: int
    modulus: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int) -> "FqMatrix":
        check_prime(p)
        data = tuple(tuple(v % p for v in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), len(data[0]) if data else 0, p, data)

    @classmethod
    def zero(cls, n: int, p: int) -> "FqMatrix":
        return cls.from_rows([[0] * n for _ in range(n)], p)

    @classmethod
    def identity(cls, n: int, p: int) -> "FqMatrix":
        return cls.from_rows([[int(i == j) for j in range(n)] for i in range(n)], p)


def _full_rank(rows: list[list[int]], n: int, p: int) -> bool:
    """Destructive elimination mod p; True iff rank n."""
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return False
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        inv = pow(top[col], p - 2, p)
        for r in range(col + 1, n):
            row = rows[r]
            f = row[col]
            if f:
                f = f * inv % p
                for k in range(col, n):
                    row[k] = (row[k] - f * top[k]) % p
    return True


def is_invertible(m: FqMatrix) -> bool:
    """Full rank by elimination mod p."""
    if m.rows != m.cols:
        raise NonSquare(f"{m.rows} x {m.cols} matrix")
    return _full_rank([list(row) for row in m.entries], m.rows, m.modulus)


def _check_rows(rows: Sequence[tuple[Sequence[int], Sequence[int]]],
                p: int) -> tuple[int, int]:
    """Validate a row family over F_p: p is a prime, the fixed rows have
    one length m, and each row's free columns are distinct and in
    0..m-1.  Returns m and the number of free cells."""
    check_prime(p)
    m = len(rows[0][0]) if rows else 0
    for fixed, free in rows:
        if len(fixed) != m:
            raise ValueError("ragged rows")
        if len(set(free)) != len(free) or any(not 0 <= j < m for j in free):
            raise ValueError(f"free columns must be distinct and in 0..{m - 1}: {free!r}")
    return m, sum(len(free) for _, free in rows)


def enumerate_matrices(rows: Sequence[tuple[Sequence[int], Sequence[int]]], p: int,
                       budget: int = DEFAULT_BUDGET) -> Iterator[FqMatrix]:
    """All p**(free cells) matrices of the row family ``rows``, as in
    ``count_invertible_rows``.  The free cells run row by row, each
    row's in the order given, and advance little-endian in p (the first
    cell turns fastest), so the stream starts at the fixed rows with
    every free cell 0."""
    m, cells = _check_rows(rows, p)
    charge(cells, lambda k: p ** k, budget, f"{p}**{cells} assignments")
    grid = [[v % p for v in fixed] for fixed, _ in rows]
    # product() turns its last slot fastest, so feed it the cells reversed.
    targets = [(row, j) for row, (_, free) in zip(grid, rows) for j in free][::-1]
    for values in product(range(p), repeat=cells):
        for (row, j), v in zip(targets, values):
            row[j] = v
        # _check_rows certified p and the entries are reduced: no from_rows
        yield FqMatrix(len(grid), m, p, tuple(map(tuple, grid)))


def count_invertible_rows(rows: Sequence[tuple[Sequence[int], Sequence[int]]],
                          p: int, budget: int = DEFAULT_BUDGET) -> int:
    """Number of invertible n x n matrices over F_p whose row i is
    ``rows[i][0]`` with each column in ``rows[i][1]`` (0-based, the free
    columns) set to every value of F_p.

    A depth-first search picks one row at a time and carries the span of
    the rows picked so far as a set of vectors.  A candidate in that span
    is pruned with its whole subtree; every other candidate descends into
    its own subtree.  Candidates v and w of one node with w in
    span(S, v) \\ S extend its span S to the same subspace, so the node
    maps each vector of each span it builds to that span and builds it
    only for a candidate not yet mapped.  On the last row the candidates
    outside the span are counted by one set difference.  Rows are
    visited in order of increasing freedom, which does not change whether
    a matrix is invertible, so the widest row is only tested, never
    expanded.  The budget bounds p**(free cells), the number of matrices
    described, and then p**n: a span set holds at most p**(n-1) vectors,
    and a node's map at most p**n.
    """
    m, cells = _check_rows(rows, p)
    n = len(rows)
    if m != n:
        raise NonSquare(f"{n} x {m} matrix")
    charge(cells, lambda k: p ** k, budget, f"{p}**{cells} assignments")
    charge(n, lambda k: p ** k, budget, f"{p}**{n} span vectors")
    if n == 0:
        return 1
    candidates = sorted((_row_candidates(fixed, free, p) for fixed, free in rows), key=len)
    last = set(candidates.pop())

    def descend(level: int, span: set[tuple[int, ...]]) -> int:
        if level == len(candidates):
            return len(last - span)
        # w in span(S, v) \ S spans the same superspace as v: build it once
        wider: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        total = 0
        for v in candidates[level]:
            if v in span:
                continue
            extended = wider.get(v)
            if extended is None:
                extended = _extend_span(span, v, p)
                wider.update(dict.fromkeys(extended, extended))
            total += descend(level + 1, extended)
        return total

    return descend(0, {(0,) * n})


def _row_candidates(fixed: Sequence[int], free: Sequence[int],
                    p: int) -> list[tuple[int, ...]]:
    row = [v % p for v in fixed]
    out = []
    for values in product(range(p), repeat=len(free)):
        for j, v in zip(free, values):
            row[j] = v
        out.append(tuple(row))
    return out


def _extend_span(span: set[tuple[int, ...]], v: tuple[int, ...],
                 p: int) -> set[tuple[int, ...]]:
    """The span of ``span`` and v: every s + c*v with c in F_p."""
    multiples = [tuple(c * x % p for x in v) for c in range(p)]
    return {tuple((a + b) % p for a, b in zip(s, m)) for s in span for m in multiples}


def count_invertible_support(parts: Sequence[int], p: int,
                             budget: int = DEFAULT_BUDGET) -> int:
    """Brute-force count of invertible n x n matrices over F_p whose
    support lies in the staircase of the partition: row i may be nonzero
    only in columns 1..parts[i-1]."""
    parts = tuple(parts)
    n = len(parts)
    if any(v < 0 or v > n for v in parts) or list(parts) != sorted(parts):
        raise ValueError(f"not a bounded weakly increasing partition: {parts!r}")
    return count_invertible_rows([([0] * n, range(v)) for v in parts], p, budget)
