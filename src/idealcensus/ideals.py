"""Census of right ideals of finite codimension in the group algebra
F_q[F_2], counted three independent ways.

An ideal of codimension n is determined by a code tree with n internal
nodes (the quotient basis P and the leading words C) plus one scalar per
pair (c in C, p in P with p < c): the generators are the words c minus
their lower linear combinations.  The two group generators then act on
the quotient by structured matrices (``build_action_matrices``), and the
ideal data is admissible exactly when both actions are invertible.

Counting routes, all exact polynomials in q:

* ``ideal_count_formula``: closed product over the indecomposable
  inversion polynomial of size n+1, taken from the inverse-series
  recursion (``permstat.indec_inversion_polynomials``), which enumerates
  nothing;
* ``ideal_count_hook_formula``: same prefactor against the hook-statistic
  sum over the indecomposables of size n+1, which it enumerates;
* ``ideal_count_by_trees``: sum over trees of
  (q-1)^k * q^(free cells) * staircase count.  That term depends only on
  the tree's key (k, free cells, partition), so it is built once per key;
* ``ideal_count_brute_force``: count over F_p the coefficient
  assignments for which both action matrices are invertible.  Each slot
  touches one cell of one matrix, so the per-tree count is the a-count
  times the b-count; each letter's count walks its matrix row by row
  (``linfq.count_invertible_rows``), and ``count_invertible_pairs``,
  which walks the joint assignments of both letters, witnesses the
  factorisation (``checks.per_tree_action_counts``, tree by tree and
  prime by prime).

The enumerating routes take a budget and raise ``TooLarge`` before they
start when their enumeration would exceed it: (n+1)! permutations for
the hook route, Catalan(n) trees for the tree sum, p**(cells) matrices
per letter for brute force.

``cell_decomposition`` records the partition of the census into cells
(F_q*)^(n+1) x F_q^d indexed by indecomposable permutations; like the
hook route it walks S_(n+1) and is bounded by (n+1)!.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb, factorial
from typing import Iterator, Mapping, Sequence, Union

from .haglund import haglund_product
from .linfq import (DEFAULT_BUDGET, FqMatrix, TooLarge, _full_rank, check_prime,
                    count_invertible_rows)
from .permstat import (
    Perm,
    enumerate_indecomposables,
    indec_hook_polynomial,
    indec_inversion_polynomials,
    inversions,
)
from .qpoly import LaurentPoly, ONE, Q
from .words import (CodeTree, TreeSignature, TreeStats, enumerate_trees, signature,
                    tree_stats, word_compact)

Contribution = Union[LaurentPoly, int]


class CodimensionZero(ValueError):
    """The closed formulas are stated for codimension n >= 1."""


def _require_codim(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise CodimensionZero(f"codimension must be an integer >= 1, got {n!r}")
    return n


def ideal_count_formula(n: int) -> LaurentPoly:
    """(q-1)^(n+1) * q^((n+1)(n-2)/2) * (indecomposable inversion
    polynomial of size n+1, from the inverse-series recursion); always an
    ordinary polynomial."""
    _require_codim(n)
    return ideal_count_from_indec(n, indec_inversion_polynomials(n + 1)[-1])


def ideal_count_from_indec(n: int, indec: LaurentPoly) -> LaurentPoly:
    """(q-1)^(n+1) * q^((n+1)(n-2)/2) * indec, where indec is the
    indecomposable inversion polynomial P_(n+1); the formula route once
    P_(n+1) is known."""
    count = (Q - ONE) ** (n + 1) * indec.shift((n + 1) * (n - 2) // 2)
    if not count.is_zero and count.valuation < 0:
        raise ArithmeticError("census count must be an ordinary polynomial")
    return count


def ideal_count_hook_formula(n: int, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """(q-1)^(n+1) * sum of q^(hook(theta) - (n+1)) over indecomposable
    theta of size n+1; an independent route to the same polynomial.  It
    walks S_(n+1), so (n+1)! above ``budget`` raises TooLarge."""
    _require_codim(n)
    if factorial(n + 1) > budget:
        raise TooLarge(f"{n + 1}! permutations exceed budget {budget}")
    return (Q - ONE) ** (n + 1) * indec_hook_polynomial(n + 1).shift(-(n + 1))


@dataclass(frozen=True)
class TreeEntry:
    """Per-tree line of a census report."""

    sig: TreeSignature
    a_count: int
    a_cells: int
    b_cells: int
    partition: tuple[int, ...]
    contribution: Contribution


@dataclass(frozen=True)
class IdealCountReport:
    """Census total plus the per-tree breakdown that sums to it."""

    n: int
    method: str
    q: int | None
    total: Contribution
    entries: tuple[TreeEntry, ...]

    def __post_init__(self):
        if sum((e.contribution for e in self.entries), 0) != self.total:
            raise ValueError("per-tree breakdown does not sum to the total")


def tree_contribution(tree: CodeTree) -> Contribution:
    """(q-1)^k * q^(a_cells + b_cells) * staircase count of the tree."""
    return _stats_contribution(tree_stats(tree))


def _stats_contribution(st: TreeStats) -> Contribution:
    return ((Q - ONE) ** st.a_count
            * haglund_product(st.partition).shift(st.a_cells + st.b_cells))


def ideal_count_by_trees(n: int, budget: int = DEFAULT_BUDGET) -> IdealCountReport:
    """One entry per code tree, in ``enumerate_trees`` order.  Trees with
    the same key (k, a_cells + b_cells, partition) share one immutable
    contribution, built once; the total is the sum over keys of the
    contribution times its number of trees, and the report checks it
    against the sum of the entries.  Catalan(n) trees above ``budget``
    raise TooLarge."""
    _require_codim(n)
    trees = comb(2 * n, n) // (n + 1)
    if trees > budget:
        raise TooLarge(f"Catalan({n}) = {trees} trees exceed budget {budget}")
    contributions: dict[tuple, Contribution] = {}
    multiplicity: Counter[tuple] = Counter()
    entries = []
    for tree in enumerate_trees(n):
        st = tree_stats(tree)
        key = (st.a_count, st.a_cells + st.b_cells, st.partition)
        if key not in contributions:
            contributions[key] = _stats_contribution(st)
        multiplicity[key] += 1
        entries.append(TreeEntry(signature(tree), st.a_count, st.a_cells,
                                 st.b_cells, st.partition, contributions[key]))
    total = sum((contributions[key] * m for key, m in multiplicity.items()), 0)
    return IdealCountReport(n, "structural", None, total, tuple(entries))


# -- explicit ideal data over a fixed prime field -------------------------


def assignment_slots(tree: CodeTree) -> tuple[tuple[str, str], ...]:
    """All pairs (leading word c, smaller basis word p), in (c, p) order."""
    return tuple((c, p) for c in tree.leaves for p in tree.prefixes if p < c)


@dataclass(frozen=True)
class CoefficientAssignment:
    """One scalar per slot; values aligned with ``assignment_slots``."""

    tree: CodeTree
    modulus: int
    values: tuple[int, ...]

    @classmethod
    def from_dict(cls, tree: CodeTree, p: int,
                  mapping: Mapping[tuple[str, str], int] = {}) -> "CoefficientAssignment":
        check_prime(p)
        slots = assignment_slots(tree)
        unknown = set(mapping) - set(slots)
        if unknown:
            raise ValueError(f"not coefficient slots: {sorted(unknown)!r}")
        return cls(tree, p, tuple(mapping.get(slot, 0) % p for slot in slots))

    def __post_init__(self):
        check_prime(self.modulus)
        if len(self.values) != len(assignment_slots(self.tree)):
            raise ValueError("one value per slot required")
        if any(not 0 <= v < self.modulus for v in self.values):
            raise ValueError("values must be reduced mod p")

    def as_dict(self) -> dict[tuple[str, str], int]:
        return dict(zip(assignment_slots(self.tree), self.values))


def _action_cells(tree: CodeTree) -> tuple[list[tuple[str, int, int]],
                                             list[tuple[str, int, int]]]:
    """Layout of the two action matrices on the quotient basis P (sorted
    alphabetically), as (letter, row, col) cells: the unit entries, where
    p.x = r stays in P, and the slots, aligned with ``assignment_slots``,
    where px is a leading word and r < px.  Every other entry is 0, and
    each slot touches exactly one cell of one of the two matrices."""
    index = {p: i for i, p in enumerate(tree.prefixes)}
    units = [(letter, i, index[p + letter]) for letter in ("a", "b")
             for i, p in enumerate(tree.prefixes) if p + letter in index]
    slots = [(c[-1], index[c[:-1]], index[p]) for c, p in assignment_slots(tree)]
    return units, slots


def letter_slots(tree: CodeTree) -> tuple[int, int]:
    """Slots in the a-action matrix and in the b-action matrix; a
    letter's brute-force count walks p**(its slots) matrices."""
    _, slots = _action_cells(tree)
    a = sum(1 for letter, _, _ in slots if letter == "a")
    return a, len(slots) - a


def _action_grids(tree: CodeTree, values: Sequence[int]) -> dict[str, list[list[int]]]:
    """Both action matrices as mutable grids, slots set to ``values``."""
    n = len(tree.prefixes)
    grids = {letter: [[0] * n for _ in range(n)] for letter in ("a", "b")}
    units, slots = _action_cells(tree)
    for letter, i, j in units:
        grids[letter][i][j] = 1
    for (letter, i, j), v in zip(slots, values):
        grids[letter][i][j] = v
    return grids


def build_action_matrices(ca: CoefficientAssignment) -> tuple[FqMatrix, FqMatrix]:
    """Matrices of the two letters acting on the quotient basis P
    (sorted alphabetically): row p, column r holds 1 when p.x = r stays
    in P, the slot value for (px, r) when px is a leading word and
    r < px, and 0 otherwise."""
    grids = _action_grids(ca.tree, ca.values)
    return (FqMatrix.from_rows(grids["a"], ca.modulus),
            FqMatrix.from_rows(grids["b"], ca.modulus))


@dataclass(frozen=True)
class IdealGenerator:
    """A leading word minus its lower linear combination."""

    lead: str
    tail: tuple[tuple[str, int], ...]  # (basis word, nonzero coefficient)

    def __str__(self) -> str:
        chunks = [word_compact(self.lead)]
        for p, co in self.tail:
            if p == "":
                chunks.append(str(co))
            elif co == 1:
                chunks.append(word_compact(p))
            else:
                chunks.append(f"{co}*{word_compact(p)}")
        return " - ".join(chunks)


def ideal_generators(ca: CoefficientAssignment) -> tuple[IdealGenerator, ...]:
    """One generator per leading word, zero coefficients dropped."""
    alpha = ca.as_dict()
    gens = []
    for c in ca.tree.leaves:
        tail = tuple((p, alpha[(c, p)]) for p in ca.tree.prefixes
                     if p < c and alpha[(c, p)])
        gens.append(IdealGenerator(c, tail))
    return tuple(gens)


# -- brute-force censuses --------------------------------------------------


def _letter_rows(tree: CodeTree, letter: str) -> list[tuple[list[int], list[int]]]:
    """The letter's action matrix as ``count_invertible_rows`` rows: unit
    rows are fixed, every other row is free exactly in its slots."""
    _, slots = _action_cells(tree)
    grid = _action_grids(tree, [0] * len(slots))[letter]
    return [(row, [j for x, r, j in slots if x == letter and r == i])
            for i, row in enumerate(grid)]


def count_invertible_a_actions(tree: CodeTree, p: int,
                               budget: int = DEFAULT_BUDGET) -> int:
    return count_invertible_rows(_letter_rows(tree, "a"), p, budget)


def count_invertible_b_actions(tree: CodeTree, p: int,
                               budget: int = DEFAULT_BUDGET) -> int:
    return count_invertible_rows(_letter_rows(tree, "b"), p, budget)


def count_invertible_pairs(tree: CodeTree, p: int,
                           budget: int = DEFAULT_BUDGET) -> int:
    """Walk every assignment of the slots of both letters
    (``itertools.product``) and count those whose two action matrices
    are both invertible.  It never uses the per-letter counts, so it
    witnesses that the census may multiply them."""
    check_prime(p)
    _, cells = _action_cells(tree)
    if p ** len(cells) > budget:
        raise TooLarge(f"{p}**{len(cells)} assignments exceed budget {budget}")
    grids = _action_grids(tree, [0] * len(cells))
    targets = [(grids[letter][i], j) for letter, i, j in cells]
    n = len(tree.prefixes)
    count = 0
    for values in product(range(p), repeat=len(cells)):
        for (row, j), v in zip(targets, values):
            row[j] = v
        if all(_full_rank([row[:] for row in g], n, p) for g in grids.values()):
            count += 1
    return count


def ideal_count_brute_force(n: int, p: int,
                            budget: int = DEFAULT_BUDGET) -> IdealCountReport:
    """Exhaustive census at q = p: per tree, the coefficient assignments
    with both action matrices invertible.  Each slot touches one cell of
    one matrix, so that number is the count for letter a times the count
    for letter b.  The budget bounds the matrices each letter's count
    describes, p**(its cells), which is the space it walks."""
    _require_codim(n)
    check_prime(p)
    entries = []
    for tree in enumerate_trees(n):
        st = tree_stats(tree)
        count = (count_invertible_a_actions(tree, p, budget)
                 * count_invertible_b_actions(tree, p, budget))
        entries.append(TreeEntry(signature(tree), st.a_count, st.a_cells,
                                 st.b_cells, st.partition, count))
    total = sum(e.contribution for e in entries)
    return IdealCountReport(n, "bruteforce", p, total, tuple(entries))


# -- cell decomposition ----------------------------------------------------


@dataclass(frozen=True)
class Cell:
    theta: Perm
    torus_rank: int
    affine_dim: int


@dataclass(frozen=True)
class CellDecomposition:
    n: int
    cells: tuple[Cell, ...]

    def total_poly(self) -> LaurentPoly:
        """Sum of (q-1)^torus_rank * q^affine_dim over the cells, with one
        power of (q-1) per torus rank."""
        dims: dict[int, Counter[int]] = {}
        for c in self.cells:
            dims.setdefault(c.torus_rank, Counter())[c.affine_dim] += 1
        return sum(((Q - ONE) ** rank * LaurentPoly(counts)
                    for rank, counts in dims.items()), LaurentPoly())


def cell_decomposition(n: int, budget: int = DEFAULT_BUDGET) -> CellDecomposition:
    """One cell (F_q*)^(n+1) x F_q^((n+1)(n-2)/2 + inv(theta)) per
    indecomposable theta of size n+1, in lexicographic order.  It walks
    S_(n+1), so (n+1)! above ``budget`` raises TooLarge."""
    _require_codim(n)
    if factorial(n + 1) > budget:
        raise TooLarge(f"{n + 1}! permutations exceed budget {budget}")
    base = (n + 1) * (n - 2) // 2
    cells = tuple(Cell(theta, n + 1, base + inversions(theta))
                  for theta in enumerate_indecomposables(n + 1))
    return CellDecomposition(n, cells)
