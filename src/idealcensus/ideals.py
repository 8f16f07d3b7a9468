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
  (q-1)^k * q^(free cells) * staircase count.  It walks the records of
  ``words.tree_records``, each tree's signature and stats composed from
  its root split, and builds no word.  The term depends only on the
  tree's key (k, free cells, partition), so it is built once per key, as
  a shift of the staircase factor (q-1)^k * H_partition(q), which is
  built once per partition from (q-1)^k, built once per k;
* ``ideal_count_brute_force``: count over F_p the coefficient
  assignments for which both action matrices are invertible.  Both
  matrices are ``linfq`` row families (``action_rows``), and each slot
  is a free cell of one of them, so the per-tree count is the a-count
  times the b-count; each letter's count walks its matrix row by row
  (``linfq.count_invertible_rows``), and ``count_invertible_pairs``,
  which visits every joint assignment of both letters, witnesses the
  factorisation (``checks.per_tree_action_counts``, tree by tree and
  prime by prime).  It reads the reference walk
  ``linfq.enumerate_matrices``: the a-stream once, and a b-stream per
  invertible a-matrix.  The b-matrices repeat across those streams, so
  it caches its rank test by matrix entries, within one call.

Both tree routes build their report in one place (``_tree_census``):
an ``IdealCountReport``, one entry per tree in ``enumerate_trees`` order.
Brute force walks the trees themselves with the word-level
``signature`` and ``tree_stats``, so it stays a witness independent of
the composed records.  The report's total is the sum of its entries by
construction: each distinct contribution is added once, times the
number of entries that hold it.  ``checks`` compares the totals of the
routes with each other, and each structural entry with the word-level
data of its tree.

Every route takes a budget and charges it through ``linfq.charge``,
which raises ``TooLarge`` before the route starts when its work would
exceed it: the coefficient products of the C(n+2, 2) polynomial
products for the formula route (``permstat.recursion_cost``),
(n+1)! permutations for the hook route, Catalan(n) trees for the tree
sum and for brute force, and p**(cells) matrices per letter and tree
for brute force.

``cell_decomposition`` records the partition of the census into cells
(F_q*)^(n+1) x F_q^d indexed by indecomposable permutations; like the
hook route it walks S_(n+1) and is charged (n+1)!.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Iterable, Mapping, Union

from .haglund import haglund_product
from .linfq import (DEFAULT_BUDGET, FqMatrix, _full_rank, charge, check_prime,
                    count_invertible_rows, enumerate_matrices)
from .permstat import (
    Perm,
    enumerate_indecomposables,
    indec_hook_polynomial,
    indec_inversion_polynomials,
    inversions,
)
from .qpoly import LaurentPoly, ONE, Q
from .words import (CodeTree, TreeSignature, TreeStats, enumerate_trees, signature,
                    tree_records, tree_stats, word_compact)

Contribution = Union[LaurentPoly, int]


class CodimensionZero(ValueError):
    """The closed formulas are stated for codimension n >= 1."""


def _require_codim(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise CodimensionZero(f"codimension must be an integer >= 1, got {n!r}")
    return n


def catalan(n: int) -> int:
    """Number of code trees with n internal nodes."""
    return comb(2 * n, n) // (n + 1)


def ideal_count_formula(n: int, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """(q-1)^(n+1) * q^((n+1)(n-2)/2) * (indecomposable inversion
    polynomial of size n+1, from the inverse-series recursion); always an
    ordinary polynomial.  The recursion is charged its coefficient
    products, ``permstat.recursion_cost(n + 1)``."""
    _require_codim(n)
    return ideal_count_from_indec(n, indec_inversion_polynomials(n + 1, budget)[-1])


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
    walks S_(n+1), so it is charged (n+1)! permutations."""
    _require_codim(n)
    charge(n + 1, factorial, budget, f"{n + 1}! permutations")
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
    """Per-tree breakdown of a census; ``total`` is derived, the sum of
    the entries' contributions."""

    n: int
    method: str
    q: int | None
    entries: tuple[TreeEntry, ...]
    total: Contribution = field(init=False)

    def __post_init__(self):
        # trees share contributions, so each distinct one is added once,
        # times the number of entries that hold it
        counts = Counter(e.contribution for e in self.entries)
        object.__setattr__(self, "total",
                           sum((value * m for value, m in counts.items()), 0))


def tree_contribution(tree: CodeTree) -> Contribution:
    """(q-1)^k * q^(a_cells + b_cells) * staircase count of the tree."""
    st = tree_stats(tree)
    return ((Q - ONE) ** st.a_count
            * haglund_product(st.partition).shift(st.a_cells + st.b_cells))


def _tree_census(n: int, method: str, q: int | None, budget: int,
                 records: Iterable[tuple[TreeSignature, TreeStats, Contribution]]
                 ) -> IdealCountReport:
    """The report both tree routes build: Catalan(n) trees are charged
    against ``budget`` before the first record is drawn, then each
    (signature, stats, contribution) record, in ``enumerate_trees``
    order, becomes one entry."""
    charge(n, catalan, budget, f"Catalan({n}) trees")
    return IdealCountReport(n, method, q, tuple(
        TreeEntry(sig, st.a_count, st.a_cells, st.b_cells, st.partition, value)
        for sig, st, value in records))


def ideal_count_by_trees(n: int, budget: int = DEFAULT_BUDGET) -> IdealCountReport:
    """One entry per code tree, in ``enumerate_trees`` order, from the
    composed records of ``words.tree_records``.  Trees with the same key
    (k, a_cells + b_cells, partition) share one immutable contribution,
    the key's staircase factor (q-1)^k * haglund_product(partition)
    shifted by its cells.  The partition has n + 1 - k parts, so it
    fixes k: each factor is built once per partition, from (q-1)^k
    built once per k.  Catalan(n) trees above ``budget`` raise
    TooLarge."""
    _require_codim(n)
    powers: dict[int, LaurentPoly] = {}
    factors: dict[tuple[int, ...], LaurentPoly] = {}
    contributions: dict[tuple, LaurentPoly] = {}

    def value(st: TreeStats) -> LaurentPoly:
        key = (st.a_count, st.a_cells + st.b_cells, st.partition)
        if key not in contributions:
            k, cells, lam = key
            if lam not in factors:
                if k not in powers:
                    powers[k] = (Q - ONE) ** k
                factors[lam] = powers[k] * haglund_product(lam)
            contributions[key] = factors[lam].shift(cells)
        return contributions[key]

    return _tree_census(n, "structural", None, budget,
                        ((sig, st, value(st)) for sig, st in tree_records(n)))


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


def action_rows(tree: CodeTree) -> dict[str, list[tuple[list[int], list[int]]]]:
    """The two action matrices on the quotient basis P (sorted
    alphabetically) as ``linfq`` row families, keyed by letter.  Row p
    of letter x holds 1 in column px when px stays in P, and is free in
    the columns r < px when px is a leading word; every other entry is
    0.  Each leaf c's slots, in ``assignment_slots`` order, are the free
    cells of row c[:-1] of letter c[-1], so each slot touches exactly
    one cell of one matrix, and no unit entry."""
    basis = tree.prefixes
    return {x: [([int(p + x == r) for r in basis],
                 [] if p + x in basis else [j for j, r in enumerate(basis) if r < p + x])
                for p in basis] for x in "ab"}


def letter_slots(tree: CodeTree) -> tuple[int, int]:
    """Slots in the a-action matrix and in the b-action matrix; a
    letter's brute-force count walks p**(its slots) matrices."""
    rows = action_rows(tree)
    return sum(len(f) for _, f in rows["a"]), sum(len(f) for _, f in rows["b"])


def build_action_matrices(ca: CoefficientAssignment) -> tuple[FqMatrix, FqMatrix]:
    """Matrices of the two letters acting on the quotient basis P
    (sorted alphabetically): row p, column r holds 1 when p.x = r stays
    in P, the slot value for (px, r) when px is a leading word and
    r < px, and 0 otherwise."""
    rows = action_rows(ca.tree)
    values = iter(ca.values)
    for c in ca.tree.leaves:
        fixed, free = rows[c[-1]][ca.tree.prefixes.index(c[:-1])]
        for j in free:
            fixed[j] = next(values)
    return (FqMatrix.from_rows([fixed for fixed, _ in rows["a"]], ca.modulus),
            FqMatrix.from_rows([fixed for fixed, _ in rows["b"]], ca.modulus))


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


def count_invertible_a_actions(tree: CodeTree, p: int,
                               budget: int = DEFAULT_BUDGET) -> int:
    return count_invertible_rows(action_rows(tree)["a"], p, budget)


def count_invertible_b_actions(tree: CodeTree, p: int,
                               budget: int = DEFAULT_BUDGET) -> int:
    return count_invertible_rows(action_rows(tree)["b"], p, budget)


def count_invertible_pairs(tree: CodeTree, p: int,
                           budget: int = DEFAULT_BUDGET) -> int:
    """Walk every assignment of the slots of both letters and count those
    whose two action matrices are both invertible: for each invertible
    matrix of the a-stream (``linfq.enumerate_matrices`` over the
    a-rows), count the invertible matrices of a fresh b-stream.  It never
    uses the per-letter counts, so it witnesses that the census may
    multiply them.  The p**(a slots + b slots) joint assignments are
    charged before either stream starts.

    Each b-stream repeats the one before, so the rank test is cached by
    matrix entries in a dict that lives for this one call: at most
    p**(a slots) + p**(b slots) eliminations."""
    check_prime(p)
    rows = action_rows(tree)
    cells = sum(len(free) for family in rows.values() for _, free in family)
    charge(cells, lambda k: p ** k, budget, f"{p}**{cells} assignments")
    full_rank: dict[tuple[tuple[int, ...], ...], bool] = {}

    def invertible(m: FqMatrix) -> bool:
        ok = full_rank.get(m.entries)
        if ok is None:
            ok = full_rank[m.entries] = _full_rank([list(r) for r in m.entries], m.rows, p)
        return ok

    return sum(sum(map(invertible, enumerate_matrices(rows["b"], p, budget)))
               for a in enumerate_matrices(rows["a"], p, budget) if invertible(a))


def ideal_count_brute_force(n: int, p: int,
                            budget: int = DEFAULT_BUDGET) -> IdealCountReport:
    """Exhaustive census at q = p, one entry per code tree in
    ``enumerate_trees`` order: the coefficient assignments with both
    action matrices invertible.  Each slot touches one cell of one
    matrix, so that number is the count for letter a times the count for
    letter b.  The budget bounds the Catalan(n) trees, charged before the
    first tree is built, and the matrices each letter's count describes,
    p**(its cells), which is the space it walks."""
    _require_codim(n)
    check_prime(p)
    return _tree_census(n, "bruteforce", p, budget, (
        (signature(tree), tree_stats(tree),
         count_invertible_a_actions(tree, p, budget)
         * count_invertible_b_actions(tree, p, budget))
        for tree in enumerate_trees(n)))


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
    S_(n+1), so it is charged (n+1)! permutations."""
    _require_codim(n)
    charge(n + 1, factorial, budget, f"{n + 1}! permutations")
    base = (n + 1) * (n - 2) // 2
    cells = tuple(Cell(theta, n + 1, base + inversions(theta))
                  for theta in enumerate_indecomposables(n + 1))
    return CellDecomposition(n, cells)
