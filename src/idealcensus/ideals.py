"""Census of right ideals of finite codimension in the group algebra
F_q[F_2], counted by independent routes that must agree.

An ideal of codimension n is determined by a code tree with n internal
nodes (the quotient basis P and the leading words C) plus one scalar per
pair (c in C, p in P with p < c): the generators are the words c minus
their lower linear combinations.  The two group generators then act on
the quotient by structured matrices (``build_action_matrices``), and the
ideal data is admissible exactly when both actions are invertible.

The routes are one table, ``ROUTES``: a ``Route`` row holds the name,
the function ``(n, q, budget)``, whether it needs q, and the label of a
mismatch.  ``count``, ``export --object ideal-census`` and ``checks``
read it, so a new route is one row and its function:

* ``hook`` (``ideal_count_hook_formula``): the point count of
  ``cell_decomposition``, the census as cells (F_q*)^(n+1) x F_q^d, one
  per indecomposable theta of size n+1, with d = hook(theta) - (n+1);
  it enumerates S_(n+1); a cross-check witness, no ``count --method``;
* ``formula`` (``formula_census``): the same prefactor against P_(n+1)
  from the inverse-series recursion, which enumerates nothing; the
  other routes are compared with it;
* ``structural`` (``ideal_count_by_trees``): one term per code tree,
  (q-1)^k * q^(free cells) * staircase count;
* ``bruteforce`` (``ideal_count_brute_force``): at q = p, the
  coefficient assignments whose two action matrices over F_p are
  invertible, one letter at a time: each slot is one cell of one
  matrix, so the count is the product of the two letters' counts.

Brute force walks the trees with the word-level ``signature`` and
``tree_stats``, so it stays independent of the tree route's records.
Each route charges its work through ``linfq.charge`` before it starts,
as ``cell_decomposition`` does when it is called, before its first cell.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Mapping, Union

from .haglund import haglund_product
from .linfq import (DEFAULT_BUDGET, FqMatrix, charge, check_prime,
                    count_invertible_rows)
from .linfq import _full_rank  # noqa: F401  re-exported; perfbench traces it here
from .permstat import (
    Perm,
    enumerate_indecomposables,
    indec_inversion_polynomials,
    inversions,
)
from .qpoly import LaurentPoly, ONE, Q
from .words import (CodeTree, TreeSignature, TreeStats, enumerate_trees, signature,
                    tree_records, tree_stats)

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


@dataclass(frozen=True)
class PolyCensus:
    """A census polynomial ``total``, with the formula route's P_(n+1)."""

    total: LaurentPoly
    indec: LaurentPoly | None = None


def formula_census(n: int, budget: int = DEFAULT_BUDGET) -> PolyCensus:
    """(q-1)^(n+1) * q^((n+1)(n-2)/2) * P_(n+1), an ordinary polynomial,
    with P_(n+1) from the inverse-series recursion, which is charged its
    coefficient products, ``permstat.recursion_cost(n + 1)``."""
    _require_codim(n)
    indec = indec_inversion_polynomials(n + 1, budget)[-1]
    return PolyCensus((Q - ONE) ** (n + 1) * indec.shift((n + 1) * (n - 2) // 2), indec)


def ideal_count_formula(n: int, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """The census polynomial of ``formula_census``."""
    return formula_census(n, budget).total


def ideal_count_hook_formula(n: int, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """The point count of ``cell_decomposition``: (q-1)^(n+1) times the
    sum of q^d over its cells, an independent route to the census.  It
    walks S_(n+1), so it is charged (n+1)! permutations."""
    dims = Counter(d for _, d in cell_decomposition(n, budget))
    return (Q - ONE) ** (n + 1) * LaurentPoly(dims)


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


# -- brute-force censuses --------------------------------------------------


def count_invertible_a_actions(tree: CodeTree, p: int,
                               budget: int = DEFAULT_BUDGET) -> int:
    return count_invertible_rows(action_rows(tree)["a"], p, budget)


def count_invertible_b_actions(tree: CodeTree, p: int,
                               budget: int = DEFAULT_BUDGET) -> int:
    return count_invertible_rows(action_rows(tree)["b"], p, budget)


def ideal_count_brute_force(n: int, p: int,
                            budget: int = DEFAULT_BUDGET) -> IdealCountReport:
    """Exhaustive census at q = p, one entry per code tree in
    ``enumerate_trees`` order: the coefficient assignments with both
    action matrices invertible.  Each slot touches one cell of one
    matrix, so that number is the count for letter a times the count for
    letter b.  Before the first tree, the budget is charged the Catalan(n)
    trees and p**(n*n) matrices, as many as the widest letter walks."""
    _require_codim(n)
    check_prime(p)
    charge(n * n, lambda k: p ** k, budget, f"{p}**{n * n} matrices per letter")
    return _tree_census(n, "bruteforce", p, budget, (
        (signature(tree), tree_stats(tree),
         count_invertible_a_actions(tree, p, budget)
         * count_invertible_b_actions(tree, p, budget))
        for tree in enumerate_trees(n)))


# -- the table of census routes --------------------------------------------


@dataclass(frozen=True)
class Route:
    """``run(n, q, budget)`` returns a census whose ``total`` is a polynomial
    in q (at q if ``needs_q``): an ``IdealCountReport`` if ``per_tree``,
    else a ``PolyCensus``.  A ``witness_only`` route is no ``count --method``."""

    name: str
    label: str
    run: Callable[[int, int | None, int], PolyCensus | IdealCountReport]
    needs_q: bool = False
    per_tree: bool = False
    witness_only: bool = False


# each row looks its function up when it runs: a rebinding of ideals.<f> reaches it
ROUTES: dict[str, Route] = {route.name: route for route in (
    Route("hook", "hook route", lambda n, q, budget: PolyCensus(
        ideal_count_hook_formula(n, budget)), witness_only=True),
    Route("formula", "formula", lambda n, q, budget: formula_census(n, budget)),
    Route("structural", "structural route",
          lambda n, q, budget: ideal_count_by_trees(n, budget), per_tree=True),
    Route("bruteforce", "brute force",
          lambda n, q, budget: ideal_count_brute_force(n, q, budget),
          needs_q=True, per_tree=True),
)}


def cross_check(results: dict, q: int | None) -> Iterator[tuple[Route, str | None]]:
    """Each route of ``results`` (route -> census) but the formula, with
    None if it agrees with the formula (at q if it needs q), else the mismatch."""
    formula = ROUTES["formula"]
    f = results[formula].total
    for route, census in results.items():
        if route is not formula:
            want, ref = (f.evaluate(q), f"({q}) = ") if route.needs_q else (f, " ")
            yield route, (None if census.total == want
                          else f"{route.label} {census.total} != {formula.label}{ref}{want}")


# -- cell decomposition ----------------------------------------------------


def cell_decomposition(n: int, budget: int = DEFAULT_BUDGET) -> Iterator[tuple[Perm, int]]:
    """The census as cells (F_q*)^(n+1) x F_q^d, one (theta, d) per
    indecomposable theta of size n+1, in lexicographic order, with
    d = hook(theta) - (n+1) = (n+1)(n-2)/2 + inv(theta).  The (n+1)!
    permutations it walks are charged when it is called, before the
    first cell; the cells are then made as they are drawn."""
    _require_codim(n)
    charge(n + 1, factorial, budget, f"{n + 1}! permutations")
    base = (n + 1) * (n - 2) // 2
    return ((theta, base + inversions(theta)) for theta in enumerate_indecomposables(n + 1))
