"""Census of right ideals of finite codimension in the group algebra
F_q[F_2], counted by independent routes that must agree.

An ideal of codimension n is determined by a code tree with n internal
nodes (the quotient basis P and the leading words C) plus one scalar per
pair (c in C, p in P with p < c): the generators are the words c minus
their lower linear combinations.  The two group generators then act on
the quotient by structured matrices (``action_rows``, read off the
letter steps of ``CodeTree.layout``), and the ideal data is admissible
exactly when both actions are invertible.

The routes are one table, ``ROUTES``: a ``Route`` row holds the name,
the function ``(n, q, budget)``, whether it needs q, and the label of a
mismatch.  Every route returns one value, a ``Census``: its total, the
per-tree entries of a tree route, and the formula route's P_(n+1).
``count``, ``export --object ideal-census`` and ``checks`` read the
table, so a new route is one row and its function:

* ``hook`` (``ideal_count_hook_formula``): the point count of
  ``cell_decomposition``, the census as cells (F_q*)^(n+1) x F_q^d, one
  per indecomposable theta of size n+1, with d = hook(theta) - (n+1);
  it enumerates S_(n+1); a cross-check witness, no ``count --method``;
* ``formula`` (``formula_census``): the same prefactor against P_(n+1)
  from the inverse-series recursion, which enumerates nothing; the
  other routes are compared with it;
* ``structural`` (``ideal_count_by_trees``): one term per code tree,
  (q-1)^k * q^(free cells) * staircase count, added up by tree key; it
  holds no entry, and draws them anew each time they are read;
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

from bisect import bisect_left
from collections import Counter
from functools import cache
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Union

from .haglund import haglund_product
from .linfq import DEFAULT_BUDGET, charge, check_prime, count_invertible_rows
from .linfq import _full_rank  # noqa: F401  re-exported; perfbench traces it here
from .permstat import (
    Perm,
    enumerate_indecomposables,
    indec_inversion_polynomials,
    inversions,
)
from .qpoly import LaurentPoly, ONE, Q
from .words import CodeTree, Record, enumerate_trees, signature, tree_records, tree_stats

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


class Census(Record):
    """What every route returns: the census ``total``, a polynomial in q
    or its value at a prime q; a tree route's ``entries``, one tuple
    (ranks, lengths, k, N, M, λ, contribution) per code tree in
    ``enumerate_trees`` order, as export's CSV columns; and the formula
    route's P_(n+1)."""

    __slots__ = ("total", "entries", "indec")

    def __init__(self, total: Contribution, entries: Iterable[tuple] = (),
                 indec: LaurentPoly | None = None):
        super().__init__(total, entries, indec)


def formula_census(n: int, budget: int = DEFAULT_BUDGET) -> Census:
    """(q-1)^(n+1) * q^((n+1)(n-2)/2) * P_(n+1), an ordinary polynomial,
    with P_(n+1) from the inverse-series recursion, which is charged its
    coefficient products, ``permstat.recursion_cost(n + 1)``."""
    _require_codim(n)
    indec = indec_inversion_polynomials(n + 1, budget)[-1]
    return Census((Q - ONE) ** (n + 1) * indec.shift((n + 1) * (n - 2) // 2), indec=indec)


def ideal_count_formula(n: int, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """The census polynomial of ``formula_census``."""
    return formula_census(n, budget).total


def ideal_count_hook_formula(n: int, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """The point count of ``cell_decomposition``: (q-1)^(n+1) times the
    sum of q^d over its cells, an independent route to the census.  It
    walks S_(n+1), so it is charged (n+1)! permutations."""
    dims = Counter(d for _, d in cell_decomposition(n, budget))
    return (Q - ONE) ** (n + 1) * LaurentPoly(dims)


def tree_contribution(tree: CodeTree) -> Contribution:
    """(q-1)^k * q^(a_cells + b_cells) * staircase count of the tree."""
    st = tree_stats(tree)
    return ((Q - ONE) ** st.a_count
            * haglund_product(st.partition).shift(st.a_cells + st.b_cells))


def staircase_factors(n: int) -> Callable[[tuple[int, ...]], LaurentPoly]:
    """(q-1)^k * haglund_product(λ) for the trees with n internal nodes
    and partition λ, memoized per λ: λ has n + 1 - k parts, so it fixes
    k, and each factor q - 1 is a shift minus the value."""

    @cache
    def factor(lam: tuple[int, ...]) -> LaurentPoly:
        value = haglund_product(lam)
        for _ in range(n + 1 - len(lam)):
            value = value.shift(1) - value
        return value

    return factor


def census_by_keys(keys: Mapping[tuple, int], factor: Callable) -> Contribution:
    """Σ_λ factor(λ) * Σ_cells m * q^cells, one product per λ, where
    ``keys`` maps each tree key (free cells, λ) to its m trees."""
    by_lam: dict[tuple[int, ...], dict[int, int]] = {}
    for (cells, lam), m in keys.items():
        by_lam.setdefault(lam, {})[cells] = m
    return sum((factor(lam) * LaurentPoly(cells) for lam, cells in by_lam.items()), 0)


class TreeWalk(Record):
    """The structural census's entries, drawn from a new walk of
    ``tree_records(n)`` each time they are iterated; ``len`` is the number
    of trees the total's walk counted.  The trees of a key share one term,
    and equal terms one object, so a renderer memoized by identity hashes
    none."""

    __slots__ = ("n", "count")

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple]:
        factor = staircase_factors(self.n)
        by_key, by_value = {}, {}
        for ranks, lengths, a_cells, b_cells, lam in tree_records(self.n):
            key = a_cells + b_cells, lam
            value = by_key.get(key)
            if value is None:
                value = factor(lam).shift(key[0])
                value = by_key[key] = by_value.setdefault(value, value)
            yield ranks, lengths, len(ranks), a_cells, b_cells, lam, value


def ideal_count_by_trees(n: int, budget: int = DEFAULT_BUDGET) -> Census:
    """The census as a sum over code trees, charged Catalan(n) trees: one
    walk of ``words.tree_records`` counts the trees of each key (free
    cells, λ) for the total, and the entries are a ``TreeWalk``."""
    _require_codim(n)
    charge(n, catalan, budget, f"Catalan({n}) trees")
    keys = Counter((a_cells + b_cells, lam) for _, _, a_cells, b_cells, lam in tree_records(n))
    return Census(census_by_keys(keys, staircase_factors(n)), TreeWalk(n, sum(keys.values())))


# -- the letter actions on the quotient basis ------------------------------


def action_rows(tree: CodeTree) -> dict[str, list[tuple[list[int], list[int]]]]:
    """The two action matrices on the quotient basis P (sorted
    alphabetically) as ``linfq`` row families, keyed by letter, read off
    the letter steps of ``tree.layout``.  Row p of letter x holds 1 in
    column px when px stays in P, and is free in the columns r < px when
    px is a leading word; every other entry is 0.  The free cells of
    row c[:-1] of letter c[-1] are leaf c's slots, the pairs (c, p) with
    p < c, so each slot is exactly one cell of one matrix, and no unit
    entry."""
    basis, leaves = tree.prefixes, tree.leaves

    def row(step: int) -> tuple[list[int], list[int]]:
        fixed = [0] * len(basis)
        if step < 0:
            return fixed, list(range(bisect_left(basis, leaves[~step])))
        fixed[step] = 1
        return fixed, []

    layout = tree.layout
    return {"a": [row(s) for s in layout.a], "b": [row(s) for s in layout.b]}


def letter_slots(tree: CodeTree) -> tuple[int, int]:
    """Slots in the a-action matrix and in the b-action matrix; a
    letter's brute-force count walks p**(its slots) matrices."""
    rows = action_rows(tree)
    return sum(len(f) for _, f in rows["a"]), sum(len(f) for _, f in rows["b"])


# -- brute-force censuses --------------------------------------------------


def count_invertible_a_actions(tree: CodeTree, p: int,
                               budget: int = DEFAULT_BUDGET) -> int:
    return count_invertible_rows(action_rows(tree)["a"], p, budget)


def count_invertible_b_actions(tree: CodeTree, p: int,
                               budget: int = DEFAULT_BUDGET) -> int:
    return count_invertible_rows(action_rows(tree)["b"], p, budget)


def word_entry(tree: CodeTree, contribution: Contribution) -> tuple:
    """The census entry of ``tree``, read off its words."""
    sig, st = signature(tree), tree_stats(tree)
    return (sig.ranks, sig.lengths, st.a_count, st.a_cells, st.b_cells, st.partition,
            contribution)


def ideal_count_brute_force(n: int, p: int,
                            budget: int = DEFAULT_BUDGET) -> Census:
    """Exhaustive census at q = p, one entry per code tree in
    ``enumerate_trees`` order: the coefficient assignments with both
    action matrices invertible.  Each slot touches one cell of one
    matrix, so that number is the count for letter a times the count for
    letter b.  Before the first tree, the budget is charged p**(n*n)
    matrices, as many as the widest letter walks, and Catalan(n) trees."""
    _require_codim(n)
    check_prime(p)
    charge(n * n, lambda k: p ** k, budget, f"{p}**{n * n} matrices per letter")
    charge(n, catalan, budget, f"Catalan({n}) trees")
    entries = tuple(word_entry(tree, count_invertible_a_actions(tree, p, budget)
                               * count_invertible_b_actions(tree, p, budget))
                    for tree in enumerate_trees(n))
    return Census(sum(entry[-1] for entry in entries), entries)


# -- the table of census routes --------------------------------------------


class Route(NamedTuple):
    """``run(n, q, budget)`` returns a ``Census`` whose ``total`` is a
    polynomial in q (its value at q if ``needs_q``), with one entry per
    tree if ``per_tree`` and none otherwise.  A ``witness_only`` route is
    no ``count --method``."""

    name: str
    label: str
    run: Callable[[int, int | None, int], Census]
    needs_q: bool = False
    per_tree: bool = False
    witness_only: bool = False


# each row looks its function up when it runs: a rebinding of ideals.<f> reaches it
ROUTES: dict[str, Route] = {route.name: route for route in (
    Route("hook", "hook route", lambda n, q, budget: Census(
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
