"""The one table of cross-checks, run by ``idealcensus verify`` and by
``tests/test_checks.py``.  A check is a generator ``fn(cfg)`` that
compares independent routes case by case up to ``cfg.max_n`` and yields
one ``(case, ok)`` per case it checked; ``run_check`` walks it, counts
the cases and names the first case that fails.  A check that yields no
case checked nothing, and ``verify`` prints it as skipped.  Library
functions are looked up as ``module.name`` at call time, so a rebinding
of them reaches the checks.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator

from . import congruence, haglund, ideals, linfq, permstat, qpoly, words
from .linfq import DEFAULT_BUDGET
from .qpoly import LaurentPoly

Cases = Iterator[tuple[object, bool]]  # one (case, ok) per case checked
Check = Callable[["CheckConfig"], Cases]


@dataclass(frozen=True)
class CheckConfig:
    max_n: int = 5
    primes: tuple[int, ...] = (2, 3)
    seed: int = 0
    budget: int = DEFAULT_BUDGET


def run_check(fn: Check, cfg: CheckConfig) -> tuple[bool, str, int, float]:
    """(ok, detail, cases, seconds): the walk stops at the first case that
    fails, and detail names it; a check that raises is a failure, not an
    abort."""
    start = time.perf_counter()
    ok, detail, cases = True, "", 0
    try:
        for case, ok in fn(cfg):
            cases += 1
            if not ok:
                detail = str(case)
                break
    except Exception as exc:
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return ok, detail, cases, time.perf_counter() - start


# -- case families: every object of each size lo..hi ---------------------


def perms(lo: int, hi: int) -> Iterator[permstat.Perm]:
    for n in range(lo, hi + 1):
        yield from permstat.enumerate_permutations(n)


def trees(lo: int, hi: int) -> Iterator[words.CodeTree]:
    for n in range(lo, hi + 1):
        yield from words.enumerate_trees(n)


def regular(lo: int, hi: int) -> Iterator[congruence.RightCongruence]:
    for n in range(lo, hi + 1):
        yield from congruence.enumerate_regular(n)


def partitions(lo: int, hi: int) -> Iterator[haglund.Partition]:
    for n in range(lo, hi + 1):
        yield from haglund.partitions_bounded(n)


def check_frozen_polynomials(cfg: CheckConfig) -> Cases:
    table = {1: LaurentPoly({0: 1}), 2: LaurentPoly({1: 1}),
             3: LaurentPoly({3: 1, 2: 2}), 4: LaurentPoly({6: 1, 5: 3, 4: 5, 3: 4})}
    recursion = permstat.indec_inversion_polynomials(len(table))
    for m, expect in table.items():
        got = permstat.indec_inversion_polynomial(m)
        yield f"m={m}: {got}", got == expect
        yield f"m={m}: recursion gives {recursion[m - 1]}", recursion[m - 1] == expect


def check_hook_routes(cfg: CheckConfig) -> Cases:
    for s in perms(0, cfg.max_n):
        grid = permstat.hook_union_size(s)
        yield s, grid == permstat.hook_number(s) == permstat.inversions(s) + comb(len(s), 2)


def check_transpose_symmetry(cfg: CheckConfig) -> Cases:
    for s in perms(0, cfg.max_n):
        t = permstat.inverse(s)
        yield s, (permstat.inversions(s) == permstat.inversions(t)
                  and permstat.hook_union_size(s) == permstat.hook_union_size(t))


def check_indec_criteria(cfg: CheckConfig) -> Cases:
    for s in perms(1, cfg.max_n):
        yield s, permstat.is_indecomposable(s) == permstat.is_indecomposable_lr(s)


def check_hook_strip(cfg: CheckConfig) -> Cases:
    for s in perms(1, cfg.max_n):
        yield s, permstat.hook_strip_identity_check(s)


def check_factorization(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 6) + 1):
        seen: dict = {}
        stack = [((), 0)]
        while stack:
            prefix, size = stack.pop()
            if size < n:
                stack.extend((prefix + (f,), size + m) for m in range(1, n - size + 1)
                             for f in permstat.enumerate_indecomposables(m))
                continue
            perm = functools.reduce(permstat.shifted_concat, prefix, ())
            yield (perm, prefix), perm not in seen
            seen[perm] = prefix
        yield f"n={n}: {len(seen)} products", len(seen) == factorial(n)
        for perm, prefix in seen.items():
            yield perm, permstat.indecomposable_factors(perm) == prefix


def check_inversion_distribution(cfg: CheckConfig) -> Cases:
    for n in range(cfg.max_n + 2):
        yield f"n={n}", permstat.inversion_distribution(n) == qpoly.q_factorial(n)


def check_series_identity(cfg: CheckConfig) -> Cases:
    order = min(8, cfg.max_n + 3)
    yield f"order {order}", permstat.series_identity_check(order)


def _random_poly(rng: random.Random) -> LaurentPoly:
    return LaurentPoly({rng.randint(-5, 8): rng.randint(-9, 9)
                        for _ in range(rng.randint(0, 6))})


def check_ring_axioms(cfg: CheckConfig) -> Cases:
    rng = random.Random(cfg.seed)
    for i in range(1000):
        p, r, s = (_random_poly(rng) for _ in range(3))
        yield f"sample {i}", ((p + r) * s == p * s + r * s and p * r == r * p
                              and (p * r) * s == p * (r * s))


def check_eval_morphism(cfg: CheckConfig) -> Cases:
    rng = random.Random(cfg.seed + 1)
    for i in range(400):
        p, r = _random_poly(rng), _random_poly(rng)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if x == 0:
            x = Fraction(1, 3)
        yield f"sample {i}", ((p * r).evaluate(x) == p.evaluate(x) * r.evaluate(x)
                              and (p + r).evaluate(x) == p.evaluate(x) + r.evaluate(x))


def check_tree_counts(cfg: CheckConfig) -> Cases:
    for n in range(cfg.max_n + 1):
        count = sum(1 for _ in words.enumerate_trees(n))
        yield f"n={n}: {count}", count == comb(2 * n, n) // (n + 1)


def check_tree_parts(cfg: CheckConfig) -> Cases:
    for tree in trees(1, cfg.max_n):
        c_a, c_b, p_a, p_b = tree.parts
        yield tree, (len(c_a) == len(p_b) and len(c_b) == len(p_a)
                     and sorted(words.strip_a_run(c) for c in c_a) == sorted(p_b)
                     and sorted(words.strip_b_run(c) for c in c_b) == sorted(p_a))


def check_signature_roundtrip(cfg: CheckConfig) -> Cases:
    for tree in trees(1, cfg.max_n):
        yield tree, words.reconstruct(words.signature(tree)) == tree


def check_prefix_sum_route(cfg: CheckConfig) -> Cases:
    # partial sums of run lengths = 1-based ranks in P of the leaf parents
    for tree in trees(1, cfg.max_n):
        rank = {p: i + 1 for i, p in enumerate(tree.prefixes)}
        parents = tuple(rank[c[:-1]] for c in tree.leaves if c.endswith("a"))
        yield tree, parents == words.tree_stats(tree).prefix_sums


def check_rank_sum(cfg: CheckConfig) -> Cases:
    for tree in trees(0, cfg.max_n):
        yield tree, words.rank_sum_identity_check(tree)


def check_rank_bijection(cfg: CheckConfig) -> Cases:
    for tree in trees(0, cfg.max_n):
        phi = words.rank_identity_bijection(tree)
        st = words.tree_stats(tree)
        c_a, c_b, p_a, p_b = tree.parts
        targets = ({("pair_b", (p, c)) for p in p_b if p for c in c_b if p < c}
                   | {("leaf_b", c) for c in c_b}
                   | {("pair_a", (g, c)) for g in c_a for c in c_a if g < c})
        yield tree, (len(set(phi.values())) == len(phi) and set(phi.values()) == targets
                     and len(phi) == st.b_cells + len(c_b) + len(c_a) * (len(c_a) - 1) // 2)


def check_leaf_orders_agree(cfg: CheckConfig) -> Cases:
    for tree in trees(0, cfg.max_n):
        yield tree, tuple(sorted(tree.leaves, key=words.twisted_key)) == tree.leaves


def check_order_properties(cfg: CheckConfig) -> Cases:
    bound = min(cfg.max_n, 7)
    yield "power separation", words.power_separation_check(bound)
    yield "class intervals", words.class_interval_check(bound)
    yield "twist comparison", words.twist_order_check(bound)
    yield "branch floor", words.branch_floor_check(min(bound, 6))


def check_congruence_counts(cfg: CheckConfig) -> Cases:
    for n in range(1, cfg.max_n + 1):
        count = sum(1 for _ in congruence.enumerate_regular(n))
        indec = sum(1 for _ in permstat.enumerate_indecomposables(n + 1))
        hall = congruence.hall_count(n)
        yield f"n={n}: {count}, {indec}, {hall}", count == indec == hall


def check_congruence_roundtrip(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 5) + 1):
        seen = set()
        for rc in congruence.enumerate_regular(n):
            theta = congruence.to_indecomposable(rc)
            yield rc, (permstat.is_indecomposable(theta) and theta not in seen
                       and congruence.from_indecomposable(theta) == rc)
            seen.add(theta)
        yield f"n={n}: image mismatch", seen == set(permstat.enumerate_indecomposables(n + 1))


def check_congruence_brute_filter(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 4) + 1):
        fast = {(rc.tree.leaves, rc.images) for rc in congruence.enumerate_regular(n)}
        slow = set()
        for tree in words.enumerate_trees(n):
            candidates = [[p for p in tree.prefixes if p < c] for c in tree.leaves]
            for images in itertools.product(*candidates):
                if congruence.is_regular(congruence.RightCongruence(tree, images)):
                    slow.add((tree.leaves, images))
        yield f"n={n}", fast == slow


def check_action_tables(cfg: CheckConfig) -> Cases:
    for rc in regular(1, cfg.max_n):
        table = congruence.action_table(rc)
        yield rc, all(sorted(row) == list(range(rc.tree.n))
                      for row in (table.a_next, table.b_next))


def check_hook_through_correspondence(cfg: CheckConfig) -> Cases:
    for rc in regular(1, min(cfg.max_n, 5)):
        theta = congruence.to_indecomposable(rc)
        st = words.tree_stats(rc.tree)
        sig = words.signature(rc.tree)
        k = st.a_count
        sigma = permstat.strip_lr_maxima(theta)
        expected = (permstat.hook_union_size(sigma) + (rc.tree.n + 1) * k
                    - k * (k - 1) // 2 - sum(sig.ranks) + sum(st.prefix_sums))
        yield rc, (permstat.lr_maxima(theta).values == tuple(s + 1 for s in st.prefix_sums)
                   and permstat.hook_union_size(theta) == expected)


def check_subgroup_generators(cfg: CheckConfig) -> Cases:
    for rc in regular(1, min(cfg.max_n, 4)):
        gens = congruence.subgroup_generators(rc)
        yield rc, len(gens) == rc.tree.n + 1 and all(
            congruence.free_reduce(g) == g and congruence.subgroup_contains(rc, g)
            for g in gens)


def _vanishes(parts: haglund.Partition) -> bool:
    return any(v < i + 1 for i, v in enumerate(parts))


def check_haglund_routes(cfg: CheckConfig) -> Cases:
    for parts in partitions(1, cfg.max_n):
        yield parts, haglund.haglund_product(parts) == haglund.haglund_hook_sum(parts)


def check_haglund_recursion(cfg: CheckConfig) -> Cases:
    for parts in partitions(2, cfg.max_n):
        if _vanishes(parts):
            continue
        peeled = tuple(v - 1 for v in parts[1:])
        expect = ((LaurentPoly.monomial(parts[0]) - 1)
                  * haglund.haglund_product(peeled).shift(len(parts) - 1))
        yield parts, haglund.haglund_product(parts) == expect


def check_haglund_brute(cfg: CheckConfig) -> Cases:
    for parts in partitions(1, min(cfg.max_n, 3)):
        for p in cfg.primes:
            if p ** sum(parts) > min(cfg.budget, 1 << 21):
                continue
            brute = linfq.count_invertible_support(parts, p, cfg.budget)
            yield f"{parts} at p={p}", haglund.haglund_product(parts).evaluate(p) == brute


def check_haglund_degree(cfg: CheckConfig) -> Cases:
    for parts in partitions(1, cfg.max_n):
        h = haglund.haglund_product(parts)
        if _vanishes(parts):
            yield parts, h.is_zero
        else:
            n = len(parts)
            yield parts, h.degree == comb(n, 2) + sum(v - i for i, v in enumerate(parts))


def check_census_routes(cfg: CheckConfig) -> Cases:
    for n in range(1, cfg.max_n + 1):
        f = ideals.ideal_count_formula(n)
        yield f"n={n}: hook route", f == ideals.ideal_count_hook_formula(n)
        yield f"n={n}: tree route", f == ideals.ideal_count_by_trees(n).total


def check_census_brute(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 3) + 1):
        expected = ideals.ideal_count_formula(n)
        slots = max(max(ideals.letter_slots(t)) for t in words.enumerate_trees(n))
        for p in cfg.primes:
            if p ** slots > min(cfg.budget, 1 << 17):
                continue
            total = ideals.ideal_count_brute_force(n, p, cfg.budget).total
            yield f"n={n}, p={p}: {total}", total == expected.evaluate(p)


def check_per_tree_counts(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 3) + 1):
        for p in cfg.primes:
            if p <= 3:
                yield f"n={n}, p={p}", ideals.per_tree_action_count_check(n, p, cfg.budget)


def check_cells(cfg: CheckConfig) -> Cases:
    for n in range(1, cfg.max_n + 1):
        cd = ideals.cell_decomposition(n)
        yield f"n={n}", (cd.total_poly() == ideals.ideal_count_formula(n)
                         and all(c.affine_dim >= 0 for c in cd.cells))


def check_census_shape(cfg: CheckConfig) -> Cases:
    for n in range(1, cfg.max_n + 1):
        f = ideals.ideal_count_formula(n)
        yield f"n={n}", (f.valuation >= 0
                         and f.degree == (n + 1) * (n - 2) // 2 + (n + 1) + comb(n + 1, 2)
                         and f.evaluate(1) == 0)


SUITES: dict[str, list[tuple[str, Check]]] = {
    "permstat": [
        ("inversion polynomials match the frozen table", check_frozen_polynomials),
        ("hook statistic: grid route = inversion routes", check_hook_routes),
        ("transpose symmetry of inv and hook", check_transpose_symmetry),
        ("indecomposability criteria agree", check_indec_criteria),
        ("hook statistic strip identity", check_hook_strip),
        ("unique factorization into indecomposables", check_factorization),
        ("inversion distribution equals the q-factorial", check_inversion_distribution),
        ("factorial series is the indecomposable reciprocal", check_series_identity),
        ("polynomial ring axioms on seeded samples", check_ring_axioms),
        ("evaluation is a ring morphism on seeded samples", check_eval_morphism),
    ],
    "words": [
        ("tree counts are the Catalan numbers", check_tree_counts),
        ("leaf/prefix parts match under run stripping", check_tree_parts),
        ("signature reconstruction roundtrip", check_signature_roundtrip),
        ("prefix sums equal parent ranks", check_prefix_sum_route),
        ("rank-sum identity", check_rank_sum),
        ("rank identity bijection", check_rank_bijection),
        ("alphabetical and twisted order agree on leaves", check_leaf_orders_agree),
        ("exhaustive order properties", check_order_properties),
    ],
    "congruence": [
        ("regular count = subgroup recursion = indecomposables", check_congruence_counts),
        ("correspondence is a roundtrip bijection", check_congruence_roundtrip),
        ("enumeration matches the brute-force filter", check_congruence_brute_filter),
        ("letter actions of regular congruences permute", check_action_tables),
        ("hook statistic through the correspondence", check_hook_through_correspondence),
        ("subgroup generators reduced and accepted", check_subgroup_generators),
    ],
    "haglund": [
        ("product formula equals hook sum", check_haglund_routes),
        ("product formula peels one row", check_haglund_recursion),
        ("brute-force matrix counts at the primes", check_haglund_brute),
        ("degree and vanishing criteria", check_haglund_degree),
    ],
    "ideals": [
        ("formula = hook formula = tree sum", check_census_routes),
        ("brute-force census at the primes", check_census_brute),
        ("per-tree action counts factor as predicted", check_per_tree_counts),
        ("cell decomposition sums to the census", check_cells),
        ("census degree, polynomiality, vanishing at q=1", check_census_shape),
    ],
}
