"""The one table of cross-checks, run by ``idealcensus verify`` and by
``tests/test_checks.py``.  Each check compares independent routes over
every case up to ``cfg.max_n`` and returns (ok, detail), detail naming
the first counterexample.  Library functions are looked up as
``module.name`` at call time, so a rebinding of them reaches the checks.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from . import congruence, haglund, ideals, linfq, permstat, qpoly, words
from .linfq import DEFAULT_BUDGET
from .qpoly import LaurentPoly


@dataclass(frozen=True)
class CheckConfig:
    max_n: int = 5
    primes: tuple[int, ...] = (2, 3)
    seed: int = 0
    budget: int = DEFAULT_BUDGET


def run_check(fn: Callable[[CheckConfig], tuple[bool, str]],
              cfg: CheckConfig) -> tuple[bool, str, float]:
    """(ok, detail, seconds); a check that raises is a failure, not an abort."""
    start = time.perf_counter()
    try:
        ok, detail = fn(cfg)
    except Exception as exc:
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return ok, detail, time.perf_counter() - start


def check_frozen_polynomials(cfg: CheckConfig) -> tuple[bool, str]:
    table = {1: LaurentPoly({0: 1}), 2: LaurentPoly({1: 1}),
             3: LaurentPoly({3: 1, 2: 2}), 4: LaurentPoly({6: 1, 5: 3, 4: 5, 3: 4})}
    recursion = permstat.indec_inversion_polynomials(len(table))
    for m, expect in table.items():
        got = permstat.indec_inversion_polynomial(m)
        if got != expect:
            return False, f"m={m}: {got}"
        if recursion[m - 1] != expect:
            return False, f"m={m}: recursion gives {recursion[m - 1]}"
    return True, ""


def check_hook_routes(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(cfg.max_n + 1):
        for s in permstat.enumerate_permutations(n):
            grid = permstat.hook_union_size(s)
            if grid != permstat.hook_number(s):
                return False, f"{s}"
            if grid != permstat.inversions(s) + comb(n, 2):
                return False, f"{s}"
    return True, ""


def check_transpose_symmetry(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(cfg.max_n + 1):
        for s in permstat.enumerate_permutations(n):
            t = permstat.inverse(s)
            if permstat.inversions(s) != permstat.inversions(t):
                return False, f"{s}"
            if permstat.hook_union_size(s) != permstat.hook_union_size(t):
                return False, f"{s}"
    return True, ""


def check_indec_criteria(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        for s in permstat.enumerate_permutations(n):
            if permstat.is_indecomposable(s) != permstat.is_indecomposable_lr(s):
                return False, f"{s}"
    return True, ""


def check_hook_strip(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        for s in permstat.enumerate_permutations(n):
            if not permstat.hook_strip_identity_check(s):
                return False, f"{s}"
    return True, ""


def check_factorization(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, min(cfg.max_n, 6) + 1):
        seen: dict = {}
        stack = [((), 0)]
        while stack:
            prefix, size = stack.pop()
            if size == n:
                perm = ()
                for f in prefix:
                    perm = permstat.shifted_concat(perm, f)
                if perm in seen:
                    return False, f"{perm} from {prefix} and {seen[perm]}"
                seen[perm] = prefix
                continue
            for m in range(1, n - size + 1):
                for f in permstat.enumerate_indecomposables(m):
                    stack.append((prefix + (f,), size + m))
        if len(seen) != factorial(n):
            return False, f"n={n}: {len(seen)} products"
        for perm, prefix in seen.items():
            if permstat.indecomposable_factors(perm) != prefix:
                return False, f"{perm}"
    return True, ""


def check_inversion_distribution(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(cfg.max_n + 2):
        if permstat.inversion_distribution(n) != qpoly.q_factorial(n):
            return False, f"n={n}"
    return True, ""


def check_series_identity(cfg: CheckConfig) -> tuple[bool, str]:
    order = min(8, cfg.max_n + 3)
    if not permstat.series_identity_check(order):
        return False, f"order {order}"
    return True, ""


def _random_poly(rng: random.Random) -> LaurentPoly:
    return LaurentPoly({rng.randint(-5, 8): rng.randint(-9, 9)
                        for _ in range(rng.randint(0, 6))})


def check_ring_axioms(cfg: CheckConfig) -> tuple[bool, str]:
    rng = random.Random(cfg.seed)
    for i in range(1000):
        p, r, s = (_random_poly(rng) for _ in range(3))
        if (p + r) * s != p * s + r * s:
            return False, f"sample {i}"
        if p * r != r * p or (p * r) * s != p * (r * s):
            return False, f"sample {i}"
    return True, ""


def check_eval_morphism(cfg: CheckConfig) -> tuple[bool, str]:
    rng = random.Random(cfg.seed + 1)
    for i in range(400):
        p, r = _random_poly(rng), _random_poly(rng)
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if x == 0:
            x = Fraction(1, 3)
        lhs = (p * r).evaluate(x)
        if lhs != p.evaluate(x) * r.evaluate(x):
            return False, f"sample {i}"
        if (p + r).evaluate(x) != p.evaluate(x) + r.evaluate(x):
            return False, f"sample {i}"
    return True, ""


def check_tree_counts(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(cfg.max_n + 1):
        count = sum(1 for _ in words.enumerate_trees(n))
        if count != comb(2 * n, n) // (n + 1):
            return False, f"n={n}: {count}"
    return True, ""


def check_tree_parts(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        for tree in words.enumerate_trees(n):
            c_a, c_b, p_a, p_b = tree.parts
            if len(c_a) != len(p_b) or len(c_b) != len(p_a):
                return False, f"{tree}"
            if sorted(words.strip_a_run(c) for c in c_a) != sorted(p_b):
                return False, f"{tree}"
            if sorted(words.strip_b_run(c) for c in c_b) != sorted(p_a):
                return False, f"{tree}"
    return True, ""


def check_signature_roundtrip(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        for tree in words.enumerate_trees(n):
            if words.reconstruct(words.signature(tree)) != tree:
                return False, f"{tree}"
    return True, ""


def check_prefix_sum_route(cfg: CheckConfig) -> tuple[bool, str]:
    # partial sums of run lengths = 1-based ranks in P of the leaf parents
    for n in range(1, cfg.max_n + 1):
        for tree in words.enumerate_trees(n):
            st = words.tree_stats(tree)
            rank = {p: i + 1 for i, p in enumerate(tree.prefixes)}
            parents = tuple(rank[c[:-1]] for c in tree.leaves if c.endswith("a"))
            if parents != st.prefix_sums:
                return False, f"{tree}"
    return True, ""


def check_rank_sum(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(cfg.max_n + 1):
        for tree in words.enumerate_trees(n):
            if not words.rank_sum_identity_check(tree):
                return False, f"{tree}"
    return True, ""


def check_rank_bijection(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(cfg.max_n + 1):
        for tree in words.enumerate_trees(n):
            phi = words.rank_identity_bijection(tree)
            st = words.tree_stats(tree)
            c_a, c_b, p_a, p_b = tree.parts
            targets = ({("pair_b", (p, c)) for p in p_b if p for c in c_b if p < c}
                       | {("leaf_b", c) for c in c_b}
                       | {("pair_a", (g, c)) for g in c_a for c in c_a if g < c})
            if len(set(phi.values())) != len(phi) or set(phi.values()) != targets:
                return False, f"{tree}"
            if len(phi) != st.b_cells + len(c_b) + len(c_a) * (len(c_a) - 1) // 2:
                return False, f"{tree}"
    return True, ""


def check_leaf_orders_agree(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(cfg.max_n + 1):
        for tree in words.enumerate_trees(n):
            if tuple(sorted(tree.leaves, key=words.twisted_key)) != tree.leaves:
                return False, f"{tree}"
    return True, ""


def check_order_properties(cfg: CheckConfig) -> tuple[bool, str]:
    bound = min(cfg.max_n, 7)
    if not words.power_separation_check(bound):
        return False, "power separation"
    if not words.class_interval_check(bound):
        return False, "class intervals"
    if not words.twist_order_check(bound):
        return False, "twist comparison"
    if not words.branch_floor_check(min(bound, 6)):
        return False, "branch floor"
    return True, ""


def check_congruence_counts(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        regular = sum(1 for _ in congruence.enumerate_regular(n))
        indec = sum(1 for _ in permstat.enumerate_indecomposables(n + 1))
        if not regular == indec == congruence.hall_count(n):
            return False, f"n={n}: {regular}, {indec}, {congruence.hall_count(n)}"
    return True, ""


def check_congruence_roundtrip(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, min(cfg.max_n, 5) + 1):
        seen = set()
        for rc in congruence.enumerate_regular(n):
            theta = congruence.to_indecomposable(rc)
            if not permstat.is_indecomposable(theta) or theta in seen:
                return False, f"{rc}"
            seen.add(theta)
            if congruence.from_indecomposable(theta) != rc:
                return False, f"{rc}"
        if seen != set(permstat.enumerate_indecomposables(n + 1)):
            return False, f"n={n}: image mismatch"
    return True, ""


def check_congruence_brute_filter(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, min(cfg.max_n, 4) + 1):
        fast = {(rc.tree.leaves, rc.images) for rc in congruence.enumerate_regular(n)}
        slow = set()
        for tree in words.enumerate_trees(n):
            candidates = [[p for p in tree.prefixes if p < c] for c in tree.leaves]
            for images in itertools.product(*candidates):
                rc = congruence.RightCongruence(tree, images)
                if congruence.is_regular(rc):
                    slow.add((tree.leaves, images))
        if fast != slow:
            return False, f"n={n}"
    return True, ""


def check_action_tables(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        for rc in congruence.enumerate_regular(n):
            table = congruence.action_table(rc)
            for row in (table.a_next, table.b_next):
                if sorted(row) != list(range(n)):
                    return False, f"{rc}"
    return True, ""


def check_hook_through_correspondence(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, min(cfg.max_n, 5) + 1):
        for rc in congruence.enumerate_regular(n):
            theta = congruence.to_indecomposable(rc)
            st = words.tree_stats(rc.tree)
            sig = words.signature(rc.tree)
            k = st.a_count
            lr = permstat.lr_maxima(theta)
            if lr.values != tuple(s + 1 for s in st.prefix_sums):
                return False, f"{rc}: maxima values"
            sigma = permstat.strip_lr_maxima(theta)
            expected = (permstat.hook_union_size(sigma) + (n + 1) * k
                        - k * (k - 1) // 2 - sum(sig.ranks) + sum(st.prefix_sums))
            if permstat.hook_union_size(theta) != expected:
                return False, f"{rc}"
    return True, ""


def check_subgroup_generators(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, min(cfg.max_n, 4) + 1):
        for rc in congruence.enumerate_regular(n):
            gens = congruence.subgroup_generators(rc)
            if len(gens) != n + 1:
                return False, f"{rc}"
            for g in gens:
                if congruence.free_reduce(g) != g:
                    return False, f"{rc}: {g}"
                if not congruence.subgroup_contains(rc, g):
                    return False, f"{rc}: {congruence.group_word_str(g)} rejected"
    return True, ""


def check_haglund_routes(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        for parts in haglund.partitions_bounded(n):
            if haglund.haglund_product(parts) != haglund.haglund_hook_sum(parts):
                return False, f"{parts}"
    return True, ""


def check_haglund_recursion(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(2, cfg.max_n + 1):
        for parts in haglund.partitions_bounded(n):
            if any(parts[i] < i + 1 for i in range(n)):
                continue
            peeled = tuple(v - 1 for v in parts[1:])
            expect = ((LaurentPoly.monomial(parts[0]) - 1)
                      * haglund.haglund_product(peeled).shift(n - 1))
            if haglund.haglund_product(parts) != expect:
                return False, f"{parts}"
    return True, ""


def check_haglund_brute(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, min(cfg.max_n, 3) + 1):
        for parts in haglund.partitions_bounded(n):
            for p in cfg.primes:
                if p ** sum(parts) > min(cfg.budget, 1 << 21):
                    continue
                brute = linfq.count_invertible_support(parts, p, cfg.budget)
                if haglund.haglund_product(parts).evaluate(p) != brute:
                    return False, f"{parts} at p={p}"
    return True, ""


def check_haglund_degree(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        for parts in haglund.partitions_bounded(n):
            h = haglund.haglund_product(parts)
            if any(parts[i] < i + 1 for i in range(n)):
                if not h.is_zero:
                    return False, f"{parts}"
                continue
            if h.degree != comb(n, 2) + sum(v - i for i, v in enumerate(parts)):
                return False, f"{parts}"
    return True, ""


def check_census_routes(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        f = ideals.ideal_count_formula(n)
        if f != ideals.ideal_count_hook_formula(n):
            return False, f"n={n}: hook route"
        if f != ideals.ideal_count_by_trees(n).total:
            return False, f"n={n}: tree route"
    return True, ""


def check_census_brute(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, min(cfg.max_n, 3) + 1):
        expected_formula = ideals.ideal_count_formula(n)
        slots = max(max(ideals.letter_slots(t)) for t in words.enumerate_trees(n))
        for p in cfg.primes:
            if p ** slots > min(cfg.budget, 1 << 17):
                continue
            report = ideals.ideal_count_brute_force(n, p, cfg.budget)
            if report.total != expected_formula.evaluate(p):
                return False, f"n={n}, p={p}: {report.total}"
    return True, ""


def check_per_tree_counts(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, min(cfg.max_n, 3) + 1):
        for p in cfg.primes:
            if p > 3:
                continue
            if not ideals.per_tree_action_count_check(n, p, cfg.budget):
                return False, f"n={n}, p={p}"
    return True, ""


def check_cells(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        cd = ideals.cell_decomposition(n)
        if cd.total_poly() != ideals.ideal_count_formula(n):
            return False, f"n={n}"
        if n >= 1 and any(c.affine_dim < 0 for c in cd.cells):
            return False, f"n={n}: negative dimension"
    return True, ""


def check_census_shape(cfg: CheckConfig) -> tuple[bool, str]:
    for n in range(1, cfg.max_n + 1):
        f = ideals.ideal_count_formula(n)
        if f.valuation < 0:
            return False, f"n={n}: not a polynomial"
        if f.degree != (n + 1) * (n - 2) // 2 + (n + 1) + comb(n + 1, 2):
            return False, f"n={n}: degree {f.degree}"
        if f.evaluate(1) != 0:
            return False, f"n={n}: nonzero at q=1"
    return True, ""


SUITES: dict[str, list[tuple[str, Callable]]] = {
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
