"""The one table of cross-checks, run by ``idealcensus verify`` and by
``tests/test_checks.py``.  A check is a generator ``fn(cfg)`` that
compares independent routes case by case up to ``cfg.max_n`` and yields
one ``(case, ok)`` per case it checked; ``run_check`` walks it, counts
the cases and names the first case that fails.  A check that yields no
case checked nothing, and ``verify`` prints it as skipped, with the
reason the check returns: a check that runs only at some bounds or
primes ends with ``return "why"``.

Check predicates live only here.  Those the tests also run, at their
own bounds, take explicit bounds instead of a config
(``hook_strip_identity``, ``per_tree_action_counts``, ...); like every
check they yield per case, so a failure names its permutation, t-order,
tree, word pair or tree and prime.  Library functions are looked up as
``module.name`` at call time, so a rebinding of them reaches the checks.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from math import comb, factorial
from typing import Callable, Iterator, NamedTuple

from . import congruence, haglund, ideals, linfq, permstat, qpoly, words
from .linfq import DEFAULT_BUDGET
from .qpoly import ONE, LaurentPoly, TruncatedSeries

Cases = Iterator[tuple[object, bool]]  # one (case, ok) per case checked
Check = Callable[["CheckConfig"], Cases]


class CheckConfig(NamedTuple):
    max_n: int = 5
    primes: tuple[int, ...] = (2, 3)
    seed: int = 0
    budget: int = DEFAULT_BUDGET


def run_check(fn: Check, cfg: CheckConfig) -> tuple[bool, str, int, float]:
    """(ok, detail, cases, seconds): the walk stops at the first case that
    fails, and detail names it; a check that runs to its end has the
    value it returns, if any, as detail.  A check that raises is a
    failure, not an abort."""
    start = time.perf_counter()
    ok, detail, cases = True, "", 0
    try:
        walk = fn(cfg)
        while True:
            case, ok = next(walk)
            cases += 1
            if not ok:
                detail = str(case)
                break
    except StopIteration as stop:
        detail = stop.value or ""
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


def regular(lo: int, hi: int, budget: int) -> Iterator[congruence.RightCongruence]:
    for n in range(lo, hi + 1):
        yield from congruence.enumerate_regular(n, budget)


def partitions(lo: int, hi: int) -> Iterator[haglund.Partition]:
    for n in range(lo, hi + 1):
        yield from haglund.partitions_bounded(n)


def check_frozen_polynomials(cfg: CheckConfig) -> Cases:
    table = {1: LaurentPoly({0: 1}), 2: LaurentPoly({1: 1}),
             3: LaurentPoly({3: 1, 2: 2}), 4: LaurentPoly({6: 1, 5: 3, 4: 5, 3: 4})}
    linfq.charge(len(table), factorial, cfg.budget, f"{len(table)}! permutations")
    recursion = permstat.indec_inversion_polynomials(len(table), cfg.budget)
    for m, expect in table.items():
        got = permstat.indec_inversion_polynomial(m)
        yield f"m={m}: {got}", got == expect
        yield f"m={m}: recursion gives {recursion[m - 1]}", recursion[m - 1] == expect


def check_hook_routes(cfg: CheckConfig) -> Cases:
    """The grid route against the inversion statistic, counted by
    ``inversions`` and, by its definition, pair by pair."""
    for s in perms(0, cfg.max_n):
        n = len(s)
        pairs = sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
        yield s, (permstat.hook_union_size(s) == permstat.hook_number(s)
                  == permstat.inversions(s) + comb(n, 2) == pairs + comb(n, 2))


def check_transpose_symmetry(cfg: CheckConfig) -> Cases:
    for s in perms(0, cfg.max_n):
        t = permstat.inverse(s)
        yield s, (permstat.inversions(s) == permstat.inversions(t)
                  and permstat.hook_union_size(s) == permstat.hook_union_size(t))


def lehmer_indecomposable(s: permstat.Perm) -> bool:
    """max_{i<=k}(c_i + i) > k for every k < n, where c is the Lehmer
    code of s: c_i counts the values after position i below s(i)."""
    reach = 0
    for k, u in enumerate(s[:-1], 1):
        c = len([v for v in s[k:] if v < u])
        if c + k > reach:
            reach = c + k
        if reach == k:
            return False
    return True


def check_indec_criteria(cfg: CheckConfig) -> Cases:
    for s in perms(1, cfg.max_n):
        yield s, (permstat.is_indecomposable(s) == permstat.is_indecomposable_lr(s)
                  == lehmer_indecomposable(s))


def check_lehmer_dp(cfg: CheckConfig) -> Cases:
    """The Lehmer-code DP, as ``export --object indec-polys`` runs it,
    against the inverse-series recursion, which shares nothing with it,
    for every m <= 20."""
    recursion = permstat.indec_inversion_polynomials(20, cfg.budget)
    dp = permstat.lehmer_indec_polynomials(20, cfg.budget)
    for m, (got, expect) in enumerate(zip(dp, recursion), start=1):
        yield f"m={m}", got == expect


def hook_strip_identity(lo: int, hi: int) -> Cases:
    """Hook statistic of each t of size lo..hi against the stripped
    permutation: p(t) = p(sigma) + k*n - k(k+1)/2 + sum(values - positions)."""
    for t in perms(lo, hi):
        lr = permstat.lr_maxima(t)
        k = lr.count
        expected = (permstat.hook_union_size(permstat.strip_lr_maxima(t))
                    + k * len(t) - k * (k + 1) // 2
                    + sum(j - i for i, j in zip(lr.positions, lr.values)))
        yield t, permstat.hook_union_size(t) == expected


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


def series_identity(order: int, budget: int = DEFAULT_BUDGET) -> Cases:
    """The q-factorial series is the reciprocal of 1 - sum of the
    indecomposable inversion polynomials, coefficient by coefficient up
    to t**order.  The left side is the closed q-factorials, the right
    side enumerates, so agreement is a genuine cross-check; the budget
    bounds its largest walk, the order! permutations."""
    linfq.charge(order, factorial, budget, f"{order}! permutations")
    body = [ONE] + [-permstat.indec_inversion_polynomial(m) for m in range(1, order + 1)]
    rhs = TruncatedSeries(order, body).invert()
    for k in range(order + 1):
        yield f"t-order {k}", rhs.coefficient(k) == qpoly.q_factorial(k)


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
    from fractions import Fraction

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
                     and sum(words.signature(tree).lengths) == tree.n
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
        yield tree, parents == tuple(itertools.accumulate(words.signature(tree).lengths))


def rank_sum_identity(lo: int, hi: int) -> Cases:
    """b_cells plus the rank sum is determined by n and k alone, for every
    tree with lo..hi internal nodes; the one-leaf tree's 'a'-part is read
    as {1} with rank 1."""
    for tree in trees(lo, hi):
        n = tree.n
        if n == 0:
            k, rank_sum, b_cells = 1, 1, 0
        else:
            ranks = words.signature(tree).ranks
            k, rank_sum, b_cells = len(ranks), sum(ranks), words.tree_stats(tree).b_cells
        yield tree, b_cells + rank_sum == (n + 1) * (k - 1) + k - k * (k - 1) // 2


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


def power_separation(max_len: int) -> Cases:
    """p <= q forces p·a^i < q·b^j for every i >= 0, j >= 1, one case per
    word pair (p, q) of length at most max_len, with i, j <= max_len.
    In a total order every p·a^i is below every q·b^j exactly when the
    largest of the first is below the smallest of the second; each
    word's two extremes are taken once, not once per pair."""
    a_runs = ["a" * i for i in range(max_len + 1)]
    b_runs = ["b" * j for j in range(1, max_len + 1)]
    extremes = [(w, max(w + x for x in a_runs), min(w + y for y in b_runs))
                for w in sorted(words.all_words(max_len))]
    for (p, high, _), (q, _, low) in itertools.combinations_with_replacement(extremes, 2):
        yield (p, q), high < low


def class_intervals(max_len: int) -> Cases:
    """Each class w·a* is an interval of the sorted words of length at
    most max_len: no class starts two runs."""
    seen: set[str] = set()
    for rep, _ in itertools.groupby(sorted(words.all_words(max_len)), key=words.strip_a_run):
        yield f"class {words.word_str(rep)}·a*", rep not in seen
        seen.add(rep)


def twist_order(max_len: int) -> Cases:
    """Twisted versus alphabetical comparison, one case per word pair.
    Same class: the two orders are opposite.  Different classes: they
    agree and depend only on the class representatives.  Words ending in
    'a': stripping the 'a'-run is monotone up to classes."""
    ws = list(words.all_words(max_len))
    for u, v in itertools.combinations(ws, 2):
        ru, rv = words.strip_a_run(u), words.strip_a_run(v)
        alph = words.alph_compare(u, v)
        twist = words.twisted_compare(u, v)
        if ru == rv:
            yield (u, v), twist == -alph
        else:
            yield (u, v), twist == alph == words.alph_compare(ru, rv)
    for u, v in itertools.combinations(sorted(w for w in ws if w.endswith("a")), 2):
        ru, rv = words.strip_a_run(u), words.strip_a_run(v)
        yield (u, v), ru == rv or (ru < rv and words.twisted_compare(ru, rv) < 0)


def branch_floor(max_n: int) -> Cases:
    """For every tree with 1..max_n internal nodes and every leaf c, with
    c' the largest 'a'-ending leaf at most c: every leaf d <= c has
    stripped form at most the stripped form of c' in the twisted order."""
    for tree in trees(1, max_n):
        a_leaves = [c for c in tree.leaves if c.endswith("a")]
        for c in tree.leaves:
            floor = [x for x in a_leaves if x <= c]
            ok = bool(floor)
            if ok:
                bound = words.twisted_key(words.strip_last_run(max(floor)))
                ok = all(words.twisted_key(words.strip_last_run(d)) <= bound
                         for d in tree.leaves if d <= c)
            yield f"{tree} at leaf {c}", ok


def check_order_properties(cfg: CheckConfig) -> Cases:
    bound = min(cfg.max_n, 7)
    yield from power_separation(bound)
    yield from class_intervals(bound)
    yield from twist_order(bound)
    yield from branch_floor(min(bound, 6))


def check_congruence_counts(cfg: CheckConfig) -> Cases:
    for n in range(1, cfg.max_n + 1):
        count = sum(1 for _ in congruence.enumerate_regular(n, cfg.budget))
        indec = sum(1 for _ in permstat.enumerate_indecomposables(n + 1))
        hall = congruence.hall_count(n)
        yield f"n={n}: {count}, {indec}, {hall}", count == indec == hall


def check_congruence_roundtrip(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 5) + 1):
        seen = set()
        for rc in congruence.enumerate_regular(n, cfg.budget):
            theta = congruence.to_indecomposable(rc)
            yield rc, (permstat.is_indecomposable(theta) and theta not in seen
                       and congruence.from_indecomposable(theta) == rc)
            seen.add(theta)
        yield f"n={n}: image mismatch", seen == set(permstat.enumerate_indecomposables(n + 1))


def check_congruence_brute_filter(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 4) + 1):
        fast = {(rc.tree.leaves, rc.images)
                for rc in congruence.enumerate_regular(n, cfg.budget)}
        slow = set()
        for tree in words.enumerate_trees(n):
            candidates = [[p for p in tree.prefixes if p < c] for c in tree.leaves]
            for images in itertools.product(*candidates):
                if congruence.is_regular(congruence.RightCongruence(tree, images)):
                    slow.add((tree.leaves, images))
        yield f"n={n}", fast == slow


def check_action_tables(cfg: CheckConfig) -> Cases:
    # enumerate_regular builds its congruences without validating them:
    # each image must be a class representative below its leaf, and both
    # letter actions must permute the classes; the congruences come in
    # runs of one tree, so the tree's constants are built once per run
    tree = None
    for rc in regular(1, cfg.max_n, cfg.budget):
        if rc.tree is not tree:
            tree = rc.tree
            prefixes = set(tree.prefixes)
            states = list(range(tree.n))
        table = congruence.action_table(rc)
        yield rc, (all(p in prefixes and p < c for c, p in zip(tree.leaves, rc.images))
                   and sorted(table.a_next) == states and sorted(table.b_next) == states)


def check_hook_through_correspondence(cfg: CheckConfig) -> Cases:
    for rc in regular(1, min(cfg.max_n, 5), cfg.budget):
        theta = congruence.to_indecomposable(rc)
        sig = words.signature(rc.tree)
        sums = tuple(itertools.accumulate(sig.lengths))
        k = len(sig.ranks)
        sigma = permstat.strip_lr_maxima(theta)
        expected = (permstat.hook_union_size(sigma) + (rc.tree.n + 1) * k
                    - k * (k - 1) // 2 - sum(sig.ranks) + sum(sums))
        yield rc, (permstat.lr_maxima(theta).values == tuple(s + 1 for s in sums)
                   and permstat.hook_union_size(theta) == expected)


def check_subgroup_generators(cfg: CheckConfig) -> Cases:
    # each generator also reads back from the text that export prints
    for rc in regular(1, min(cfg.max_n, 4), cfg.budget):
        gens = congruence.subgroup_generators(rc)
        yield rc, len(gens) == rc.tree.n + 1 and all(
            congruence.free_reduce(g) == g and congruence.subgroup_contains(rc, g)
            and congruence.parse_group_word(congruence.group_word_str(g)) == g
            for g in gens)


def _vanishes(parts: haglund.Partition) -> bool:
    return any(v < i + 1 for i, v in enumerate(parts))


def check_haglund_routes(cfg: CheckConfig) -> Cases:
    for parts in partitions(1, cfg.max_n):
        yield parts, haglund.haglund_product(parts) == haglund.haglund_hook_sum(parts)


def check_haglund_recursion(cfg: CheckConfig) -> Cases:
    for parts in partitions(1, cfg.max_n):
        if _vanishes(parts):
            continue
        peeled = tuple(v - 1 for v in parts[1:])
        expect = ((LaurentPoly.monomial(parts[0]) - 1)
                  * haglund.haglund_product(peeled).shift(len(parts) - 1))
        yield parts, haglund.haglund_product(parts) == expect


def check_haglund_brute(cfg: CheckConfig) -> Cases:
    for parts in partitions(1, min(cfg.max_n, 3)):
        for p in cfg.primes:
            if p ** sum(parts) > min(cfg.budget, 1 << 21) or p ** len(parts) > cfg.budget:
                continue
            brute = linfq.count_invertible_support(parts, p, cfg.budget)
            yield f"{parts} at p={p}", haglund.haglund_product(parts).evaluate(p) == brute
    return "runs where p**cells <= min(budget, 2**21) and p**n <= budget"


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
        results = {route: route.run(n, None, cfg.budget)
                   for route in ideals.ROUTES.values() if not route.needs_q}
        for route, mismatch in ideals.cross_check(results, None):
            yield f"n={n}: {mismatch or route.label}", mismatch is None
            if route.per_tree:
                # the entries are composed from root splits; the words witness them
                yield f"n={n}: tree route entries", list(results[route].entries) == [
                    ideals.word_entry(t, ideals.tree_contribution(t))
                    for t in words.enumerate_trees(n)]


def check_census_brute(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 3) + 1):
        expected = ideals.ideal_count_formula(n, cfg.budget)
        for p in cfg.primes:
            # the widest letter has n*n slots (``ideals.ideal_count_brute_force``)
            if p ** (n * n) > min(cfg.budget, 1 << 17):
                continue
            total = ideals.ideal_count_brute_force(n, p, cfg.budget).total
            yield f"n={n}, p={p}: {total}", total == expected.evaluate(p)
    return "runs where p**slots <= min(budget, 2**17)"


def per_tree_action_counts(n: int, p: int, budget: int = DEFAULT_BUDGET) -> Cases:
    """For every tree with n internal nodes: letter a's action over F_p
    is invertible for exactly (p-1)^k * p^(a_cells) assignments of its
    slots, and letter b's for exactly p^(b_cells) * staircase(p), both by
    the row search and by filtering every matrix of the letter's row
    family.  Each slot is one cell of one letter's matrix, so the tree's
    assignments with both actions invertible are the product."""
    for tree in words.enumerate_trees(n):
        st = words.tree_stats(tree)
        expect_a = (p - 1) ** st.a_count * p ** st.a_cells
        expect_b = p ** st.b_cells * haglund.haglund_product(st.partition).evaluate(p)
        rows = ideals.action_rows(tree)
        walk_a, walk_b = (sum(map(linfq.is_invertible,
                                  linfq.enumerate_matrices(rows[x], p, budget)))
                          for x in "ab")
        yield f"{tree} at p={p}", (
            ideals.count_invertible_a_actions(tree, p, budget) == walk_a == expect_a
            and ideals.count_invertible_b_actions(tree, p, budget) == walk_b == expect_b)


def check_per_tree_counts(cfg: CheckConfig) -> Cases:
    for n in range(1, min(cfg.max_n, 3) + 1):
        for p in cfg.primes:
            if p <= 3:
                yield from per_tree_action_counts(n, p, cfg.budget)
    return "runs at p <= 3 only"


def check_census_shape(cfg: CheckConfig) -> Cases:
    """The formula's degree, its value 0 at q = 1, and valuation >= 0.
    The last also gives every cell of ``ideals.cell_decomposition``
    d >= 0: Laurent polynomials over Z have val(f*g) = val f + val g and
    val((q-1)^(n+1)) = 0, so the cells' point count has valuation min d,
    and the census routes check that it equals the formula."""
    for n in range(1, cfg.max_n + 1):
        f = ideals.ideal_count_formula(n, cfg.budget)
        yield f"n={n}", (f.valuation >= 0
                         and f.degree == (n + 1) * (n - 2) // 2 + (n + 1) + comb(n + 1, 2)
                         and f.evaluate(1) == 0)


SUITES: dict[str, list[tuple[str, Check]]] = {
    "permstat": [
        ("inversion polynomials match the frozen table", check_frozen_polynomials),
        ("hook statistic: grid route = inversion routes", check_hook_routes),
        ("transpose symmetry of inv and hook", check_transpose_symmetry),
        ("indecomposability criteria agree", check_indec_criteria),
        ("Lehmer-code DP equals the recursion", check_lehmer_dp),
        ("hook statistic strip identity", lambda cfg: hook_strip_identity(0, cfg.max_n)),
        ("unique factorization into indecomposables", check_factorization),
        ("inversion distribution equals the q-factorial", check_inversion_distribution),
        ("factorial series is the indecomposable reciprocal",
         lambda cfg: series_identity(min(8, cfg.max_n + 3), cfg.budget)),
        ("polynomial ring axioms on seeded samples", check_ring_axioms),
        ("evaluation is a ring morphism on seeded samples", check_eval_morphism),
    ],
    "words": [
        ("tree counts are the Catalan numbers", check_tree_counts),
        ("leaf/prefix parts match under run stripping", check_tree_parts),
        ("signature reconstruction roundtrip", check_signature_roundtrip),
        ("prefix sums equal parent ranks", check_prefix_sum_route),
        ("rank-sum identity", lambda cfg: rank_sum_identity(0, cfg.max_n)),
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
        ("census degree, polynomiality, vanishing at q=1", check_census_shape),
    ],
}
