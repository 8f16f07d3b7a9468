"""Every entry of the check table that ``idealcensus verify`` runs, at
``--max-n 6 --primes 2``: one prime keeps the brute-force checks quick."""

import itertools
from math import comb

import pytest

from idealcensus import checks
from idealcensus.checks import SUITES, CheckConfig, run_check

ENTRIES = {f"{suite}: {label}": fn for suite, entries in SUITES.items()
           for label, fn in entries}

# the cases each entry yields at CONFIG: a faster check, or a faster walk
# under one, must still check every case
CONFIG = CheckConfig(max_n=6, primes=(2,), seed=0)
CASES = {
    "permstat: inversion polynomials match the frozen table": 8,
    "permstat: hook statistic: grid route = inversion routes": 874,
    "permstat: transpose symmetry of inv and hook": 874,
    "permstat: indecomposability criteria agree": 873,
    "permstat: Lehmer-code DP equals the recursion": 20,
    "permstat: hook statistic strip identity": 874,
    "permstat: unique factorization into indecomposables": 1752,
    "permstat: inversion distribution equals the q-factorial": 8,
    "permstat: factorial series is the indecomposable reciprocal": 9,
    "permstat: polynomial ring axioms on seeded samples": 1000,
    "permstat: evaluation is a ring morphism on seeded samples": 400,
    "words: tree counts are the Catalan numbers": 7,
    "words: leaf/prefix parts match under run stripping": 196,
    "words: signature reconstruction roundtrip": 196,
    "words: prefix sums equal parent ranks": 196,
    "words: rank-sum identity": 197,
    "words: rank identity bijection": 197,
    "words: alphabetical and twisted order agree on leaves": 197,
    "words: exhaustive order properties": 19420,
    "congruence: regular count = subgroup recursion = indecomposables": 6,
    "congruence: correspondence is a roundtrip bijection": 554,
    "congruence: enumeration matches the brute-force filter": 4,
    "congruence: letter actions of regular congruences permute": 3996,
    "congruence: hook statistic through the correspondence": 549,
    "congruence: subgroup generators reduced and accepted": 88,
    "haglund: product formula equals hook sum": 1274,
    "haglund: product formula peels one row": 196,
    "haglund: brute-force matrix counts at the primes": 28,
    "haglund: degree and vanishing criteria": 1274,
    "ideals: formula = hook formula = tree sum": 24,
    "ideals: brute-force census at the primes": 3,
    "ideals: per-tree action counts factor as predicted": 8,
    "ideals: census degree, polynomiality, vanishing at q=1": 6,
}


def test_table_shape():
    assert list(SUITES) == ["permstat", "words", "congruence", "haglund", "ideals"]
    assert len(ENTRIES) == 33
    assert list(CASES) == list(ENTRIES)


@pytest.mark.parametrize("label", ENTRIES)
def test_check(label):
    ok, detail, cases, _ = run_check(ENTRIES[label], CONFIG)
    assert ok, detail
    assert cases == CASES[label]


def test_checks_charge_the_configured_budget():
    # 3! permutations of the hook route at n = 2 exceed a budget of 5
    ok, detail, _, _ = run_check(checks.check_census_routes, CheckConfig(max_n=2, budget=5))
    assert not ok
    assert "TooLarge" in detail


def test_formula_route_charges_the_configured_budget():
    # the frozen table's 4! = 24 permutations fit a budget of 30, but the
    # recursion up to P_4 costs recursion_cost(4) = 37 products
    for fn, cfg in ((checks.check_census_shape, CheckConfig(max_n=2, budget=1)),
                    (checks.check_frozen_polynomials, CheckConfig(max_n=1, budget=30))):
        ok, detail, _, _ = run_check(fn, cfg)
        assert not ok
        assert detail.startswith("raised TooLarge")


def test_per_tree_witness_case_count():
    # one case per tree with at most 3 internal nodes, per prime p <= 3
    for primes, cases in (((2, 3), 16), ((2,), 8)):
        ok, _, made, _ = run_check(checks.check_per_tree_counts,
                                   CheckConfig(max_n=3, primes=primes))
        assert ok and made == cases


@pytest.mark.parametrize("label", [
    "permstat: inversion polynomials match the frozen table",
    "permstat: factorial series is the indecomposable reciprocal"])
def test_permutation_walks_charge_the_configured_budget(label):
    # both walk past S_3, whose 3! permutations already fill a budget of 6
    ok, detail, _, _ = run_check(ENTRIES[label], CheckConfig(max_n=2, budget=6))
    assert not ok
    assert "TooLarge" in detail


def test_per_tree_witness_is_charged_per_letter():
    # at n <= 3 a letter has at most 9 slots, a tree at most 12 in all
    cfg = CheckConfig(max_n=3, primes=(2,), budget=2 ** 9)
    assert run_check(checks.check_per_tree_counts, cfg)[:3] == (True, "runs at p <= 3 only", 8)
    ok, detail, _, _ = run_check(checks.check_per_tree_counts,
                                 CheckConfig(max_n=3, primes=(2,), budget=2 ** 9 - 1))
    assert not ok and detail.startswith("raised TooLarge")


def test_per_tree_witness_walks_the_reference_stream(monkeypatch):
    # each letter's stream, short of its last matrix: the walked count is
    # one short wherever that matrix is invertible, as on the edge tree
    real = checks.linfq.enumerate_matrices
    monkeypatch.setattr(checks.linfq, "enumerate_matrices",
                        lambda rows, p, budget: list(real(rows, p, budget))[:-1])
    ok, detail, _, _ = run_check(checks.check_per_tree_counts,
                                 CheckConfig(max_n=1, primes=(2,)))
    assert not ok
    assert detail == "{a, b} at p=2"


def test_hook_routes_need_the_inversion_count(monkeypatch):
    # wrong, but the grid route and the statistic route agree
    monkeypatch.setattr(checks.permstat, "inversions", lambda s: 0)
    monkeypatch.setattr(checks.permstat, "hook_union_size", lambda s: comb(len(s), 2))
    ok, detail, _, _ = run_check(checks.check_hook_routes, CheckConfig(max_n=3))
    assert not ok
    assert detail == "(2, 1)"


def test_tree_route_entries_need_the_word_level_order(monkeypatch):
    # the same records in reverse: the total holds, the entries do not
    real = checks.ideals.tree_records
    monkeypatch.setattr(checks.ideals, "tree_records", lambda n: reversed(list(real(n))))
    ok, detail, _, _ = run_check(checks.check_census_routes, CheckConfig(max_n=3))
    assert not ok
    assert detail == "n=2: tree route entries"


def test_tree_route_total_needs_every_tree_key(monkeypatch):
    # a key DP that loses a key: the total and length no longer match the walk
    real = checks.ideals.tree_keys
    monkeypatch.setattr(checks.ideals, "tree_keys", lambda n: dict(list(real(n).items())[1:]))
    ok, detail, _, _ = run_check(checks.check_census_routes, CheckConfig(max_n=3))
    assert not ok
    assert detail == "n=1: tree route entries add up to the total"


def test_subgroup_generators_need_their_printed_text(monkeypatch):
    # generators that hold but print as the empty word
    monkeypatch.setattr(checks.congruence, "group_word_str", lambda word: "1")
    ok, _, _, _ = run_check(checks.check_subgroup_generators, CheckConfig(max_n=2))
    assert not ok


@pytest.mark.parametrize("row", ["a_next", "b_next"])
def test_action_tables_fail_on_a_row_that_is_not_a_permutation(monkeypatch, row):
    # the tenth congruence (a tree with three states) gets a repeated state
    real, seen = checks.congruence.action_table, []

    def action_table(rc):
        seen.append(rc)
        table = real(rc)
        if len(seen) != 10:
            return table
        return table._replace(**{row: (0,) * len(getattr(table, row))})

    monkeypatch.setattr(checks.congruence, "action_table", action_table)
    ok, detail, cases, _ = run_check(checks.check_action_tables, CheckConfig(max_n=3))
    assert not ok
    assert (cases, detail) == (10, str(seen[9]))
    assert seen[9].tree.n == 3


def per_pair_power_separation(max_len):
    """``checks.power_separation`` as first written: both extremes are
    taken anew for every pair."""
    a_runs = ["a" * i for i in range(max_len + 1)]
    b_runs = ["b" * j for j in range(1, max_len + 1)]
    ws = sorted(checks.words.all_words(max_len))
    for p, q in itertools.combinations_with_replacement(ws, 2):
        yield (p, q), max(p + x for x in a_runs) < min(q + y for y in b_runs)


def test_power_separation_matches_the_per_pair_reference():
    got = list(checks.power_separation(5))
    assert got == list(per_pair_power_separation(5))
    assert len(got) == 63 * 64 // 2
    assert all(ok for _, ok in got)
