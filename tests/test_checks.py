"""Every entry of the check table that ``idealcensus verify`` runs, at
``--max-n 6 --primes 2``: one prime keeps the brute-force checks quick."""

from math import comb

import pytest

from idealcensus import checks
from idealcensus.checks import SUITES, CheckConfig, run_check

ENTRIES = {f"{suite}: {label}": fn for suite, entries in SUITES.items()
           for label, fn in entries}


def test_table_shape():
    assert list(SUITES) == ["permstat", "words", "congruence", "haglund", "ideals"]
    assert len(ENTRIES) == 33


@pytest.mark.parametrize("label", ENTRIES)
def test_check(label):
    ok, detail, cases, _ = run_check(ENTRIES[label], CheckConfig(max_n=6, primes=(2,), seed=0))
    assert ok, detail
    assert cases > 0


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


def test_subgroup_generators_need_their_printed_text(monkeypatch):
    # generators that hold but print as the empty word
    monkeypatch.setattr(checks.congruence, "group_word_str", lambda word: "1")
    ok, _, _, _ = run_check(checks.check_subgroup_generators, CheckConfig(max_n=2))
    assert not ok
