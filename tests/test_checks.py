"""Every entry of the check table that ``idealcensus verify`` runs, at
``--max-n 6 --primes 2``: one prime keeps the brute-force checks quick."""

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
