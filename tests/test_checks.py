"""Every entry of the check table that ``idealcensus verify`` runs, at
``--max-n 6 --primes 2``: one prime keeps the brute-force checks quick."""

import pytest

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
