"""Workloads, jobs and the independent answer checks of the benchmark.

Every job calls the package from outside: CLI jobs go through
``idealcensus.cli.main(argv)`` in-process with stdout captured, library
jobs call a public route function.  Names are looked up at call time, so
a traced run sees the wrappers that ``spans.install`` put in place.

The checks never reuse the route under test.  The census reference comes
from the inverse-series recursion
P_m = [m]_q! - sum_{k<m} P_k [m-k]_q!, which enumerates nothing; the
staircase reference is Haglund's product.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from idealcensus import cli, haglund, ideals, linfq, qpoly  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def census_reference(n: int) -> tuple[qpoly.LaurentPoly, qpoly.LaurentPoly]:
    """(P_{n+1}, census polynomial of codimension n) from the recursion."""
    m = n + 1
    fact = [qpoly.q_factorial(i) for i in range(m + 1)]
    p = [qpoly.ZERO]
    for j in range(1, m + 1):
        p.append(fact[j] - sum((p[k] * fact[j - k] for k in range(1, j)), qpoly.ZERO))
    census = ((qpoly.Q - qpoly.ONE) ** m) * p[m].shift(m * (n - 2) // 2)
    return p[m], census


@dataclass(frozen=True)
class Job:
    """One timed call and the check of its answer.

    ``run`` returns the raw answer, ``(exit code, stdout)`` for a CLI job;
    ``check`` returns None when the answer is right, otherwise a one-line
    reason.  ``entry`` is the (module, function) the job calls, which a
    traced run wraps as the job's first span.
    """

    name: str
    describe: str
    entry: tuple[str, str]
    run: Callable[[], object]
    check: Callable[[object], str | None]

    @property
    def is_cli(self) -> bool:
        return self.entry == ("cli", "main")


def _cli_job(name: str, argv: list[str], check) -> Job:
    return Job(name, " ".join(argv), ("cli", "main"), lambda: run_cli(argv), check)


def _formula_job(n: int) -> Job:
    core, census = census_reference(n)
    e = (n + 1) * (n - 2) // 2
    shift = f" * q^{e}" if e else ""
    expected = (f"codim {n} census, formula route\n"
                f"factored: (q-1)^{n + 1}{shift} * ({core})\n"
                f"expanded: {census}\n")

    def check(answer) -> str | None:
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        return None if out == expected else "output differs from the recursion"

    return _cli_job("formula", ["count", "--codim", str(n), "--no-header"], check)


def _structural_job(n: int) -> Job:
    _, census = census_reference(n)

    def check(report) -> str | None:
        if report.total != census:
            return "total differs from the recursion"
        if len(report.entries) != catalan(n):
            return f"{len(report.entries)} trees, expected Catalan({n})"
        return None

    return Job("structural", f"ideals.ideal_count_by_trees({n})",
               ("ideals", "ideal_count_by_trees"),
               lambda: ideals.ideal_count_by_trees(n), check)


def _bruteforce_job(n: int, p: int) -> Job:
    _, census = census_reference(n)
    total = census.evaluate(p)

    def check(answer) -> str | None:
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if lines[:2] != [f"codim {n} census at q={p}, bruteforce route", f"total: {total}"]:
            return "total differs from the recursion"
        trees = sum(1 for line in lines if line.startswith("tree "))
        if trees != catalan(n):
            return f"{trees} trees, expected Catalan({n})"
        if lines[-1] != "cross-check: all routes agree":
            return "cross-check line missing"
        return None

    argv = ["count", "--codim", str(n), "--q", str(p), "--method", "bruteforce",
            "--cross-check", "--no-header"]
    return _cli_job("bruteforce", argv, check)


def _staircase_job(parts: tuple[int, ...], p: int) -> Job:
    expected = haglund.haglund_product(parts).evaluate(p)

    def check(count) -> str | None:
        return None if count == expected else f"{count} != Haglund product {expected}"

    return Job("staircase", f"linfq.count_invertible_support({parts}, {p})",
               ("linfq", "count_invertible_support"),
               lambda: linfq.count_invertible_support(parts, p), check)


_CHECK_TIME = re.compile(r" \(\d+\.\d+s\)")


def without_timings(answer):
    """The answer with verify's per-check wall times blanked, so two runs
    of a job can be compared byte for byte."""
    if isinstance(answer, tuple):
        code, out = answer
        return code, _CHECK_TIME.sub(" (-s)", out)
    return answer


def verify_lines(out: str) -> int:
    """Number of check result lines ('[ ok ] ...', '[FAIL] ...') printed."""
    return sum(1 for line in out.splitlines() if line.startswith("[") and "] " in line)


def _verify_job(max_n: int, seed: int) -> Job:
    argv = ["verify", "--suite", "all", "--max-n", str(max_n), "--seed", str(seed)]

    def check(answer) -> str | None:
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        if "FAIL" in out:
            return "a FAIL line was printed"
        return None if verify_lines(out) else "no check ran"

    return _cli_job("verify", argv, check)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    make_jobs: Callable[[int], list[Job]]


WORKLOADS = {
    w.name: w for w in (
        Workload("poly",
                 "census as a polynomial in q: permutation, tree, Haglund and qpoly "
                 "layers do the work and the F_p rank tests do none; no random input",
                 False,
                 lambda seed: [_formula_job(8), _structural_job(10)]),
        Workload("fp",
                 "census over a prime field: odometers in ideals and linfq make "
                 "3.29M rank tests and build few polynomials; no random input",
                 False,
                 lambda seed: [_bruteforce_job(3, 3), _staircase_job((3, 3, 3), 5)]),
        Workload("verify",
                 "33 checks at n <= 7 over every module, many small objects; the only "
                 "workload where congruence and the CLI check runner work",
                 True,
                 lambda seed: [_verify_job(7, seed)]),
    )
}

# Which end-to-end time each layer's metrics should move, and where.
PREDICTIONS = [
    {"layer": "permstat", "metrics": ["permstat.perms", "permstat.self_s"],
     "moves": ["formula_s", "verify_s"], "on": ["poly", "verify"], "none_on": ["fp"]},
    {"layer": "words", "metrics": ["words.trees", "words.tree_stats_per_tree",
                                   "words.self_s"],
     "moves": ["structural_s"], "on": ["poly"], "none_on": ["fp"]},
    {"layer": "qpoly", "metrics": ["qpoly.constructs", "qpoly.self_s"],
     "moves": ["structural_s", "verify_s"], "on": ["poly", "verify"], "none_on": ["fp"]},
    {"layer": "haglund", "metrics": ["haglund.product_calls", "haglund.distinct_ratio",
                                     "haglund.self_s"],
     "moves": ["structural_s"], "on": ["poly"], "none_on": ["fp"]},
    {"layer": "linfq", "metrics": ["linfq.rank_tests", "linfq.full_rank_ratio",
                                   "linfq.self_s"],
     "moves": ["bruteforce_s", "staircase_s", "verify_s"], "on": ["fp", "verify"],
     "none_on": ["poly"]},
    {"layer": "congruence", "metrics": ["congruence.regularity_tests",
                                        "congruence.regular_ratio", "congruence.self_s"],
     "moves": ["verify_s"], "on": ["verify"], "none_on": ["poly", "fp"]},
    {"layer": "ideals", "metrics": ["ideals.self_s"],
     "moves": ["structural_s", "bruteforce_s"], "on": ["poly", "fp"], "none_on": []},
    {"layer": "cli", "metrics": ["cli.checks", "cli.self_s"],
     "moves": ["formula_s", "verify_s"], "on": ["poly", "verify"], "none_on": []},
]
