"""Self-test of the benchmark's instrumentation.

    python3 -m pytest perfbench

The counters are checked against mathematics (Catalan numbers,
factorials, Hall's recursion) by driving the public enumerators
directly, never against how many items a census route visits today.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from math import factorial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402  (puts src/ on sys.path)
import run  # noqa: E402
import spans  # noqa: E402
from idealcensus import congruence, haglund, ideals, linfq, permstat, qpoly, words  # noqa: E402


@pytest.fixture
def tracer():
    t = spans.Tracer()
    inst = spans.install(t, extra=(("cli", "main"),))
    try:
        yield t
    finally:
        inst.restore()


@pytest.mark.parametrize("n", range(0, 8))
def test_trees_counted_are_catalan(tracer, n):
    assert len(list(words.enumerate_trees(n))) == jobs.catalan(n)
    assert tracer.counters["words.enumerate_trees.items"] == jobs.catalan(n)


@pytest.mark.parametrize("n", range(0, 8))
def test_permutations_counted_are_factorial(tracer, n):
    assert len(list(permstat.enumerate_permutations(n))) == factorial(n)
    assert tracer.counters["permstat.enumerate_permutations.items"] == factorial(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_regular_congruences_counted_are_hall(tracer, n):
    assert len(list(congruence.enumerate_regular(n))) == congruence.hall_count(n)
    assert tracer.counters["congruence.enumerate_regular.items"] == congruence.hall_count(n)


def test_call_counters_and_ratios(tracer):
    parts = [(1, 2), (2, 2), (1, 2), (0, 2)]
    for p in parts:
        haglund.haglund_product(p)
    assert tracer.counters["haglund.product_calls"] == len(parts)
    assert len(tracer.distinct["haglund.product_calls"]) == len(set(parts))
    rank_before = tracer.counters["linfq.rank_tests"]
    assert linfq.is_invertible(linfq.FqMatrix.identity(3, 5))
    assert not linfq.is_invertible(linfq.FqMatrix.zero(3, 5))
    assert tracer.counters["linfq.rank_tests"] - rank_before == 2
    assert tracer.counters["linfq.full_rank"] == 1
    built = tracer.counters["qpoly.constructs"]
    qpoly.LaurentPoly({0: 1, 2: 3})
    assert tracer.counters["qpoly.constructs"] == built + 1


def test_from_imports_are_wrapped_too(tracer):
    # ideals and haglund bound these names with `from .x import f`.
    assert ideals.tree_stats is words.tree_stats
    assert ideals._full_rank is linfq._full_rank
    assert haglund.count_invertible_support is linfq.count_invertible_support
    assert ideals.tree_stats.__wrapped__ is not None


def test_restore_puts_every_binding_back():
    before = {m.__name__: dict(vars(m)) for m in (ideals, linfq, words, permstat)}
    init = qpoly.LaurentPoly.__dict__["__init__"]
    inst = spans.install(spans.Tracer())
    assert ideals.tree_stats is not before["idealcensus.ideals"]["tree_stats"]
    inst.restore()
    for m in (ideals, linfq, words, permstat):
        assert dict(vars(m)) == before[m.__name__]
    assert qpoly.LaurentPoly.__dict__["__init__"] is init


def test_outputs_identical_with_tracing_on_and_off():
    argvs = [["count", "--codim", "4", "--method", "structural", "--no-header"],
             ["count", "--codim", "2", "--q", "2", "--method", "bruteforce",
              "--cross-check", "--no-header"],
             ["verify", "--suite", "words", "--max-n", "4", "--seed", "3"]]
    plain = [jobs.run_cli(argv) for argv in argvs]
    t = spans.Tracer()
    inst = spans.install(t, extra=(("cli", "main"),))
    try:
        with t.job("outputs"):
            traced = [jobs.run_cli(argv) for argv in argvs]
    finally:
        inst.restore()
    assert [jobs.without_timings(a) for a in traced] == \
        [jobs.without_timings(a) for a in plain]
    assert t.layer_totals()["cli"]["calls"] == len(argvs)


def test_self_time_is_duration_minus_children():
    ticks = iter(range(100))
    t = spans.Tracer(clock=lambda: float(next(ticks)))
    with t.job("j"):            # job: 0 .. 9
        t.enter("ideals.f", "ideals")       # 1
        t.enter("linfq.g", "linfq")         # 2
        t.exit()                            # 3
        t.enter("linfq.g", "linfq")         # 4
        t.exit()                            # 5
        t.exit()                            # 6
        t.enter("qpoly.h", "qpoly")         # 7
        t.exit()                            # 8
    totals = t.layer_totals()
    assert totals["linfq"] == {"calls": 2, "self_s": 2.0}
    assert totals["ideals"] == {"calls": 1, "self_s": 3.0}
    assert totals["qpoly"] == {"calls": 1, "self_s": 1.0}
    job = t.spans[0]
    assert (job.busy, job.self_s) == (9.0, 3.0)
    g = next(s for s in t.spans if s.name == "linfq.g")
    assert (g.start, g.end, g.calls, t.spans[g.parent].name) == (2.0, 5.0, 2, "ideals.f")


def test_census_reference_matches_known_values():
    _, census = jobs.census_reference(3)
    assert census.evaluate(3) == 283824
    # P_{n+1}(1) counts the indecomposable permutations of size n+1.
    assert [jobs.census_reference(n)[0].evaluate(1) for n in range(1, 7)] == \
        [congruence.hall_count(n) for n in range(1, 7)]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in jobs.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    for metric in spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]
    layer_names = {f"{layer}.{kind}" for layer in spans.LAYERS for kind in ("calls", "self_s")}
    assert layer_names <= {m["name"] for m in spec["per_layer"]}


def test_host_probe_reads_during_a_job_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with run.HostProbe() as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # A host twice as slow as nominal halves the time reported.
    assert run.nominal(3.0, 2 * run.NOMINAL_PROBE_S) == pytest.approx(1.5)
