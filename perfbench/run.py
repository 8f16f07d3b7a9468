"""Census benchmark: time to an exact, checked answer per route.

    python3 perfbench/run.py --workload poly|fp|verify --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop with one caller in this one
process: it runs the workload's jobs back to back (a round) until the next
round would end after ``--seconds``, checks every answer outside the timed
region, and reports medians of the times rescaled to a nominal host speed
(see ``HostProbe``).  ``--trace 1`` instead runs each job once untraced
and once traced (see ``spans.py``) and reports per-layer numbers.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit.  A full record, with the samples, the per-job
counters and the spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"

SETUP_FIRST = 9     # set-up samples before the first round; one more per round
SETUP_TIMEOUT = 60  # seconds for one set-up child
PROBE_INTERVAL_S = 0.05
NOMINAL_PROBE_S = 0.001

END_TO_END = {"cli_s": "s", "round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "perms": "count", "trees": "count",
                   "tree_stats_per_tree": "calls/tree", "constructs": "count",
                   "product_calls": "count", "distinct_ratio": "ratio",
                   "rank_tests": "count", "full_rank_ratio": "ratio",
                   "regularity_tests": "count", "regular_ratio": "ratio",
                   "checks": "count", "overhead_ratio": "ratio", "ref_s": "s"}


def probe() -> float:
    """Seconds for a fixed integer loop of about a millisecond; it reads the
    host's current speed and nothing of the package's state."""
    start = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


# The set-up child probes the host three times before and after its import.
SETUP_CODE = "import time\n" + inspect.getsource(probe) + """
before = [probe() for _ in range(3)]
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import idealcensus.cli
idealcensus.cli.build_parser()
elapsed = time.perf_counter() - t0
host = sorted(before + [probe() for _ in range(3)])[3]
print(elapsed, host)
"""


def measure_setup() -> tuple[float, float]:
    """(seconds from a fresh interpreter to the CLI imported and its parser
    built, median probe seconds in that interpreter)."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT,
                          check=True)
    elapsed, host = proc.stdout.split()
    return float(elapsed), float(host)


class HostProbe:
    """While active, a timer signal every PROBE_INTERVAL_S runs ``probe()``
    and keeps its time, so the host's speed is read during a job, not only
    around it."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def nominal(seconds: float, host: float) -> float:
    """Seconds rescaled to a host on which ``probe()`` takes NOMINAL_PROBE_S."""
    return seconds * NOMINAL_PROBE_S / host


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    n = len(samples)
    best = None
    for pct in (50.0, 90.0, 99.0, 99.9):
        if n * (100.0 - pct) / 100.0 >= 10:
            ordered = sorted(samples)
            best = (pct, ordered[min(n - 1, int(n * pct / 100.0))])
    return best


def summary(samples: list[float]) -> dict:
    out = {"n": len(samples)}
    if samples:
        out.update(median=statistics.median(samples), min=min(samples), max=max(samples))
        tail = tail_percentile(samples)
        if tail is not None:
            out[f"p{tail[0]:g}"] = tail[1]
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = REPO / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (REPO / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(job) -> tuple[float, float, object, str | None]:
    """(seconds, median probe seconds, answer, failure reason or None).

    The seconds exclude the probes' own time; the check is untimed.
    """
    gc.collect()
    host = HostProbe()
    start = time.perf_counter()
    try:
        with host:
            answer = job.run()
    except Exception as exc:  # a raising job is a failed job, not a crash
        return time.perf_counter() - start, probe(), None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if not host.samples:  # a job shorter than one probe interval
        host.samples.append(probe())
    return (elapsed - sum(host.samples), statistics.median(host.samples), answer,
            job.check(answer))


def timed_run(jobs: list, seconds: float) -> dict:
    """Rounds of the jobs until the next round would end after ``seconds``.

    Every time is rescaled by the host's speed measured during it (see
    ``nominal``); the record keeps the times as taken and the probes.
    """
    setup = [measure_setup() for _ in range(SETUP_FIRST)]
    samples: dict[str, list[tuple[float, float]]] = {job.name: [] for job in jobs}
    rounds: list[float] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        round_s, round_ok = 0.0, True
        for job in jobs:
            elapsed, host, _, reason = run_job(job)
            attempted += 1
            if reason is None:
                samples[job.name].append((elapsed, host))
                round_s += nominal(elapsed, host)
            else:
                failures.append(f"{job.name}: {reason}")
                round_ok = False
        if round_ok:
            rounds.append(round_s)
        setup.append(measure_setup())
        spent = time.perf_counter() - start
        n_rounds = attempted // len(jobs)
        if spent + spent / n_rounds > seconds:
            break
    scaled = {name: [nominal(t, h) for t, h in s] for name, s in samples.items()}
    setup_scaled = [nominal(t, h) for t, h in setup]
    hosts = [h for s in samples.values() for _, h in s]
    cli_job = next(job for job in jobs if job.is_cli)
    metrics = {}
    if scaled[cli_job.name] and rounds:
        metrics = {"cli_s": statistics.median(scaled[cli_job.name]),
                   "round_s": statistics.median(rounds),
                   "setup_s": statistics.median(setup_scaled),
                   "peak_rss_mb": peak_rss_mb()}
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "jobs": {name: summary(s) for name, s in scaled.items()},
            "jobs_as_timed": {name: summary([t for t, _ in s]) for name, s in samples.items()},
            "rounds": summary(rounds), "setup": summary(setup_scaled),
            "setup_as_timed": summary([t for t, _ in setup]),
            "host_probe": summary(hosts),
            "samples": {"jobs": samples, "rounds": rounds, "setup": setup}}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(jobs: list) -> dict:
    import spans
    from jobs import verify_lines, without_timings

    hosts = []
    failures: list[str] = []
    plain: dict[str, tuple[float, object]] = {}
    for job in jobs:
        elapsed, host, answer, reason = run_job(job)
        if reason is not None:
            failures.append(f"{job.name} untraced: {reason}")
        hosts.append(host)
        plain[job.name] = (elapsed, answer)
    tracer = spans.Tracer()
    traced: dict[str, tuple[float, object]] = {}
    installation = spans.install(tracer, extra=tuple(job.entry for job in jobs))
    try:
        for job in jobs:
            gc.collect()
            with tracer.job(job.name):
                start = time.perf_counter()
                try:
                    answer = job.run()
                except Exception as exc:  # reported below as a failed job
                    answer = exc
                traced[job.name] = (time.perf_counter() - start, answer)
    finally:
        installation.restore()
    for job in jobs:
        answer = traced[job.name][1]
        reason = (f"raised {type(answer).__name__}: {answer}"
                  if isinstance(answer, Exception) else job.check(answer))
        if reason is None and without_timings(answer) != without_timings(plain[job.name][1]):
            reason = "answer differs from the untraced run"
        if reason is not None:
            failures.append(f"{job.name} traced: {reason}")

    c = tracer.counters
    m: dict[str, float] = {}
    for layer, totals in tracer.layer_totals().items():
        m[f"{layer}.calls"] = totals["calls"]
        m[f"{layer}.self_s"] = totals["self_s"]
    trees = c["words.enumerate_trees.items"]
    products = c["haglund.product_calls"]
    m.update({
        "permstat.perms": c["permstat.enumerate_permutations.items"],
        "words.trees": trees,
        "words.tree_stats_per_tree": _ratio(c["words.tree_stats"], trees),
        "qpoly.constructs": c["qpoly.constructs"],
        "haglund.product_calls": products,
        "haglund.distinct_ratio": _ratio(len(tracer.distinct.get("haglund.product_calls", ())),
                                         products),
        "linfq.rank_tests": c["linfq.rank_tests"],
        "linfq.full_rank_ratio": _ratio(c["linfq.full_rank"], c["linfq.rank_tests"]),
        "congruence.regularity_tests": c["congruence.regularity_tests"],
        "congruence.regular_ratio": _ratio(c["congruence.regular"],
                                           c["congruence.regularity_tests"]),
        "cli.checks": sum(verify_lines(traced[job.name][1][1]) for job in jobs
                          if job.is_cli and isinstance(traced[job.name][1], tuple)),
        "trace.overhead_ratio": _ratio(sum(t for t, _ in traced.values()),
                                       sum(t for t, _ in plain.values())),
        "host.ref_s": statistics.median(hosts),
    })
    return {"attempted": 2 * len(jobs), "failures": failures, "metrics": m,
            "jobs": {job.name: {"untraced_s": plain[job.name][0],
                                "traced_s": traced[job.name][0]} for job in jobs},
            "trace": tracer.dump()}


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER_UNITS[name.split(".", 1)[1]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "idealcensus" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'idealcensus'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from jobs import PREDICTIONS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs = workload.make_jobs(args.seed)  # builds the reference answers
    if args.trace:
        result = traced_run(jobs)
    else:
        result = timed_run(jobs, args.seconds)

    metrics = result["metrics"]
    failed = len(result["failures"])
    correct = failed == 0 and bool(metrics)
    record = {
        "meta": {"workload": workload.name, "why": workload.why,
                 "seed": args.seed, "seed_used": workload.seeded,
                 "seconds": args.seconds, "trace": args.trace,
                 "jobs": [job.describe for job in jobs],
                 "git_sha": git_sha(), "python": platform.python_version(),
                 "nproc": os.cpu_count(), "predictions": PREDICTIONS},
        "error_rate": _ratio(failed, result["attempted"]),
        **result,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  attempted {result['attempted']}"
          f"  failed {failed}  error_rate {record['error_rate']:g} fraction")
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    if not args.trace:
        lines = [*((f"{job}_s", s, result["jobs_as_timed"][job])
                   for job, s in result["jobs"].items()),
                 ("setup", result["setup"], result["setup_as_timed"])]
        for name, s, raw in lines:
            if s["n"]:
                tail = "".join(f", {k} {v:.4g}" for k, v in s.items() if k.startswith("p"))
                print(f"{name} {s['median']:.4g} s  (median of {s['n']}, min {s['min']:.4g},"
                      f" max {s['max']:.4g}{tail}; as timed {raw['median']:.4g} s)")
        print(f"host.ref_s {result['host_probe']['median']:.4g} s"
              f"  (median probe; nominal {NOMINAL_PROBE_S:g} s)")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {unit_of(name)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
