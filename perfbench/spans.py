"""Tracing for the benchmark's traced run, installed from outside the package.

``Tracer`` keeps spans in memory, aggregated by call path: one record per
(job, parent record, name) holding the first start, the last end, the
number of calls and their summed duration.  Brute force makes millions of
rank tests, so one record per call would not fit in memory; the
aggregated form keeps every count and self time exact.  A record's self
time is its summed duration minus the summed duration of its children.

``install`` wraps functions where their callers look them up: in the
defining module and in every module of the package that bound the same
function with ``from .x import f``.  The names wrapped are those that a
module of the package references in another module (found by reading
the package source), the methods of the ``qpoly`` classes, and the
names a counter is attached to.  Calls inside a layer to functions no
other module uses are timed as part of their caller.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PACKAGE = "idealcensus"
LAYERS = ("qpoly", "permstat", "words", "congruence", "linfq", "haglund",
          "ideals", "cli")

# Methods of these qpoly classes are the layer's entry points: other layers
# reach LaurentPoly through operators, not through module functions.
QPOLY_METHODS = {
    "LaurentPoly": ("__init__", "__add__", "__radd__", "__neg__", "__sub__",
                    "__rsub__", "__mul__", "__rmul__", "__pow__", "__eq__",
                    "shift", "evaluate", "monomial", "__str__"),
    "TruncatedSeries": ("__init__", "__add__", "__sub__", "__mul__", "invert"),
}


@dataclass
class Span:
    """Calls of one name under one parent record within one job."""

    id: int
    name: str
    layer: str
    parent: int | None
    job: int
    start: float
    end: float = 0.0
    calls: int = 0
    busy: float = 0.0
    child: float = 0.0

    @property
    def self_s(self) -> float:
        return self.busy - self.child


class Tracer:
    """In-memory span records and counters for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.distinct: dict[str, set] = {}
        self.jobs: list[str] = []
        self.job_counters: dict[str, Counter[str]] = {}
        self._index: dict[tuple[int | None, int, str], int] = {}
        self._stack: list[list] = []  # [span id, start, child time]

    def enter(self, name: str, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        job = len(self.jobs) - 1
        key = (parent, job, name)
        sid = self._index.get(key)
        now = self.clock()
        if sid is None:
            sid = len(self.spans)
            self._index[key] = sid
            self.spans.append(Span(sid, name, layer, parent, job, now))
        self._stack.append([sid, now, 0.0])

    def exit(self) -> None:
        sid, start, child = self._stack.pop()
        end = self.clock()
        span = self.spans[sid]
        span.end = end
        span.calls += 1
        span.busy += end - start
        span.child += child
        if self._stack:
            self._stack[-1][2] += end - start

    def job(self, name: str) -> "_JobSpan":
        """Context manager: a root span that the job's calls hang under."""
        return _JobSpan(self, name)

    def note_distinct(self, key: str, value) -> None:
        self.distinct.setdefault(key, set()).add(value)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for span in self.spans:
            if span.layer in out:
                out[span.layer]["calls"] += span.calls
                out[span.layer]["self_s"] += span.self_s
        return out

    def dump(self) -> dict:
        return {"jobs": self.jobs,
                "spans": [{"id": s.id, "name": s.name, "parent": s.parent,
                           "job": s.job, "start": s.start, "end": s.end,
                           "calls": s.calls, "busy_s": s.busy, "self_s": s.self_s}
                          for s in self.spans],
                "counters": dict(self.counters),
                "job_counters": {k: dict(v) for k, v in self.job_counters.items()},
                "distinct": {k: len(v) for k, v in self.distinct.items()}}


class _JobSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.before: Counter[str] = Counter()

    def __enter__(self):
        self.before = Counter(self.tracer.counters)
        self.tracer.jobs.append(self.name)
        self.tracer.enter(f"job.{self.name}", "job")
        return self

    def __exit__(self, *exc):
        self.tracer.exit()
        self.tracer.job_counters[self.name] = self.tracer.counters - self.before
        return False


# -- counters ---------------------------------------------------------------
# Each hook sees (tracer, args, result) after a call returns.  Iterators
# returned by a wrapped function also count their items under
# "<span name>.items".


def _count(key: str, true_key: str | None = None):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.counters[key] += 1
        if true_key is not None and result is True:
            tracer.counters[true_key] += 1
    return hook


def _count_haglund(tracer: Tracer, args, result) -> None:
    tracer.counters["haglund.product_calls"] += 1
    tracer.note_distinct("haglund.product_calls", tuple(args[0]))


COUNTERS = {
    ("permstat", "enumerate_permutations"): None,
    ("words", "enumerate_trees"): None,
    ("words", "tree_stats"): _count("words.tree_stats"),
    ("qpoly", "LaurentPoly.__init__"): _count("qpoly.constructs"),
    ("haglund", "haglund_product"): _count_haglund,
    ("linfq", "_full_rank"): _count("linfq.rank_tests", "linfq.full_rank"),
    ("congruence", "is_regular"): _count("congruence.regularity_tests",
                                         "congruence.regular"),
    ("congruence", "enumerate_regular"): None,
}


# -- discovery ----------------------------------------------------------------


def cross_module_names(package) -> set[tuple[str, str]]:
    """(module, name) pairs that some module of the package looks up in
    another: ``from .x import name`` and ``x.name`` after ``from . import x``."""
    refs: set[tuple[str, str]] = set()
    for path in Path(package.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        refs.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
    return {(m, n) for m, n in refs if m in LAYERS}


# -- installation ---------------------------------------------------------------


class _TracedIterator:
    """Times each resume of an iterator as a span of its function's name."""

    __slots__ = ("_it", "_tracer", "_name", "_layer")

    def __init__(self, it, tracer: Tracer, name: str, layer: str):
        self._it = it
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._name, self._layer)
        try:
            item = next(self._it)
        finally:
            tracer.exit()
        tracer.counters[self._name + ".items"] += 1
        return item


def _wrap(fn, tracer: Tracer, layer: str, name: str, hook):
    span_name = f"{layer}.{name}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(span_name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, args, result)
        if isinstance(result, Iterator):
            return _TracedIterator(result, tracer, span_name, layer)
        return result

    return traced


class Installation:
    """The bindings replaced by ``install``; ``restore`` puts them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def install(tracer: Tracer, extra: tuple[tuple[str, str], ...] = ()) -> Installation:
    """Wrap every cross-module function, qpoly method and counted name, and
    the (module, function) pairs in ``extra``."""
    package = importlib.import_module(PACKAGE)
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    wanted = cross_module_names(package) | set(COUNTERS) | set(extra)
    inst = Installation()
    try:
        _install(tracer, package, modules, wanted, inst)
    except BaseException:
        inst.restore()
        raise
    return inst


def _install(tracer: Tracer, package, modules: dict, wanted: set,
             inst: Installation) -> None:
    originals: dict[int, object] = {}  # id(original function) -> wrapper
    for layer, name in sorted(wanted):
        fn = modules[layer].__dict__.get(name)
        if not inspect.isfunction(fn) or fn.__module__ != modules[layer].__name__:
            continue
        originals[id(fn)] = _wrap(fn, tracer, layer, name, COUNTERS.get((layer, name)))
    # Replace the function wherever a module of the package bound it.
    for module in [package, *modules.values()]:
        for name, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                inst.replace(module, name, wrapper)
    qpoly = modules["qpoly"]
    for cls_name, methods in QPOLY_METHODS.items():
        cls = getattr(qpoly, cls_name)
        for meth in methods:
            raw = cls.__dict__.get(meth)
            if raw is None:
                continue
            hook = COUNTERS.get(("qpoly", f"{cls_name}.{meth}"))
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, tracer, "qpoly",
                                            f"{cls_name}.{meth}", hook))
            else:
                wrapped = _wrap(raw, tracer, "qpoly", f"{cls_name}.{meth}", hook)
            inst.replace(cls, meth, wrapped)
