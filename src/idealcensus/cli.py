"""Command-line interface: count, bijection, verify, export.

Exit codes: 0 success, 1 verify failure, 2 invalid arguments, 3 budget
exceeded, 4 cross-check mismatch, 5 decomposable permutation input,
6 non-regular congruence, 7 unwritable output.  Each has one home:
2 is argparse's, whose ``type=`` converters validate every argument,
plus the two checks that combine arguments (``--q`` for a ``--method``
whose ``ideals.ROUTES`` row needs q; ``export --q`` for ideal-census);
3, 5 and 6 are ``main``'s, which maps TooLarge, NotIndecomposable and
NotRegular, and 7 for a stdout closed before the output ends (as by
``| head``); 1 (a failed verify or round trip) and 4 (a cross-check
mismatch) are outcomes the commands return; 7 for an ``--out`` path is
``emit``'s.

Output is deterministic byte for byte apart from the version/timestamp
header, which --no-header suppresses.  ``count`` and ``export`` build
their result in the requested format only and hand it to one writer,
``output``, which adds the header and serializes it chunk by chunk
into ``emit``; ``EXPORTS`` lists export's objects once, with their CSV
columns, as ``ideals.ROUTES`` lists count's routes.  Every route returns
an ``ideals.Census``, rendered by one function per format:
``census_json`` (count and export), ``census_lines`` (count) and
``census_csv_rows`` (export), each drawing a tree route's entries as it
writes them and rendering each contribution once.  The checks that
verify runs live in ``checks.SUITES``; verify prints each as ``[ ok ]``,
``[FAIL]``, or ``[skip]`` when it checked no case at the given bounds
and primes, followed by the reason the check gives, if any.

Every command pays for this module's imports before it counts anything,
so ``json``, ``csv`` and ``datetime`` are imported by the functions that
use them; ``tests/test_cli.py`` checks what the import loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from math import factorial
from types import SimpleNamespace
from typing import Iterable, Iterator

from . import __version__, checks, congruence, ideals, linfq, permstat
from .congruence import (
    NotIndecomposable,
    NotRegular,
    RightCongruence,
    from_indecomposable,
    group_word_str,
    subgroup_generators,
    to_indecomposable,
)
from .ideals import Census, Route
from .linfq import DEFAULT_BUDGET, TooLarge
from .permstat import Perm, parse_permutation, permutation_str
from .qpoly import LaurentPoly
from .words import MAX_WORD_LENGTH, CodeTree, parse_word, word_compact, word_str


# -- rendering helpers -----------------------------------------------------


def poly_terms(p: LaurentPoly) -> list[dict]:
    return [{"exp": e, "coef": str(c)} for e, c in p.terms]


def factored_census_str(n: int, core: LaurentPoly) -> str:
    """The formula route's census, with core = P_(n+1) left unexpanded."""
    e = (n + 1) * (n - 2) // 2
    pieces = [f"(q-1)^{n + 1}"]
    if e:
        pieces.append(f"q^{e}")
    pieces.append(f"({core})")
    return " * ".join(pieces)


def by_identity(render):
    """``render`` memoized by its argument's identity, which hashes no
    value: trees share contribution objects (``ideals.TreeWalk`` keeps
    one per value).  The memo keeps each argument, so its id stays its own."""
    memo: dict[int, tuple] = {}

    def rendered(value):
        if id(value) not in memo:
            memo[id(value)] = value, render(value)
        return memo[id(value)][1]
    return rendered


def census_json(n: int, route: Route, q: int | None, census: Census) -> dict:
    # contributions stay objects: ``json_chunks`` encodes each one once
    out: dict = {"n": n, "method": route.name}
    if route.needs_q:
        out["q"] = q
    out["total"] = census.total
    if census.indec is not None:
        out["factored"] = factored_census_str(n, census.indec)
    if route.per_tree:
        # a generator: ``json_chunks`` writes each tree as it is encoded
        out["trees"] = ({
            "signature": {"ranks": list(ranks), "lengths": list(lengths)},
            "k": k,
            "N": a_cells,
            "M": b_cells,
            "lambda": list(lam),
            "contribution": value,
        } for ranks, lengths, k, a_cells, b_cells, lam, value in census.entries)
    return out


def census_lines(n: int, route: Route, q: int | None, census: Census) -> Iterator[str]:
    tag = f" at q={q}" if route.needs_q else ""
    yield f"codim {n} census{tag}, {route.name} route"
    if census.indec is not None:
        yield f"factored: {factored_census_str(n, census.indec)}"
    yield f"{'total' if route.per_tree else 'expanded'}: {census.total}"
    text = by_identity(str)
    for i, (ranks, lengths, k, a_cells, b_cells, lam, value) in enumerate(census.entries, 1):
        yield (f"tree {i}: ranks={list(ranks)} lengths={list(lengths)} k={k} N={a_cells}"
               f" M={b_cells} lambda={list(lam)} contribution: {text(value)}")


def census_csv_rows(census: Census) -> Iterator[list]:
    text = by_identity(str)
    for ranks, lengths, k, a_cells, b_cells, lam, value in census.entries:
        yield [" ".join(map(str, ranks)), " ".join(map(str, lengths)),
               k, a_cells, b_cells, " ".join(map(str, lam)), text(value)]


def output(args, body) -> int:
    """Write a command's result in ``args.format``: ``body`` is a JSON
    object, CSV rows below the export object's column row, or text
    lines.  Unless --no-header, a version/timestamp header leads: a
    ``meta`` object in JSON, a ``#`` line otherwise.  Nothing is joined
    into one string: JSON is written as it is encoded, a lazy list of
    rows one row at a time (``json_chunks``), and CSV rows and text
    lines as they are drawn from ``body``, so a lazy body is never held
    whole, and a stdout closed early fails the write of a later chunk
    instead of passing one partial write as whole."""
    if args.header:
        from datetime import datetime, timezone
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if args.format == "json":
        if args.header:
            body = {"meta": {"tool": "idealcensus", "version": __version__,
                             "generated": stamp}, **body}
        return emit(json_chunks(body), args.out)
    header = [f"# idealcensus {__version__} generated {stamp}\n"] if args.header else []
    if args.format == "csv":
        columns = EXPORTS[args.object][0].split(",")
        return emit(chain(header, csv_lines(chain([columns], body))), args.out)
    return emit(chain(header, (line + "\n" for line in body)), args.out)


def json_chunks(body: dict) -> Iterator[str]:
    """The bytes of ``json.dumps(body, indent=2)`` and a newline, chunk by
    chunk.  A value of ``body`` that is an iterator is written as a list,
    each item as it is drawn, so an export's rows are never held
    together: ``json`` encodes lists only.  A LaurentPoly is written as
    its term list (``poly_terms``); one that is a field of such a row (a
    contribution that trees share) is rendered once per object.

    Ints, strings, LaurentPolys and lists, tuples and string-keyed dicts
    of them are rendered in one pass (``render``), ints by ``str`` and
    strings by the encoder's own escape; anything else (a bool, None, a
    float) goes through ``json.JSONEncoder``, whose output is nested by
    indenting its newlines: JSON strings hold no raw newline."""
    import json
    from json.encoder import encode_basestring_ascii as quote

    encode = json.JSONEncoder(indent=2, default=poly_terms).iterencode

    def render(value, depth: int) -> str:
        kind = type(value)
        if kind is int:
            return str(value)
        if kind is str:
            return quote(value)
        if kind is LaurentPoly:
            return render(poly_terms(value), depth)
        pad = "\n" + "  " * (depth + 1)
        if kind is list or kind is tuple:
            if not value:
                return "[]"
            items = [str(v) if type(v) is int else render(v, depth + 1) for v in value]
            return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
        if kind is dict and all(type(k) is str for k in value):
            if not value:
                return "{}"
            items = [f"{quote(k)}: {str(v) if type(v) is int else render(v, depth + 1)}"
                     for k, v in value.items()]
            return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
        return "".join(encode(value)).replace("\n", "\n" + "  " * depth)

    # a row is at depth 2 and its fields at depth 3
    field = by_identity(lambda poly: render(poly, 3))

    def row(item) -> str:
        if type(item) is not dict or not item or not all(type(k) is str for k in item):
            return render(item, 2)
        return "{\n      " + ",\n      ".join(
            f"{quote(key)}: {field(value) if type(value) is LaurentPoly else render(value, 3)}"
            for key, value in item.items()) + "\n    }"

    sep = "{"
    for key, value in body.items():
        yield f"{sep}\n  {quote(key)}: "
        sep = ","
        if not isinstance(value, Iterator):
            yield render(value, 1)
            continue
        opened = False
        for item in value:
            yield ",\n    " if opened else "[\n    "
            opened = True
            yield row(item)
        yield "\n  ]" if opened else "[]"
    yield "\n}\n"


def csv_lines(rows) -> Iterator[str]:
    """Each row as one CSV line: ``writerow`` returns what the target's
    ``write`` returns, here the line itself."""
    import csv

    writer = csv.writer(SimpleNamespace(write=lambda line: line), lineterminator="\n")
    return map(writer.writerow, rows)


def emit(chunks: Iterable[str], out_path: str | None) -> int:
    """Write the chunks to stdout, or replace ``out_path`` atomically:
    they go to a new file beside it, renamed onto it only once fully
    written, so a failed write leaves no partial output and no
    temporary file."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        return 0
    directory, name = os.path.split(os.path.abspath(out_path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x")
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 7
    return 0


# -- count -----------------------------------------------------------------


def cmd_count(args) -> int:
    n, q = args.codim, args.q
    route = ideals.ROUTES[args.method]
    if route.needs_q and q is None:
        print(f"error: --method {route.name} requires --q", file=sys.stderr)
        return 2
    # rows run in table order: the hook's (n+1)! charge comes before any other route
    results = {r: r.run(n, q, args.budget) for r in ideals.ROUTES.values()
               if r is route or args.cross_check and not r.needs_q}
    mismatches = [m for _, m in ideals.cross_check(results, q) if m] if args.cross_check else []
    for m in mismatches:
        print(f"cross-check mismatch: {m}", file=sys.stderr)
    if mismatches:
        return 4

    census = results[route]
    at_q = q is not None and not route.needs_q  # a polynomial is evaluated at --q
    if args.format == "json":
        body = census_json(n, route, q, census)
        if at_q:
            body.update(q=q, value_at_q=census.total.evaluate(q))
        if args.cross_check:
            body["cross_check"] = "ok"
        return output(args, body)

    tail = [f"value at q={q}: {census.total.evaluate(q)}"] if at_q else []
    if args.cross_check:
        tail.append("cross-check: all routes agree")
    return output(args, chain(census_lines(n, route, q, census), tail))


# -- bijection ---------------------------------------------------------------

# A theta of size m can have a leaf m - 1 letters long, which a congruence file
# must be able to hold: both directions of the bijection stop at this size.
MAX_BIJECTION_SIZE = MAX_WORD_LENGTH + 1


def parse_congruence_text(text: str) -> RightCongruence:
    """The congruence of lines 'c -> f(c)'; blank lines and '#' comments
    are skipped, and an error in one line names its number."""
    mapping: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "->" not in line:
                raise ValueError(f"expected 'c -> f(c)', got {line!r}")
            left, right = line.split("->", 1)
            leaf = parse_word(left)
            if leaf in mapping:
                raise ValueError(f"leaf {word_str(leaf)} is given twice")
            if len(mapping) == MAX_BIJECTION_SIZE:
                raise ValueError(f"more than {MAX_BIJECTION_SIZE} leaves")
            mapping[leaf] = parse_word(right)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    tree = CodeTree.from_leaves(mapping.keys())
    return RightCongruence.from_map(tree, mapping)


def read_congruence_file(path: str) -> RightCongruence:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_congruence_text(text)


def congruence_text(rc: RightCongruence) -> str:
    return "\n".join(f"{word_compact(c)} -> {word_compact(p)}"
                     for c, p in zip(rc.tree.leaves, rc.images))


def cmd_bijection(args) -> int:
    if args.theta is not None:
        rc = from_indecomposable(args.theta)
        print(congruence_text(rc))
        if args.roundtrip:
            back = to_indecomposable(rc)
            if back != args.theta:
                print(f"error: roundtrip produced {permutation_str(back)}", file=sys.stderr)
                return 1
            print(f"roundtrip ok: {permutation_str(back)}")
        return 0

    rc = args.congruence
    theta = to_indecomposable(rc)
    print(permutation_str(theta))
    if args.roundtrip:
        if from_indecomposable(theta) != rc:
            print("error: roundtrip did not reproduce the congruence", file=sys.stderr)
            return 1
        print("roundtrip ok")
    return 0


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    # refuse at once the S_(max_n+1) that the census routes walk; the checks
    # that walk further (frozen table, series identity) charge their own
    linfq.charge(args.max_n + 1, factorial, args.budget, f"{args.max_n + 1}! permutations")
    cfg = checks.CheckConfig(max_n=args.max_n, primes=args.primes, seed=args.seed,
                             budget=args.budget)
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    failures = skipped = total = 0
    for suite in names:
        for label, fn in checks.SUITES[suite]:
            ok, detail, cases, dt = checks.run_check(fn, cfg)
            mark = "FAIL" if not ok else " ok " if cases else "skip"
            reason = f" ({detail})" if detail and mark == "skip" else ""
            suffix = f": {detail}" if detail and mark == "FAIL" else ""
            print(f"[{mark}] {suite}: {label}{reason} ({dt:.3f}s){suffix}")
            failures += not ok
            skipped += ok and not cases
            total += 1
    passed = total - failures - skipped
    print(f"{passed}/{total} checks passed" + (f", {skipped} skipped" if skipped else ""))
    return 0 if failures == 0 else 1


# -- export ------------------------------------------------------------------


def export_indec_polys(args):
    polys = enumerate(permstat.lehmer_indec_polynomials(args.n, args.budget), start=1)
    if args.format == "json":
        return {"max_m": args.n,
                "polynomials": [{"m": m, "terms": p} for m, p in polys]}
    return ([m, e, c] for m, p in polys for e, c in p.terms)


def export_ideal_census(args):
    route = next(r for r in ideals.ROUTES.values()
                 if r.per_tree and r.needs_q == (args.q is not None))
    census = route.run(args.n, args.q, args.budget)
    return (census_json(args.n, route, args.q, census) if args.format == "json"
            else census_csv_rows(census))


def export_cells(args):
    cells = ((permutation_str(theta), args.n + 1, d)
             for theta, d in ideals.cell_decomposition(args.n, args.budget))
    if args.format == "json":
        return {"n": args.n, "cells": ({"theta": t, "torus_rank": r, "affine_dim": d}
                                       for t, r, d in cells)}
    return cells


def export_congruences(args):
    maps = ([(word_str(c), word_str(p)) for c, p in zip(rc.tree.leaves, rc.images)]
            for rc in congruence.enumerate_regular(args.n, args.budget))
    if args.format == "json":
        return {"n": args.n, "congruences": ({"index": i, "map": dict(m)}
                                             for i, m in enumerate(maps, start=1))}
    return ([i, c, p] for i, m in enumerate(maps, start=1) for c, p in m)


def export_subgroups(args):
    gens = ([group_word_str(g) for g in subgroup_generators(rc)]
            for rc in congruence.enumerate_regular(args.n, args.budget))
    if args.format == "json":
        return {"n": args.n, "subgroups": ({"index": i, "generators": g}
                                           for i, g in enumerate(gens, start=1))}
    return ([i, w] for i, g in enumerate(gens, start=1) for w in g)


# --object: (CSV columns, builder of the JSON body or the CSV rows,
# whichever args.format asks for)
EXPORTS = {
    "indec-polys": ("m,exp,coef", export_indec_polys),
    "ideal-census": ("ranks,lengths,k,N,M,lambda,contribution", export_ideal_census),
    "cells": ("theta,torus_rank,affine_dim", export_cells),
    "congruences": ("index,leading,image", export_congruences),
    "subgroups": ("index,generator", export_subgroups),
}


def cmd_export(args) -> int:
    if args.q is not None and args.object != "ideal-census":
        print("error: --q only applies to ideal-census", file=sys.stderr)
        return 2
    return output(args, EXPORTS[args.object][1](args))


# -- argument wiring -----------------------------------------------------------


def argument_type(convert):
    """``convert`` as an argparse ``type=``: the ValueError it raises
    becomes a usage error (exit 2) that prints its message after the
    option's name."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def positive_int(text: str, remark: str = "") -> int:
    n = integer(text)
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}{remark}")
    return n


def codimension(text: str) -> int:
    return positive_int(text, " (the codimension-0 count is 1; the closed "
                              "formula does not cover it)")


def bijection_theta(text: str) -> Perm:
    theta = parse_permutation(text)
    if len(theta) > MAX_BIJECTION_SIZE:
        raise ValueError(f"{len(theta)} entries; the bijection takes at most "
                         f"{MAX_BIJECTION_SIZE}")
    return theta


def prime(text: str) -> int:
    return linfq.check_prime(integer(text))


def primes(text: str) -> tuple[int, ...]:
    """The listed primes, each once, in the order of first mention."""
    return tuple(dict.fromkeys(prime(x) for x in text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealcensus",
        description="Exact censuses of finite-codimension right ideals over "
                    "the free group algebra, and the combinatorics behind them.")
    parser.add_argument("--version", action="version", version=f"idealcensus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = argument_type(positive_int)
    a_prime = argument_type(prime)

    p_count = sub.add_parser("count", help="census of right ideals of one codimension")
    p_count.add_argument("--codim", type=argument_type(codimension), required=True,
                         metavar="N")
    p_count.add_argument("--q", type=a_prime, default=None,
                         help="prime; evaluate (or census over F_q for bruteforce)")
    methods = [name for name, route in ideals.ROUTES.items() if not route.witness_only]
    p_count.add_argument("--method", choices=methods, default=methods[0])
    p_count.add_argument("--cross-check", action="store_true",
                         help="run the independent routes and compare")
    p_count.add_argument("--budget", type=positive, default=DEFAULT_BUDGET,
                         help="bound on each route's work: slots of the "
                              "Lehmer-code DP (formula; the default reaches "
                              "codim 166), trees and matrices per letter and tree "
                              "(bruteforce), trees (structural), permutations "
                              "(hook route of --cross-check); exit 3 when exceeded")
    p_count.add_argument("--format", choices=["text", "json"], default="text")
    p_count.add_argument("--out", default=None, metavar="PATH")
    p_count.add_argument("--no-header", dest="header", action="store_false")
    p_count.set_defaults(func=cmd_count)

    p_bij = sub.add_parser("bijection",
                           help="translate between congruences and indecomposable permutations")
    group = p_bij.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=argument_type(bijection_theta), metavar="PERM",
                       help="one-line permutation, e.g. 325461, of at most "
                            f"{MAX_BIJECTION_SIZE} entries")
    group.add_argument("--congruence-file", dest="congruence", metavar="PATH",
                       type=argument_type(read_congruence_file),
                       help="file of lines 'c -> f(c)'")
    p_bij.add_argument("--roundtrip", action="store_true",
                       help="apply the inverse direction and confirm")
    p_bij.set_defaults(func=cmd_bijection)

    p_verify = sub.add_parser("verify", help="run the exhaustive cross-check suites")
    p_verify.add_argument("--suite", choices=["all", *checks.SUITES], default="all")
    p_verify.add_argument("--max-n", type=positive, default=5)
    p_verify.add_argument("--primes", type=argument_type(primes), default="2,3",
                          metavar="P1,P2,...")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=positive, default=DEFAULT_BUDGET,
                          help="bound on each enumeration; exit 3 when the "
                               "(max-n+1)! permutations exceed it")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser(
        "export", help="dump objects as JSON or CSV",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="CSV columns per object:\n" + "\n".join(
            f"  {name:<13} {columns}" for name, (columns, _) in EXPORTS.items()))
    p_export.add_argument("--object", required=True, choices=list(EXPORTS))
    p_export.add_argument("--n", type=positive, required=True)
    p_export.add_argument("--q", type=a_prime, default=None,
                          help="prime; brute-force census instead of structural")
    p_export.add_argument("--format", choices=["json", "csv"], default="json")
    p_export.add_argument("--out", default=None, metavar="PATH")
    p_export.add_argument("--no-header", dest="header", action="store_false")
    p_export.add_argument("--budget", type=positive, default=DEFAULT_BUDGET,
                          help="bound on the ideal-census enumeration (trees, or "
                               "matrices per letter and tree with --q), on the "
                               "indec-polys' slots of the Lehmer-code DP (the "
                               "default reaches n = 82), the "
                               "cells' (n+1)! permutations and the congruences' "
                               "hall_count(n) candidates; exit 3 when exceeded")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # What is still buffered would fail again in the interpreter's
        # final flush; point stdout at devnull so it goes nowhere.  When
        # stderr shares the closed pipe (2>&1), the message fails the same
        # way, and stderr goes to devnull too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        except OSError:
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return 7
    except TooLarge as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except NotIndecomposable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except NotRegular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
