"""Command-line interface: count, bijection, verify, export.

Exit codes: 0 success, 1 verify failure, 2 invalid arguments, 3 budget
exceeded, 4 cross-check mismatch, 5 decomposable permutation input,
6 non-regular congruence, 7 unwritable output path.

Output is deterministic byte for byte apart from the version/timestamp
header, which --no-header suppresses.  The checks that verify runs live
in ``checks.SUITES``; verify prints each as ``[ ok ]``, ``[FAIL]``, or
``[skip]`` when it checked no case at the given bounds and primes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone
from math import factorial

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
from .ideals import CodimensionZero, IdealCountReport
from .linfq import DEFAULT_BUDGET, TooLarge
from .permstat import parse_permutation, permutation_str
from .qpoly import LaurentPoly
from .words import CodeTree, parse_word, word_compact, word_str


# -- rendering helpers -----------------------------------------------------


def header_line() -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"# idealcensus {__version__} generated {stamp}"


def with_meta(payload: dict) -> dict:
    """The JSON payload behind its version/timestamp header."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {"meta": {"tool": "idealcensus", "version": __version__, "generated": stamp},
            **payload}


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


def report_json(report: IdealCountReport) -> dict:
    def contrib(value):
        return value if isinstance(value, int) else poly_terms(value)

    out: dict = {"n": report.n, "method": report.method}
    if report.q is not None:
        out["q"] = report.q
    out["total"] = contrib(report.total)
    out["trees"] = [{
        "signature": {"ranks": list(e.sig.ranks), "lengths": list(e.sig.lengths)},
        "k": e.a_count,
        "N": e.a_cells,
        "M": e.b_cells,
        "lambda": list(e.partition),
        "contribution": contrib(e.contribution),
    } for e in report.entries]
    return out


def report_text_lines(report: IdealCountReport) -> list[str]:
    lines = [f"total: {report.total}"]
    for i, e in enumerate(report.entries, start=1):
        lines.append(
            f"tree {i}: ranks={list(e.sig.ranks)} lengths={list(e.sig.lengths)}"
            f" k={e.a_count} N={e.a_cells} M={e.b_cells}"
            f" lambda={list(e.partition)} contribution: {e.contribution}")
    return lines


def report_csv_rows(report: IdealCountReport) -> list[list[str]]:
    rows = [["ranks", "lengths", "k", "N", "M", "lambda", "contribution"]]
    for e in report.entries:
        contrib = e.contribution if isinstance(e.contribution, int) else str(e.contribution)
        rows.append([" ".join(map(str, e.sig.ranks)),
                     " ".join(map(str, e.sig.lengths)),
                     str(e.a_count), str(e.a_cells), str(e.b_cells),
                     " ".join(map(str, e.partition)), str(contrib)])
    return rows


def emit(text: str, out_path: str | None) -> int:
    """Write to stdout, or replace ``out_path`` atomically: the text goes
    to a new file beside it, renamed onto it only once fully written, so
    a failed write leaves no partial output and no temporary file."""
    if out_path is None:
        sys.stdout.write(text)
        return 0
    directory, name = os.path.split(os.path.abspath(out_path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x")
        try:
            with fh:
                fh.write(text)
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
    try:
        n = ideals._require_codim(args.codim)
    except CodimensionZero as exc:
        print(f"error: {exc} (the codimension-0 count is 1; the closed formula "
              f"does not cover it)", file=sys.stderr)
        return 2
    if args.method == "bruteforce" and args.q is None:
        print("error: --method bruteforce requires --q", file=sys.stderr)
        return 2
    if args.q is not None:
        try:
            linfq.check_prime(args.q)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        if args.method == "formula":
            core = permstat.indec_inversion_polynomials(n + 1)[-1]
            result: IdealCountReport | LaurentPoly = ideals.ideal_count_from_indec(n, core)
        elif args.method == "structural":
            result = ideals.ideal_count_by_trees(n, args.budget)
        else:
            result = ideals.ideal_count_brute_force(n, args.q, args.budget)
        if args.cross_check:
            formula = result if args.method == "formula" else ideals.ideal_count_formula(n)
            hook = ideals.ideal_count_hook_formula(n, args.budget)
            structural = (result.total if isinstance(result, IdealCountReport)
                          and result.method == "structural"
                          else ideals.ideal_count_by_trees(n, args.budget).total)
    except TooLarge as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3

    if args.cross_check:
        mismatches = []
        if hook != formula:
            mismatches.append(f"hook route {hook} != formula {formula}")
        if structural != formula:
            mismatches.append(f"structural route {structural} != formula {formula}")
        if isinstance(result, IdealCountReport) and result.method == "bruteforce":
            at_q = formula.evaluate(result.q)
            if result.total != at_q:
                mismatches.append(f"brute force {result.total} != formula({result.q}) = {at_q}")
        if mismatches:
            for m in mismatches:
                print(f"cross-check mismatch: {m}", file=sys.stderr)
            return 4

    if args.format == "json":
        if isinstance(result, IdealCountReport):
            payload = report_json(result)
        else:
            payload = {"n": n, "method": "formula", "total": poly_terms(result),
                       "factored": factored_census_str(n, core)}
            if args.q is not None:
                payload["q"] = args.q
                payload["value_at_q"] = result.evaluate(args.q)
        if args.cross_check:
            payload["cross_check"] = "ok"
        if args.header:
            payload = with_meta(payload)
        return emit(json.dumps(payload, indent=2) + "\n", args.out)

    lines = []
    if args.header:
        lines.append(header_line())
    if isinstance(result, IdealCountReport):
        tag = f" at q={result.q}" if result.q is not None else ""
        lines.append(f"codim {n} census{tag}, {result.method} route")
        lines.extend(report_text_lines(result))
    else:
        lines.append(f"codim {n} census, formula route")
        lines.append(f"factored: {factored_census_str(n, core)}")
        lines.append(f"expanded: {result}")
        if args.q is not None:
            lines.append(f"value at q={args.q}: {result.evaluate(args.q)}")
    if args.cross_check:
        lines.append("cross-check: all routes agree")
    return emit("\n".join(lines) + "\n", args.out)


# -- bijection ---------------------------------------------------------------


def parse_congruence_text(text: str) -> RightCongruence:
    mapping: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ValueError(f"expected 'c -> f(c)', got {line!r}")
        left, right = line.split("->", 1)
        leaf = parse_word(left)
        if leaf in mapping:
            raise ValueError(f"leaf {word_str(leaf)} is given twice")
        mapping[leaf] = parse_word(right)
    tree = CodeTree.from_leaves(mapping.keys())
    return RightCongruence.from_map(tree, mapping)


def congruence_text(rc: RightCongruence) -> str:
    return "\n".join(f"{word_compact(c)} -> {word_compact(p)}"
                     for c, p in zip(rc.tree.leaves, rc.images))


def cmd_bijection(args) -> int:
    if args.theta is not None:
        try:
            theta = parse_permutation(args.theta)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            rc = from_indecomposable(theta)
        except NotIndecomposable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 5
        print(congruence_text(rc))
        if args.roundtrip:
            back = to_indecomposable(rc)
            if back != theta:
                print(f"error: roundtrip produced {permutation_str(back)}", file=sys.stderr)
                return 1
            print(f"roundtrip ok: {permutation_str(back)}")
        return 0

    try:
        with open(args.congruence_file) as fh:
            rc = parse_congruence_text(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.congruence_file}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        theta = to_indecomposable(rc)
    except NotRegular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    print(permutation_str(theta))
    if args.roundtrip:
        if from_indecomposable(theta) != rc:
            print("error: roundtrip did not reproduce the congruence", file=sys.stderr)
            return 1
        print("roundtrip ok")
    return 0


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        primes = tuple(linfq.check_prime(int(x)) for x in args.primes.split(","))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.max_n < 1:
        print("error: --max-n must be at least 1", file=sys.stderr)
        return 2
    # no check walks past S_(max_n+1), and (max_n+1)! >= 2**max_n
    if args.max_n >= args.budget.bit_length() or factorial(args.max_n + 1) > args.budget:
        print(f"error: budget exceeded: {args.max_n + 1}! permutations exceed "
              f"budget {args.budget}", file=sys.stderr)
        return 3
    cfg = checks.CheckConfig(max_n=args.max_n, primes=primes, seed=args.seed,
                             budget=args.budget)
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    failures = skipped = total = 0
    for suite in names:
        for label, fn in checks.SUITES[suite]:
            ok, detail, cases, dt = checks.run_check(fn, cfg)
            mark = "FAIL" if not ok else " ok " if cases else "skip"
            suffix = f": {detail}" if detail else ""
            print(f"[{mark}] {suite}: {label} ({dt:.3f}s){suffix}")
            failures += not ok
            skipped += ok and not cases
            total += 1
    passed = total - failures - skipped
    print(f"{passed}/{total} checks passed" + (f", {skipped} skipped" if skipped else ""))
    return 0 if failures == 0 else 1


# -- export ------------------------------------------------------------------


def build_export(args) -> tuple[dict, list[list[str]]]:
    """Returns (json payload, csv rows including the column header)."""
    n = args.n
    if args.object == "indec-polys":
        polys = list(enumerate(permstat.indec_inversion_polynomials(n), start=1))
        payload = {"max_m": n,
                   "polynomials": [{"m": m, "terms": poly_terms(p)} for m, p in polys]}
        rows = [["m", "exp", "coef"]]
        for m, p in polys:
            rows.extend([str(m), str(e), str(c)] for e, c in p.terms)
        return payload, rows
    if args.object == "ideal-census":
        if args.q is None:
            report = ideals.ideal_count_by_trees(n, args.budget)
        else:
            report = ideals.ideal_count_brute_force(n, args.q, args.budget)
        return report_json(report), report_csv_rows(report)
    if args.object == "cells":
        cd = ideals.cell_decomposition(n, args.budget)
        payload = {"n": n, "cells": [{"theta": permutation_str(c.theta),
                                      "torus_rank": c.torus_rank,
                                      "affine_dim": c.affine_dim} for c in cd.cells]}
        rows = [["theta", "torus_rank", "affine_dim"]]
        rows.extend([permutation_str(c.theta), str(c.torus_rank), str(c.affine_dim)]
                    for c in cd.cells)
        return payload, rows
    # enumerate_regular(n) visits hall_count(n) >= n! >= 2**(n-1) candidates
    if args.object in ("congruences", "subgroups") and (
            n > args.budget.bit_length() or congruence.hall_count(n) > args.budget):
        raise TooLarge(f"hall_count({n}) candidates exceed budget {args.budget}")
    if args.object == "congruences":
        items = list(congruence.enumerate_regular(n))
        payload = {"n": n, "congruences": [
            {"index": i, "map": {word_str(c): word_str(p)
                                 for c, p in zip(rc.tree.leaves, rc.images)}}
            for i, rc in enumerate(items, start=1)]}
        rows = [["index", "leading", "image"]]
        for i, rc in enumerate(items, start=1):
            rows.extend([str(i), word_str(c), word_str(p)]
                        for c, p in zip(rc.tree.leaves, rc.images))
        return payload, rows
    if args.object == "subgroups":
        gens = [[group_word_str(g) for g in subgroup_generators(rc)]
                for rc in congruence.enumerate_regular(n)]
        payload = {"n": n, "subgroups": [{"index": i, "generators": g}
                                         for i, g in enumerate(gens, start=1)]}
        rows = [["index", "generator"]]
        for i, g in enumerate(gens, start=1):
            rows.extend([str(i), w] for w in g)
        return payload, rows
    raise AssertionError(args.object)


def cmd_export(args) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return 2
    if args.q is not None:
        if args.object != "ideal-census":
            print("error: --q only applies to ideal-census", file=sys.stderr)
            return 2
        try:
            linfq.check_prime(args.q)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        payload, rows = build_export(args)
    except TooLarge as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        if args.header:
            payload = with_meta(payload)
        return emit(json.dumps(payload, indent=2) + "\n", args.out)
    buf = io.StringIO()
    if args.header:
        buf.write(header_line() + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return emit(buf.getvalue(), args.out)


# -- argument wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealcensus",
        description="Exact censuses of finite-codimension right ideals over "
                    "the free group algebra, and the combinatorics behind them.")
    parser.add_argument("--version", action="version", version=f"idealcensus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="census of right ideals of one codimension")
    p_count.add_argument("--codim", type=int, required=True, metavar="N")
    p_count.add_argument("--q", type=int, default=None,
                         help="prime; evaluate (or census over F_q for bruteforce)")
    p_count.add_argument("--method", choices=["formula", "structural", "bruteforce"],
                         default="formula")
    p_count.add_argument("--cross-check", action="store_true",
                         help="run the independent routes and compare")
    p_count.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="bound on each enumeration: matrices per letter "
                              "and tree (bruteforce), trees (structural), "
                              "permutations (hook route of --cross-check); "
                              "exit 3 when exceeded")
    p_count.add_argument("--format", choices=["text", "json"], default="text")
    p_count.add_argument("--out", default=None, metavar="PATH")
    p_count.add_argument("--no-header", dest="header", action="store_false")
    p_count.set_defaults(func=cmd_count)

    p_bij = sub.add_parser("bijection",
                           help="translate between congruences and indecomposable permutations")
    group = p_bij.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", default=None, metavar="PERM",
                       help="one-line permutation, e.g. 325461")
    group.add_argument("--congruence-file", default=None, metavar="PATH",
                       help="file of lines 'c -> f(c)'")
    p_bij.add_argument("--roundtrip", action="store_true",
                       help="apply the inverse direction and confirm")
    p_bij.set_defaults(func=cmd_bijection)

    p_verify = sub.add_parser("verify", help="run the exhaustive cross-check suites")
    p_verify.add_argument("--suite", choices=["all", *checks.SUITES], default="all")
    p_verify.add_argument("--max-n", type=int, default=5)
    p_verify.add_argument("--primes", default="2,3", metavar="P1,P2,...")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                          help="bound on each enumeration; exit 3 when the "
                               "(max-n+1)! permutations exceed it")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser(
        "export", help="dump objects as JSON or CSV",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="CSV columns per object:\n"
               "  indec-polys   m,exp,coef\n"
               "  ideal-census  ranks,lengths,k,N,M,lambda,contribution\n"
               "  cells         theta,torus_rank,affine_dim\n"
               "  congruences   index,leading,image\n"
               "  subgroups     index,generator")
    p_export.add_argument("--object", required=True,
                          choices=["indec-polys", "ideal-census", "cells",
                                   "congruences", "subgroups"])
    p_export.add_argument("--n", type=int, required=True)
    p_export.add_argument("--q", type=int, default=None,
                          help="prime; brute-force census instead of structural")
    p_export.add_argument("--format", choices=["json", "csv"], default="json")
    p_export.add_argument("--out", default=None, metavar="PATH")
    p_export.add_argument("--no-header", dest="header", action="store_false")
    p_export.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                          help="bound on the ideal-census enumeration (trees, or "
                               "matrices per letter and tree with --q), on the "
                               "cells' (n+1)! permutations and on the congruences' "
                               "hall_count(n) candidates; exit 3 when exceeded")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if getattr(args, "budget", 1) < 1:
        print("error: --budget must be positive", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
