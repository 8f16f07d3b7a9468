"""End-to-end exercises of the command-line interface.

Each documented exit code is produced at least once; the two failure
codes that need a broken invariant (1 and 4) are induced by patching a
route to lie.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import idealcensus.checks as checks
import idealcensus.cli as cli
import idealcensus.congruence as congruence
import idealcensus.ideals as ideals
import idealcensus.permstat as permstat
import idealcensus.words as words
from idealcensus.ideals import Census
from idealcensus.qpoly import LaurentPoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**extra):
    """The environment of a child process that imports this package."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


# -- count -------------------------------------------------------------------


def test_package_runs_as_a_module(capsys):
    argv = ["count", "--codim", "2", "--no-header"]
    proc = subprocess.run([sys.executable, "-m", "idealcensus", *argv],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)


# ``dataclasses`` with what it pulls in, and the modules only some commands use
LAZY_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "datetime", "csv", "json"}


def test_importing_the_cli_loads_no_lazy_module():
    # -I ignores PYTHONPATH, so the child puts the package on sys.path itself;
    # what ``site`` loaded before the import does not count
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import idealcensus.cli\n"
            "idealcensus.cli.build_parser()\n"
            "print(*sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(Path(cli.__file__).parents[1])],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "idealcensus.cli" in loaded
    assert not loaded & LAZY_MODULES, sorted(loaded & LAZY_MODULES)


def test_count_formula_text(capsys):
    code, out, _ = run(capsys, "count", "--codim", "2", "--no-header")
    assert code == 0
    assert out.splitlines() == [
        "codim 2 census, formula route",
        "factored: (q-1)^3 * (q^3 + 2q^2)",
        "expanded: q^6 - q^5 - 3q^4 + 5q^3 - 2q^2",
    ]


def test_count_formula_negative_shift_rendered(capsys):
    # codim 1 has prefactor exponent -1; the expansion is still polynomial
    code, out, _ = run(capsys, "count", "--codim", "1", "--no-header")
    assert code == 0
    assert "factored: (q-1)^2 * q^-1 * (q)" in out
    assert "expanded: q^2 - 2q + 1" in out


def test_count_header_line(capsys):
    code, out, _ = run(capsys, "count", "--codim", "1")
    assert code == 0
    assert out.startswith("# idealcensus 0.1.0 generated 2")


def test_count_evaluation_and_cross_check(capsys):
    code, out, _ = run(capsys, "count", "--codim", "2", "--q", "5",
                       "--cross-check", "--no-header")
    assert code == 0
    assert "value at q=5: 11200" in out
    assert "cross-check: all routes agree" in out


def test_count_structural_json(capsys):
    code, out, _ = run(capsys, "count", "--codim", "2", "--method", "structural",
                       "--format", "json", "--no-header")
    assert code == 0
    payload = json.loads(out)
    assert "meta" not in payload
    assert payload["n"] == 2 and payload["method"] == "structural"
    assert len(payload["trees"]) == 2
    total = {t["exp"]: int(t["coef"]) for t in payload["total"]}
    assert total == {6: 1, 5: -1, 4: -3, 3: 5, 2: -2}
    tree = payload["trees"][0]
    assert set(tree) == {"signature", "k", "N", "M", "lambda", "contribution"}


def test_count_structural_skips_the_formula_route(capsys, monkeypatch):
    monkeypatch.setattr(ideals, "ideal_count_formula", lambda n: 1 / 0)
    code, out, _ = run(capsys, "count", "--codim", "2", "--method", "structural",
                       "--no-header")
    assert code == 0
    assert out.splitlines()[0] == "codim 2 census, structural route"


def test_count_formula_runs_the_dp_once_and_the_recursion_never(capsys, monkeypatch):
    calls = []

    def spy(name):
        real = getattr(permstat, name)

        def counted(m, budget):
            calls.append((name, m))
            return real(m, budget)
        return counted

    dp, recursion = spy("lehmer_indec_polynomial"), spy("indec_inversion_polynomials")
    monkeypatch.setattr(permstat, "lehmer_indec_polynomial", dp)
    monkeypatch.setattr(ideals, "lehmer_indec_polynomial", dp)
    monkeypatch.setattr(permstat, "indec_inversion_polynomials", recursion)
    code, _, _ = run(capsys, "count", "--codim", "5", "--no-header")
    assert code == 0
    assert calls == [("lehmer_indec_polynomial", 6)]


def test_count_json_meta_present_by_default(capsys):
    code, out, _ = run(capsys, "count", "--codim", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["tool"] == "idealcensus"


def test_count_bruteforce(capsys):
    code, out, _ = run(capsys, "count", "--codim", "3", "--q", "2",
                       "--method", "bruteforce", "--cross-check", "--no-header")
    assert code == 0
    assert "total: 1088" in out


def test_count_invalid_arguments(capsys):
    assert run(capsys, "count", "--codim", "0")[0] == 2
    assert run(capsys, "count", "--codim", "2", "--q", "6")[0] == 2
    assert run(capsys, "count", "--codim", "2", "--method", "bruteforce")[0] == 2
    assert run(capsys, "count")[0] == 2  # --codim is required
    assert run(capsys, "count", "--codim", "2", "--method", "nonsense")[0] == 2


def test_count_budget_exceeded(capsys):
    code, _, err = run(capsys, "count", "--codim", "3", "--q", "3",
                       "--method", "bruteforce", "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_count_bruteforce_budget_is_per_letter(capsys):
    # 5**12 assignments in the widest tree, but at most 5**9 per letter
    code, out, _ = run(capsys, "count", "--codim", "3", "--q", "5",
                       "--method", "bruteforce", "--no-header")
    assert code == 0
    assert out.splitlines()[1] == "total: 183200000"
    assert ideals.ideal_count_formula(3).evaluate(5) == 183200000


def test_enumerating_routes_exit_3_quickly(capsys):
    start = time.perf_counter()
    for argv in (("count", "--codim", "12", "--cross-check"),  # 13! permutations
                 ("count", "--codim", "20", "--method", "structural"),  # Catalan(20)
                 ("export", "--object", "ideal-census", "--n", "20"),
                 ("count", "--codim", "4", "--method", "structural", "--budget", "13")):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert "budget" in err
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("argv", [
    ("export", "--object", "cells", "--n", "100000000", "--budget", "1"),
    ("count", "--codim", "100000000", "--method", "structural", "--budget", "1"),
    ("export", "--object", "ideal-census", "--n", "100000000", "--budget", "1"),
    ("count", "--codim", "2000", "--q", "2", "--method", "bruteforce", "--budget", "1"),
    ("count", "--codim", "100000000", "--cross-check", "--budget", "1"),
    ("export", "--object", "ideal-census", "--n", "2000", "--q", "2", "--budget", "1"),
    ("count", "--codim", "40", "--cross-check", "--budget", "1"),
    # the slots of the formula route's Lehmer-code DP
    ("count", "--codim", "100", "--budget", "1"),
    ("count", "--codim", "200"),
    ("count", "--codim", "100000"),
    ("export", "--object", "indec-polys", "--n", "83"),
    ("export", "--object", "indec-polys", "--n", "100000"),
    # brute force: p**(n*n) matrices of the widest letter, before the first tree
    ("count", "--codim", "6", "--q", "2", "--method", "bruteforce"),
    ("count", "--codim", "5", "--q", "3", "--method", "bruteforce"),
    ("count", "--codim", "4", "--q", "5", "--method", "bruteforce"),
    ("export", "--object", "ideal-census", "--n", "6", "--q", "2"),
], ids=" ".join)
def test_huge_n_is_refused_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: budget exceeded: ")
    assert "Traceback" not in err


def test_each_distinct_contribution_is_rendered_once(monkeypatch):
    report = ideals.ideal_count_by_trees(6)
    distinct = len(set(entry[-1] for entry in report.entries))
    assert distinct < len(report.entries)
    calls = []
    real = LaurentPoly.__str__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LaurentPoly, "__str__", counted)
    route = ideals.ROUTES["structural"]
    list(cli.census_lines(6, route, None, report))
    assert len(calls) == distinct + 1  # and the total
    calls.clear()
    list(cli.census_csv_rows(report))
    assert len(calls) == distinct
    # JSON shares one term list per distinct contribution
    trees = cli.census_json(6, route, None, report)["trees"]
    assert len({id(t["contribution"]) for t in trees}) == distinct


def test_rendering_hashes_at_most_one_contribution_per_key(monkeypatch):
    # the 132 trees of size 6 have 45 keys (free cells, partition)
    report = ideals.ideal_count_by_trees(6)
    calls = []
    real = LaurentPoly.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LaurentPoly, "__hash__", counted)
    lines = list(cli.census_lines(6, ideals.ROUTES["structural"], None, report))
    assert len(lines) == 2 + 132
    assert len(calls) <= 45


def test_count_formula_codim_thirty(capsys):
    code, out, _ = run(capsys, "count", "--codim", "30", "--no-header")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "codim 30 census, formula route"
    assert lines[1].startswith("factored: (q-1)^31 * q^434 * (q^465 + 30q^464 + ")
    assert lines[2].startswith("expanded: q^930 - q^929 - q^928 + ")
    # every byte of it
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "db12bae098913a794a3b3cc1a34ed7b53e02868d05270542a8b726cd1333b05e")


def test_count_formula_codim_forty_bytes(capsys):
    # recorded from the sparse-pair LaurentPoly, before products were packed
    code, out, _ = run(capsys, "count", "--codim", "40", "--no-header")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "92c87d6dc8ec890cfa99f680f766c02246476e77178321c7a8a9c12376dffd08")


def test_structural_census_bytes(capsys):
    # recorded from the ten-field tree record, before it shrank to five
    code, out, _ = run(capsys, "count", "--codim", "9", "--method", "structural",
                       "--no-header")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f4441b8ec36e8e270f3206ebdd5f032fc2891a96f027152b64f6c22c2cee13ff")
    code, out, _ = run(capsys, "export", "--object", "ideal-census", "--n", "8",
                       "--format", "json", "--no-header")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a1d72ed046882785c5e93e9442ccb8ca3b549ea22e47cc14aa825e8f632af2ad")


def test_json_census_export_bytes(capsys):
    # recorded while each tree's contribution was still encoded anew
    code, out, _ = run(capsys, "export", "--object", "ideal-census", "--n", "9",
                       "--format", "json", "--no-header")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2d1ba09e553ad1bb4f7342baefc4aa942725b8199fdfb0ea8e3a0e0856059ece")


def test_count_cross_check_mismatch(capsys, monkeypatch):
    # one lying route at a time; each mismatch names the route and both values
    lies = [
        ("ideal_count_hook_formula", lambda n, budget: LaurentPoly({0: 1}), (),
         "hook route 1 != formula q^6 - q^5 - 3q^4 + 5q^3 - 2q^2"),
        ("ideal_count_by_trees", lambda n, budget: ideals.ideal_count_brute_force(n, 2), (),
         "structural route 16 != formula q^6 - q^5 - 3q^4 + 5q^3 - 2q^2"),
        ("count_invertible_a_actions", lambda tree, p, budget: 0,
         ("--q", "2", "--method", "bruteforce"), "brute force 0 != formula(2) = 16"),
    ]
    for name, lie, extra, message in lies:
        monkeypatch.setattr(cli.ideals, name, lie)
        code, out, err = run(capsys, "count", "--codim", "2", *extra, "--cross-check")
        monkeypatch.undo()
        assert (code, out) == (4, "")
        assert err.splitlines() == [f"cross-check mismatch: {message}"]


def test_count_routes_come_from_the_table(capsys, monkeypatch):
    toy = ideals.Route("toy", "toy route",
                       lambda n, q, budget: ideals.Census(LaurentPoly({0: 1})))
    monkeypatch.setitem(ideals.ROUTES, "toy", toy)
    code, out, _ = run(capsys, "count", "--help")
    assert code == 0 and "--method {formula,structural,bruteforce,toy}" in out
    # the lying toy route joins the cross-check and is named by its own label
    code, out, err = run(capsys, "count", "--codim", "2", "--cross-check")
    assert (code, out) == (4, "")
    assert err.splitlines() == [
        "cross-check mismatch: toy route 1 != formula q^6 - q^5 - 3q^4 + 5q^3 - 2q^2"]
    code, out, _ = run(capsys, "count", "--codim", "2", "--method", "toy", "--q", "5",
                       "--no-header")
    assert code == 0
    assert out.splitlines() == ["codim 2 census, toy route", "expanded: 1", "value at q=5: 1"]
    # a row that needs q requires --q
    monkeypatch.setitem(ideals.ROUTES, "toy", ideals.Route("toy", "toy route", toy.run,
                                                           needs_q=True))
    assert run(capsys, "count", "--codim", "2", "--method", "toy") == (
        2, "", "error: --method toy requires --q\n")


def test_cli_names_no_route():
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {"formula", "structural", "bruteforce", "hook"}
    assert not [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in names]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and ast.unparse(node.left) == "args.method"]


def test_only_the_census_writers_read_per_tree():
    # a new route cannot bring back a per-route branch in cmd_count
    readers = {getattr(top, "name", None)
               for top in ast.parse(Path(cli.__file__).read_text()).body
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "per_tree"
               or isinstance(node, ast.Name) and node.id == "per_tree"}
    assert readers <= {"census_json", "census_lines", "export_ideal_census"}


def test_count_out_file(tmp_path, capsys):
    target = tmp_path / "census.txt"
    code, out, _ = run(capsys, "count", "--codim", "2", "--no-header",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert "expanded: q^6" in target.read_text()
    assert [f.name for f in tmp_path.iterdir()] == ["census.txt"]


def test_count_out_failed_write_keeps_old_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "census.txt"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, _, err = run(capsys, "count", "--codim", "2", "--no-header",
                       "--out", str(target))
    assert code == 7 and "cannot write" in err
    assert target.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["census.txt"]


def test_count_out_unwritable_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "census.txt"
    target.mkdir()
    code, _, err = run(capsys, "count", "--codim", "2", "--no-header",
                       "--out", str(target))
    assert code == 7 and "cannot write" in err
    assert [f.name for f in tmp_path.iterdir()] == ["census.txt"]
    assert list(target.iterdir()) == []


def test_count_huge_prime_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--codim", "1", "--q", "1000000000000000003",
                       "--no-header")
    assert code == 0
    assert "value at q=1000000000000000003: " in out
    assert time.perf_counter() - start < 1.0
    code, _, err = run(capsys, "count", "--codim", "1", "--q", str(2 ** 89 - 1))
    assert code == 2 and "too large" in err


# -- bijection -----------------------------------------------------------------


def test_bijection_from_theta(capsys):
    code, out, _ = run(capsys, "bijection", "--theta", "325461", "--roundtrip")
    assert code == 0
    assert out.splitlines() == [
        "a^2 -> 1",
        "ab -> 1",
        "ba^2 -> b",
        "bab -> ba",
        "b^2a -> b^2",
        "b^3 -> a",
        "roundtrip ok: 325461",
    ]


def test_bijection_from_file(tmp_path, capsys):
    source = tmp_path / "congruence.txt"
    source.write_text("# comment line\na^2 -> 1\nab -> 1\nba^2 -> b\n"
                      "bab -> ba\nb^2a -> b^2\nb^3 -> a\n")
    code, out, _ = run(capsys, "bijection", "--congruence-file", str(source),
                       "--roundtrip")
    assert code == 0
    assert out.splitlines() == ["325461", "roundtrip ok"]


def test_bijection_decomposable_input(capsys):
    code, _, err = run(capsys, "bijection", "--theta", "12")
    assert code == 5
    assert "indecomposable" in err


def test_bijection_invalid_inputs(capsys, tmp_path):
    assert run(capsys, "bijection", "--theta", "1z")[0] == 2
    assert run(capsys, "bijection")[0] == 2  # one input source required
    assert run(capsys, "bijection", "--congruence-file",
               str(tmp_path / "absent.txt"))[0] == 2
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("aa => 1\n")
    assert run(capsys, "bijection", "--congruence-file", str(garbled))[0] == 2


def test_bijection_rejects_non_ascii_digits(capsys):
    code, out, err = run(capsys, "bijection", "--theta", "٣٢٥٤٦١")
    assert code == 2
    assert out == ""
    assert "٣٢٥٤٦١" in err


def test_bijection_file_rejects_repeated_leaf(tmp_path, capsys):
    source = tmp_path / "repeated.txt"
    source.write_text("a -> 1\nb -> 1\na -> 1\n")
    code, _, err = run(capsys, "bijection", "--congruence-file", str(source))
    assert code == 2
    assert "given twice" in err


def test_bijection_file_rejects_overlong_word(tmp_path, capsys):
    source = tmp_path / "long.txt"
    for exponent in ("1000000000000", "9" * 5000):  # the second is past int()'s digit limit
        source.write_text(f"a^{exponent} -> 1\nb -> 1\n")
        code, _, err = run(capsys, "bijection", "--congruence-file", str(source))
        assert code == 2
        assert "longer than 1000 letters" in err
        assert "'a^" in err


def staircase(m: int) -> str:
    """theta = (m, 1, ..., m - 1), whose congruence has a leaf m - 1 letters long."""
    return ",".join(map(str, [m, *range(1, m)]))


def test_bijection_refuses_a_theta_past_the_word_bound(capsys):
    # its congruence would hold a leaf that --congruence-file cannot read back
    start = time.perf_counter()
    code, out, err = run(capsys, "bijection", "--theta", staircase(1002))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        "argument --theta: 1002 entries; the bijection takes at most 1001")


def test_bijection_file_refuses_its_1002nd_leaf(tmp_path, capsys):
    # the 1024 words of length 10 are the leaves of a code tree, which is never built
    source = tmp_path / "wide.txt"
    source.write_text("".join(f"{''.join(w)} -> 1\n" for w in product("ab", repeat=10)))
    start = time.perf_counter()
    code, out, err = run(capsys, "bijection", "--congruence-file", str(source))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        "argument --congruence-file: line 1002: more than 1001 leaves")


def test_the_largest_staircase_round_trips_through_a_file(tmp_path, capsys):
    theta = staircase(1001)
    code, out, _ = run(capsys, "bijection", "--theta", theta, "--roundtrip")
    *congruence, last = out.splitlines()
    assert (code, last) == (0, f"roundtrip ok: {theta}")
    assert congruence[0] == "a^1000 -> 1"
    source = tmp_path / "staircase.txt"
    source.write_text("\n".join(congruence))
    code, out, _ = run(capsys, "bijection", "--congruence-file", str(source), "--roundtrip")
    assert (code, out.splitlines()) == (0, [theta, "roundtrip ok"])


def test_non_maximal_file_names_the_same_node_under_every_hash_seed(tmp_path):
    # the nodes are checked in sorted order, not in the order of a set
    source = tmp_path / "non_maximal.txt"
    source.write_text("aa -> 1\nabb -> 1\nba -> 1\n")
    for seed in range(1, 7):
        proc = subprocess.run(
            [sys.executable, "-m", "idealcensus.cli", "bijection",
             "--congruence-file", str(source)],
            capture_output=True, text=True, env=child_env(PYTHONHASHSEED=str(seed)),
            timeout=60)
        assert proc.returncode == 2
        assert "not maximal: node ab lacks a child" in proc.stderr, seed


def test_bijection_non_regular_file(tmp_path, capsys):
    source = tmp_path / "irregular.txt"
    source.write_text("a^2 -> a\nab -> 1\nb -> 1\n")
    code, _, err = run(capsys, "bijection", "--congruence-file", str(source))
    assert code == 6
    assert "not regular" in err


def test_bijection_roundtrip_failure_induced(capsys, monkeypatch):
    monkeypatch.setattr(cli, "to_indecomposable", lambda rc: (2, 1))
    code, _, err = run(capsys, "bijection", "--theta", "325461", "--roundtrip")
    assert code == 1
    assert "roundtrip" in err


# -- verify -----------------------------------------------------------------


def test_verify_suite_green(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "words", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "8/8 checks passed"
    assert all(line.startswith("[ ok ]") for line in lines[:-1])
    assert all("(" in line and "s)" in line for line in lines[:-1])


def test_verify_tiny_bound_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "haglund", "--max-n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("[ ok ] haglund: product formula peels one row")
    assert all(line.startswith("[ ok ]") for line in lines[:-1])
    assert lines[-1] == "4/4 checks passed"


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(checks.SUITES, "words", [
        ("forced failure", lambda cfg: iter([("induced", False)])),
        ("forced crash", lambda cfg: ((1 / 0, True) for _ in range(1))),
    ])
    code, out, _ = run(capsys, "verify", "--suite", "words")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("[FAIL] words: forced failure")
    assert lines[0].endswith(": induced")
    assert "raised ZeroDivisionError" in lines[1]
    assert lines[-1] == "0/2 checks passed"


def test_verify_marks_a_check_without_cases_skipped(capsys):
    # the per-tree witness only runs at p <= 3, so these primes give it no case
    code, out, _ = run(capsys, "verify", "--suite", "ideals", "--primes", "5,7",
                       "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[2].startswith("[skip] ideals: per-tree action counts factor as predicted")
    assert "predicted (runs at p <= 3 only) (" in lines[2]
    assert sum(line.startswith("[ ok ]") for line in lines) == 3
    assert lines[-1] == "3/4 checks passed, 1 skipped"


def failing_line(out, label):
    line, = [line for line in out.splitlines() if label in line]
    assert line.startswith("[FAIL]")
    return line.rsplit("s): ", 1)[1]


def test_verify_names_the_failing_word_pair(capsys, monkeypatch):
    monkeypatch.setattr(words, "twisted_key", lambda x: (len(x), x))
    code, out, _ = run(capsys, "verify", "--suite", "words", "--max-n", "3")
    assert code == 1
    detail = failing_line(out, "exhaustive order properties")
    assert re.fullmatch(r"\('[ab]*', '[ab]*'\)", detail), detail


def test_verify_names_the_failing_tree_and_prime(capsys, monkeypatch):
    honest = ideals.count_invertible_b_actions
    monkeypatch.setattr(ideals, "count_invertible_b_actions",
                        lambda tree, p, budget: honest(tree, p, budget) + 1)
    code, out, _ = run(capsys, "verify", "--suite", "ideals", "--max-n", "2",
                       "--primes", "3")
    assert code == 1
    assert failing_line(out, "per-tree action counts") == "{a, b} at p=3"


def test_verify_names_the_failing_t_order(capsys, monkeypatch):
    honest = permstat.indec_inversion_polynomial
    monkeypatch.setattr(permstat, "indec_inversion_polynomial",
                        lambda m: honest(m) + (m == 3))
    code, out, _ = run(capsys, "verify", "--suite", "permstat", "--max-n", "3")
    assert code == 1
    assert failing_line(out, "factorial series") == "t-order 3"


def test_verify_max_n_is_bounded_by_the_budget(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", "words", "--max-n", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "41! permutations exceed budget" in err
    assert run(capsys, "verify", "--suite", "words", "--max-n", "2", "--budget", "5")[0] == 3
    assert run(capsys, "verify", "--suite", "words", "--max-n", "2", "--budget", "6")[0] == 0


def test_verify_checks_each_prime_once():
    assert cli.primes("2,3,2") == (2, 3)
    assert cli.build_parser().parse_args(["verify", "--primes", "3,2,3"]).primes == (3, 2)


def test_verify_invalid_arguments(capsys):
    assert run(capsys, "verify", "--suite", "nope")[0] == 2
    assert run(capsys, "verify", "--primes", "2,4")[0] == 2
    assert run(capsys, "verify", "--primes", "x")[0] == 2
    assert run(capsys, "verify", "--max-n", "0")[0] == 2


# -- export -----------------------------------------------------------------


def test_export_indec_polys_json(capsys):
    code, out, _ = run(capsys, "export", "--object", "indec-polys", "--n", "4",
                       "--no-header")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_m"] == 4
    last = payload["polynomials"][-1]
    assert last["m"] == 4
    assert last["terms"] == [
        {"exp": 3, "coef": "4"}, {"exp": 4, "coef": "5"},
        {"exp": 5, "coef": "3"}, {"exp": 6, "coef": "1"},
    ]


def test_export_census_csv(capsys):
    code, out, _ = run(capsys, "export", "--object", "ideal-census", "--n", "2",
                       "--format", "csv", "--no-header")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ranks,lengths,k,N,M,lambda,contribution"
    assert len(lines) == 3


def test_export_census_brute_json(capsys):
    code, out, _ = run(capsys, "export", "--object", "ideal-census", "--n", "2",
                       "--q", "2", "--no-header")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "bruteforce" and payload["q"] == 2
    assert payload["total"] == 16
    assert sum(t["contribution"] for t in payload["trees"]) == 16


def test_export_congruences(capsys):
    code, out, _ = run(capsys, "export", "--object", "congruences", "--n", "1",
                       "--no-header")
    assert code == 0
    payload = json.loads(out)
    assert payload["congruences"] == [{"index": 1, "map": {"a": "1", "b": "1"}}]


def test_export_subgroups_csv(capsys):
    code, out, _ = run(capsys, "export", "--object", "subgroups", "--n", "2",
                       "--format", "csv", "--no-header")
    assert code == 0
    assert out.splitlines() == [
        "index,generator",
        "1,a", "1,bab^-1", "1,b^2",
        "2,a^2", "2,ab", "2,ba^-1",
        "3,a^2", "3,aba^-1", "3,b",
    ]


def test_export_cells(capsys):
    code, out, _ = run(capsys, "export", "--object", "cells", "--n", "2",
                       "--format", "csv", "--no-header")
    assert code == 0
    assert out.splitlines() == [
        "theta,torus_rank,affine_dim",
        "231,3,2", "312,3,2", "321,3,3",
    ]


def test_export_deterministic_without_header(capsys):
    args = ("export", "--object", "ideal-census", "--n", "3", "--no-header")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second == (0, first[1], "")


def test_export_header_breaks_nothing(capsys):
    code, out, _ = run(capsys, "export", "--object", "cells", "--n", "1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("# idealcensus")


def report_from_json(payload: dict) -> Census:
    """Inverse of ``cli.census_json`` for a tree route; the exported total
    must be the sum of the parsed entries' contributions."""

    def uncontrib(value):
        if isinstance(value, int):
            return value
        return LaurentPoly({t["exp"]: int(t["coef"]) for t in value})

    entries = tuple((tuple(t["signature"]["ranks"]), tuple(t["signature"]["lengths"]),
                     t["k"], t["N"], t["M"], tuple(t["lambda"]),
                     uncontrib(t["contribution"]))
                    for t in payload["trees"])
    report = Census(uncontrib(payload["total"]), entries)
    assert report.total == sum((entry[-1] for entry in entries), 0)
    return report


def test_export_census_reimport_roundtrip(capsys):
    # parsing an exported census back recovers the exact in-process report
    for argv, census in (
            (("--n", "3"), ideals.ideal_count_by_trees(3)),
            (("--n", "2", "--q", "3"), ideals.ideal_count_brute_force(2, 3))):
        code, out, _ = run(capsys, "export", "--object", "ideal-census", *argv,
                           "--no-header")
        assert code == 0
        report = report_from_json(json.loads(out))
        assert report.total == census.total
        assert list(report.entries) == list(census.entries)


def test_export_subgroups_builds_each_generator_list_once(capsys, monkeypatch):
    calls = []

    def counted(rc):
        calls.append(rc)
        return congruence.subgroup_generators(rc)

    monkeypatch.setattr(cli, "subgroup_generators", counted)
    code, _, _ = run(capsys, "export", "--object", "subgroups", "--n", "4",
                     "--format", "csv")
    assert code == 0
    assert len(calls) == congruence.hall_count(4) == 71


def test_export_builds_only_the_requested_format(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a format that was not asked for")

    monkeypatch.setattr(cli, "census_json", refuse)
    code, out, _ = run(capsys, "export", "--object", "ideal-census", "--n", "2",
                       "--format", "csv", "--no-header")
    assert code == 0 and out.startswith("ranks,lengths,")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "census_csv_rows", refuse)
    code, out, _ = run(capsys, "export", "--object", "ideal-census", "--n", "2",
                       "--format", "json", "--no-header")
    assert code == 0 and json.loads(out)["n"] == 2


def test_csv_rows_are_written_as_they_are_made(capsys, monkeypatch):
    def one_row_then_fail(args):
        yield ["231", 3, 2]
        raise RuntimeError("the second row")

    monkeypatch.setitem(cli.EXPORTS, "cells", (cli.EXPORTS["cells"][0], one_row_then_fail))
    with pytest.raises(RuntimeError):
        cli.main(["export", "--object", "cells", "--n", "2", "--format", "csv", "--no-header"])
    assert capsys.readouterr().out == "theta,torus_rank,affine_dim\n231,3,2\n"


def test_export_help_documents_csv_columns(capsys):
    code, out, _ = run(capsys, "export", "--help")
    assert code == 0
    assert "ranks,lengths,k,N,M,lambda,contribution" in out
    assert "theta,torus_rank,affine_dim" in out
    assert "index,generator" in out


def test_export_invalid_arguments(capsys):
    assert run(capsys, "export", "--object", "cells", "--n", "0")[0] == 2
    assert run(capsys, "export", "--object", "cells", "--n", "2", "--q", "2")[0] == 2
    assert run(capsys, "export", "--object", "ideal-census", "--n", "2",
               "--q", "9")[0] == 2
    assert run(capsys, "export", "--object", "mystery", "--n", "2")[0] == 2


@pytest.mark.parametrize("obj", ["cells", "congruences", "subgroups", "ideal-census",
                                 "ideal-census --q 3"])
def test_json_export_rows_stream_as_their_list_encodes(capsys, obj):
    for n in (1, 4):
        code, out, _ = run(capsys, "export", "--object", *obj.split(), "--n", str(n),
                           "--format", "json", "--no-header")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_chunks_encode_iterators_as_lists():
    rows = [{"a": [1, {"b": "x\ny"}]}, {}, [], "z"]
    body = {"meta": {"k": [1, 2]}, "rows": iter(rows), "none": iter(()), "n": 3}
    assert "".join(cli.json_chunks(body)) == json.dumps(
        {**body, "rows": rows, "none": []}, indent=2) + "\n"


def test_json_chunks_render_values_as_json_dumps_does():
    values = [[], {}, -7, 2 ** 64 + 1, -(3 ** 90), True, False, None, 1.5,
              'say "hi"\n\ttab \\ back', "Ωmega é ☃ \U0001f600", "",
              {"outer": {"inner": [[], [-1, [2 ** 70]], {"x": None}], "flag": True}},
              (1, "t"), {1: "int key"}, [{"a": []}, "", [[[]]]]]
    poly = LaurentPoly({-2: 3, 5: -(2 ** 80)})
    values.append([poly])
    rows = [{"value": v, "more": [v, {"k": v}]} for v in values] + values
    rows += [{"contribution": poly}] * 2  # one object, rendered once
    body = {"top": values, "rows": iter(rows), "tail": {"s": "é\n"}}
    expected = json.dumps({**body, "rows": rows}, indent=2, default=cli.poly_terms)
    assert "".join(cli.json_chunks(body)) == expected + "\n"


def test_json_chunks_draw_each_row_as_it_is_written():
    drawn = []

    def rows():
        for i in range(3):
            drawn.append(i)
            yield {"i": i}

    text = ""
    for chunk in cli.json_chunks({"rows": rows()}):
        text += chunk
        if '"i": 0' in text:
            break
    assert drawn == [0]


def test_export_budget_exceeded(capsys):
    code, _, err = run(capsys, "export", "--object", "ideal-census", "--n", "3",
                       "--q", "3", "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_export_cells_budget_exceeded(capsys):
    code, out, err = run(capsys, "export", "--object", "cells", "--n", "7",
                         "--budget", "1")  # 8! permutations
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_export_congruences_budget(capsys):
    # enumerate_regular(4) visits hall_count(4) = 71 candidates
    code, out, _ = run(capsys, "export", "--object", "subgroups", "--n", "4",
                       "--budget", "71", "--no-header")
    assert code == 0
    assert len(json.loads(out)["subgroups"]) == 71
    for obj in ("congruences", "subgroups"):
        for fmt in ("json", "csv"):  # CSV rows stream, but not before the charge
            code, out, err = run(capsys, "export", "--object", obj, "--n", "4",
                                 "--budget", "70", "--format", fmt)
            assert code == 3
            assert out == ""
            assert "budget" in err
    start = time.perf_counter()
    code, out, _ = run(capsys, "export", "--object", "congruences", "--n", "12")
    assert (code, out) == (3, "")
    assert time.perf_counter() - start < 1.0


def test_export_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, _, err = run(capsys, "export", "--object", "cells", "--n", "1",
                       "--out", str(target))
    assert code == 7
    assert "cannot write" in err


def close_after_first_line(argv, first, stderr=subprocess.PIPE):
    """Run the CLI in a child process, read its first stdout line, which
    must be ``first``, and close stdout; return the process."""
    proc = subprocess.Popen([sys.executable, "-m", "idealcensus.cli", *argv],
                            stdout=subprocess.PIPE, stderr=stderr, text=True,
                            env=child_env())
    assert proc.stdout.readline() == first
    proc.stdout.close()
    return proc


def assert_one_error_line(proc):
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 7
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_closed_stdout_exits_7_without_traceback():
    # about 300 kB of CSV, more than a pipe buffers, so the writer meets the closed pipe
    assert_one_error_line(close_after_first_line(
        ["export", "--object", "congruences", "--n", "6", "--format", "csv", "--no-header"],
        "index,leading,image\n"))


def test_closed_stdout_after_text_exits_7():
    # about 330 kB of text, written line by line, so a later line meets the closed pipe
    assert_one_error_line(close_after_first_line(
        ["count", "--codim", "8", "--method", "structural", "--no-header"],
        "codim 8 census, structural route\n"))


def test_closed_pipe_with_stderr_merged_exits_7():
    # 2>&1 | head -1: the error message meets the closed pipe as well
    proc = close_after_first_line(
        ["export", "--object", "congruences", "--n", "6", "--format", "csv", "--no-header"],
        "index,leading,image\n", stderr=subprocess.STDOUT)
    assert proc.wait(timeout=60) == 7


# -- top level ----------------------------------------------------------------


def test_version_and_usage(capsys):
    assert run(capsys, "--version")[0] == 0
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_budget_must_be_positive(capsys):
    for argv in (("count", "--codim", "2", "--budget", "0"),
                 ("verify", "--suite", "words", "--budget", "-5"),
                 ("export", "--object", "cells", "--n", "1", "--budget", "0")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "budget" in err


USAGE_ERRORS = [
    (["count", "--codim", "0"], "--codim",
     "must be at least 1, got 0 (the codimension-0 count is 1; "
     "the closed formula does not cover it)"),
    (["count", "--codim", "2", "--q", "6"], "--q", "modulus must be a prime: 6"),
    (["export", "--object", "ideal-census", "--n", "2", "--q", "9"], "--q",
     "modulus must be a prime: 9"),
    (["verify", "--primes", "2,4"], "--primes", "modulus must be a prime: 4"),
    (["verify", "--max-n", "0"], "--max-n", "must be at least 1, got 0"),
    (["export", "--object", "cells", "--n", "0"], "--n", "must be at least 1, got 0"),
    (["bijection", "--theta", "1z"], "--theta", "not a permutation: '1z'"),
    (["bijection", "--congruence-file", "{absent}"], "--congruence-file",
     "cannot read {absent}: "),
    (["bijection", "--congruence-file", "{garbled}"], "--congruence-file",
     "line 1: expected 'c -> f(c)', got 'aa => 1'"),
    (["count", "--codim", "2", "--budget", "0"], "--budget", "must be at least 1, got 0"),
    (["verify", "--budget", "-5"], "--budget", "must be at least 1, got -5"),
    (["export", "--object", "cells", "--n", "1", "--budget", "0"], "--budget",
     "must be at least 1, got 0"),
]


@pytest.mark.parametrize("argv, flag, message", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _, _ in USAGE_ERRORS])
def test_a_bad_argument_is_a_usage_error(tmp_path, capsys, argv, flag, message):
    files = {"absent": tmp_path / "absent.txt", "garbled": tmp_path / "garbled.txt"}
    files["garbled"].write_text("aa => 1\n")
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("usage: ")
    prefix = f"idealcensus {argv[0]}: error: argument {flag}: "
    assert err.splitlines()[-1].startswith(prefix + message.format(**files))
