"""End-to-end exercises of the command-line interface.

Each documented exit code is produced at least once; the two failure
codes that need a broken invariant (1 and 4) are induced by patching a
route to lie.
"""

import json
import re
import time

import pytest

import idealcensus.checks as checks
import idealcensus.cli as cli
import idealcensus.congruence as congruence
import idealcensus.ideals as ideals
import idealcensus.permstat as permstat
import idealcensus.words as words
from idealcensus.ideals import IdealCountReport, TreeEntry
from idealcensus.qpoly import LaurentPoly
from idealcensus.words import TreeSignature


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count -------------------------------------------------------------------


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


def test_count_formula_solves_the_recursion_once(capsys, monkeypatch):
    calls = []
    real = permstat.indec_inversion_polynomials

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(permstat, "indec_inversion_polynomials", counted)
    monkeypatch.setattr(ideals, "indec_inversion_polynomials", counted)
    code, _, _ = run(capsys, "count", "--codim", "5", "--no-header")
    assert code == 0
    assert calls == [6]


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


def test_count_formula_codim_thirty(capsys):
    code, out, _ = run(capsys, "count", "--codim", "30", "--no-header")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "codim 30 census, formula route"
    assert lines[1].startswith("factored: (q-1)^31 * q^434 * (q^465 + 30q^464 + ")
    assert lines[2].startswith("expanded: q^930 - q^929 - q^928 + ")


def test_count_cross_check_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli.ideals, "ideal_count_hook_formula",
                        lambda n, budget: LaurentPoly({0: 1}))
    code, _, err = run(capsys, "count", "--codim", "2", "--cross-check")
    assert code == 4
    assert "cross-check mismatch" in err


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
    assert sum(line.startswith("[ ok ]") for line in lines) == 4
    assert lines[-1] == "4/5 checks passed, 1 skipped"


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


def report_from_json(payload: dict) -> IdealCountReport:
    """Inverse of ``cli.report_json``."""

    def uncontrib(value):
        if isinstance(value, int):
            return value
        return LaurentPoly({t["exp"]: int(t["coef"]) for t in value})

    entries = tuple(TreeEntry(
        sig=TreeSignature(size=payload["n"],
                          ranks=tuple(t["signature"]["ranks"]),
                          lengths=tuple(t["signature"]["lengths"])),
        a_count=t["k"],
        a_cells=t["N"],
        b_cells=t["M"],
        partition=tuple(t["lambda"]),
        contribution=uncontrib(t["contribution"]),
    ) for t in payload["trees"])
    return IdealCountReport(n=payload["n"], method=payload["method"],
                            q=payload.get("q"), total=uncontrib(payload["total"]),
                            entries=entries)


def test_export_census_reimport_roundtrip(capsys):
    # parsing an exported census back recovers the exact in-process report
    code, out, _ = run(capsys, "export", "--object", "ideal-census", "--n", "3",
                       "--no-header")
    assert code == 0
    assert report_from_json(json.loads(out)) == ideals.ideal_count_by_trees(3)

    code, out, _ = run(capsys, "export", "--object", "ideal-census", "--n", "2",
                       "--q", "3", "--no-header")
    assert code == 0
    assert report_from_json(json.loads(out)) == ideals.ideal_count_brute_force(2, 3)


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
        code, out, err = run(capsys, "export", "--object", obj, "--n", "4",
                             "--budget", "70")
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
