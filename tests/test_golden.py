"""Golden outputs: exit code and stdout of the CLI for a fixed argv list,
pinned byte for byte in ``golden_cli.json`` (verify's timings blanked).
Regenerate only for an intended output change:
``PYTHONPATH=src python tests/test_golden.py``."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import idealcensus.cli as cli

DATA = Path(__file__).with_name("golden_cli.json")
METHODS = (["formula"], ["structural"], ["bruteforce"], ["bruteforce", "--q", "2"])
EXPORTS = ("indec-polys", "ideal-census", "cells", "congruences", "subgroups")
ARGVS = [
    *(["count", "--codim", "3", "--method", *m, *f, "--no-header"]
      for m in METHODS for f in ([], ["--format", "json"])),
    ["count", "--codim", "3", "--q", "5", "--cross-check", "--no-header"],
    ["bijection", "--theta", "325461", "--roundtrip"],
    ["verify", "--suite", "all", "--max-n", "3", "--primes", "2"],
    *(["export", "--object", obj, "--n", "3", "--format", fmt, "--no-header"]
      for obj in EXPORTS for fmt in ("json", "csv")),
    ["export", "--object", "congruences", "--n", "4", "--format", "csv", "--no-header"],
    ["count", "--codim", "2", "--q", "5", "--format", "json", "--no-header"],
    *(["count", "--codim", "2", *m, "--cross-check", "--format", "json", "--no-header"]
      for m in ([], ["--method", "structural"], ["--method", "bruteforce", "--q", "2"])),
    *(["export", "--object", "ideal-census", "--n", "2", "--q", "2", "--format", fmt,
       "--no-header"] for fmt in ("json", "csv")),
    *(["count", "--codim", "2", "--method", "structural", "--q", "5", *f, "--no-header"]
      for f in ([], ["--format", "json"])),
]


def run(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return [code, re.sub(r" \(\d+\.\d{3}s\)", " (-)", out.getvalue())]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_golden(argv):
    assert run(argv) == json.loads(DATA.read_text())[" ".join(argv)]


if __name__ == "__main__":
    DATA.write_text(json.dumps({" ".join(a): run(a) for a in ARGVS}, indent=1) + "\n")
