"""The text parsers accept ASCII digits only, name their input in every
error, and on any text either return a result or raise ValueError."""

import pytest
from hypothesis import given, strategies as st

from idealcensus.cli import main, parse_congruence_text
from idealcensus.congruence import parse_group_word
from idealcensus.permstat import parse_permutation
from idealcensus.words import parse_word

PARSERS = (parse_word, parse_permutation, parse_group_word, parse_congruence_text)


@pytest.mark.parametrize("parse,text", [
    (parse_word, "a^٣"),
    (parse_word, "a^²"),
    (parse_permutation, "٢١"),
    (parse_permutation, "2,١"),
    (parse_permutation, "2,x"),
    (parse_permutation, "9" * 5000 + ",1"),
    (parse_group_word, "a^٣"),
    (parse_group_word, "a^-²"),
    (parse_group_word, "a^" + "9" * 5000),
    (parse_group_word, "a^1001"),
], ids=lambda v: v.__name__ if callable(v) else ascii(v[:12]))
def test_bad_digits_are_named_in_the_error(parse, text):
    with pytest.raises(ValueError) as info:
        parse(text)
    assert repr(text)[:20] in str(info.value)


def test_ascii_exponents_still_parse():
    assert parse_group_word("a^1000b^-0003") == (("a", 1000), ("b", -3))
    assert parse_permutation("2, 01") == (2, 1)
    assert parse_word("b^2a") == "bba"


@pytest.mark.parametrize("text", ["", " ", "\t\n"])
def test_blank_text_is_not_the_empty_word(text):
    with pytest.raises(ValueError, match="the empty word is written 1") as info:
        parse_word(text)
    assert repr(text) in str(info.value)


def test_a_congruence_line_with_an_empty_side_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="blank word"):
        parse_congruence_text("a -> 1\nb -> \n")
    source = tmp_path / "empty_side.txt"
    source.write_text("a -> 1\nb -> \n")
    code = main(["bijection", "--congruence-file", str(source)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        "argument --congruence-file: line 2: blank word '': the empty word is written 1")


@pytest.mark.parametrize("text, message", [
    ("a -> 1\nb => 1\n", "line 2: expected 'c -> f(c)', got 'b => 1'"),
    ("a -> 1\nb -> 2\n", "line 2: bad character '2' in word '2'"),
    ("ax -> 1\nb -> 1\n", "line 1: bad character 'x' in word 'ax'"),
    ("a -> 1\n -> 1\n", "line 2: blank word '': the empty word is written 1"),
    ("# comment\n\na -> 1\nb -> 1\na -> 1\n", "line 5: leaf a is given twice"),
], ids=["no arrow", "bad image", "bad leaf", "blank leaf", "leaf twice"])
def test_a_congruence_file_error_names_its_line(tmp_path, capsys, text, message):
    with pytest.raises(ValueError) as info:
        parse_congruence_text(text)
    assert str(info.value) == message
    source = tmp_path / "congruence.txt"
    source.write_text(text)
    code = main(["bijection", "--congruence-file", str(source)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f"argument --congruence-file: {message}")


# any text, and texts near the grammar that reach the digit paths
texts = st.one_of(st.text(), st.text(alphabet="ab^-,0123456789 ->\n1٣²#", max_size=40))


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
@given(text=texts)
def test_any_text_parses_or_raises_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass
