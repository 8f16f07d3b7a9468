"""The text parsers accept ASCII digits only, name their input in every
error, and on any text either return a result or raise ValueError."""

import pytest
from hypothesis import given, strategies as st

from idealcensus.cli import parse_congruence_text
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


# any text, and texts near the grammar that reach the digit paths
texts = st.one_of(st.text(), st.text(alphabet="ab^-,0123456789 ->\n1٣²#", max_size=40))


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
@given(text=texts)
def test_any_text_parses_or_raises_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass
