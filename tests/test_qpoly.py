"""Laurent polynomial and truncated series arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from idealcensus.qpoly import (
    EvalAtZero,
    LaurentPoly,
    NonUnitConstantTerm,
    ONE,
    Q,
    TruncatedSeries,
    ZERO,
    as_poly,
    geometric,
    q_factorial,
)

polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 9), st.integers(-9, 9), max_size=6),
)


def test_canonical_form_drops_zeros_and_merges():
    p = LaurentPoly([(2, 1), (2, -1), (0, 3), (-1, 4)])
    assert p.terms == ((-1, 4), (0, 3))
    assert LaurentPoly({5: 0}) == ZERO
    assert not ZERO
    assert ZERO.degree is None and ZERO.valuation is None


def test_rejects_non_int_terms():
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})
    with pytest.raises(TypeError):
        as_poly("q")


def test_shift_rejects_non_int():
    with pytest.raises(TypeError):
        Q.shift(1.5)


def _dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def _dict_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def test_ring_operations_build_the_canonical_form():
    # the ring operations skip validation; their results must be exactly
    # what the validating constructor makes of the same data
    rng = random.Random(7)
    for _ in range(400):
        a = {rng.randint(-5, 8): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
        b = {rng.randint(-5, 8): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
        b.update({e: -c for e, c in a.items() if rng.random() < 0.5})  # cancellations
        k = rng.randint(-6, 6)
        p, r = LaurentPoly(a), LaurentPoly(b)
        cases = [
            (p + r, _dict_add(a, b)),
            (p - r, _dict_add(a, {e: -c for e, c in b.items()})),
            (p * r, _dict_mul(a, b)),
            (-p, {e: -c for e, c in a.items()}),
            (p.shift(k), {e + k: c for e, c in a.items()}),
            (p + (-p), {}),
            (p * 3 + 2, _dict_add(_dict_mul(a, {0: 3}), {0: 2})),
        ]
        for got, raw in cases:
            assert got.terms == LaurentPoly(raw).terms
            exps = [e for e, _ in got.terms]
            assert exps == sorted(set(exps))
            assert all(c for _, c in got.terms)
            assert got == LaurentPoly(raw) and hash(got) == hash(LaurentPoly(raw))


def test_immutable():
    with pytest.raises(AttributeError):
        Q._terms = ()


def test_monomial_and_accessors():
    m = LaurentPoly.monomial(-3, 7)
    assert m.coefficient(-3) == 7
    assert m.coefficient(0) == 0
    assert m.degree == m.valuation == -3


def test_int_mixing():
    assert Q + 1 == LaurentPoly({0: 1, 1: 1})
    assert 1 + Q == Q + 1
    assert 1 - Q == LaurentPoly({0: 1, 1: -1})
    assert 3 * Q == LaurentPoly({1: 3})
    assert (Q - 1) * (Q + 1) == LaurentPoly({2: 1, 0: -1})


def test_power():
    assert (Q - 1) ** 3 == LaurentPoly({3: 1, 2: -3, 1: 3, 0: -1})
    assert Q ** 0 == ONE
    with pytest.raises(ValueError):
        Q ** -1


def test_shift_both_ways():
    p = LaurentPoly({0: 1, 2: 5})
    assert p.shift(3).terms == ((3, 1), (5, 5))
    assert p.shift(-1).terms == ((-1, 1), (1, 5))
    assert p.shift(-1).shift(1) == p


def test_evaluate_integer_point():
    p = LaurentPoly({3: 1, 1: -2, 0: 1})  # q^3 - 2q + 1
    assert p.evaluate(2) == 5
    assert p.evaluate(0) == 1
    assert isinstance(p.evaluate(2), int)


def test_evaluate_negative_exponents():
    p = LaurentPoly.monomial(-2)  # q^-2
    assert p.evaluate(2) == Fraction(1, 4)
    assert p.evaluate(Fraction(1, 2)) == 4
    assert isinstance(p.evaluate(Fraction(1, 2)), int)
    with pytest.raises(EvalAtZero):
        p.evaluate(0)


def test_evaluate_zero_with_cancelled_negatives():
    # q^-1 * q = 1 in canonical form, so evaluation at 0 is fine
    p = LaurentPoly.monomial(-1) * Q
    assert p.evaluate(0) == 1


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q - 1) == "q - 1"
    assert str(LaurentPoly({6: 1, 5: -1, 4: -3, 3: 5, 2: -2})) == \
        "q^6 - q^5 - 3q^4 + 5q^3 - 2q^2"
    assert str(LaurentPoly({-1: 2, 1: 1})) == "q + 2q^-1"


def test_geometric_and_q_factorial():
    assert geometric(0) == ZERO
    assert geometric(1) == ONE
    assert geometric(3) == LaurentPoly({0: 1, 1: 1, 2: 1})
    assert q_factorial(0) == ONE
    assert q_factorial(3) == LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1})
    # [4]_q! at q=1 is 4!
    assert q_factorial(4).evaluate(1) == 24


def test_as_poly_lifts_ints():
    assert as_poly(5).evaluate(100) == 5
    p = Q + 1
    assert as_poly(p) is p


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(polys, polys, st.integers(-9, 9).filter(bool))
def test_evaluation_is_a_morphism(a, b, x):
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


@given(polys, st.integers(0, 5))
def test_power_matches_repeated_product(a, k):
    expected = ONE
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


def test_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(2, [ONE])  # wrong length
    with pytest.raises(ValueError):
        TruncatedSeries(-1, [])
    s = TruncatedSeries(1, [ONE, Q])
    t = TruncatedSeries(2, [ONE, Q, ZERO])
    with pytest.raises(ValueError):
        s * t


def test_series_arithmetic():
    s = TruncatedSeries(2, [ONE, Q, ZERO])
    t = TruncatedSeries(2, [ONE, ZERO, ONE])
    assert (s * t).coefficient(2) == ONE


def test_series_inversion_geometric():
    # (1 - t)^-1 = 1 + t + t^2 + ...
    s = TruncatedSeries(4, [ONE, -ONE, ZERO, ZERO, ZERO])
    assert s.invert().coeffs == (ONE,) * 5


def test_series_inversion_roundtrip():
    s = TruncatedSeries(5, [ONE, Q, Q - 1, ZERO, Q * Q, -ONE])
    one = TruncatedSeries(5, [ONE] + [ZERO] * 5)
    assert s * s.invert() == one


def test_series_inversion_needs_unit():
    with pytest.raises(NonUnitConstantTerm):
        TruncatedSeries(1, [Q, ONE]).invert()
