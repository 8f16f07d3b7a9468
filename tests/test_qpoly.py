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
    q_factorial,
    unpack,
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


def _dense_operand(rng, length, low, bits):
    """{exponent: coefficient} over ``length`` consecutive exponents from
    ``low``, nonzero at both ends, signed, with interior zeros."""
    coefs = [rng.choice((-1, 1)) * rng.randrange(1, 2 ** bits) for _ in range(length)]
    for i in range(1, length - 1):
        if rng.random() < 0.2:
            coefs[i] = 0
    return {low + i: c for i, c in enumerate(coefs)}


def _assert_canonical(got, raw):
    want = LaurentPoly(raw)
    assert got.terms == want.terms
    assert got == want and hash(got) == hash(want)
    if got:
        assert got.coefficient(got.valuation) and got.coefficient(got.degree)
        assert got.terms[0][0] == got.valuation and got.terms[-1][0] == got.degree


LENGTHS = (1, 2, 7, 8, 9, 24, 61)


def test_product_matches_the_dict_product():
    rng = random.Random(24)
    for la in LENGTHS:
        for lb in LENGTHS:
            for bits in (1, 8, 63, 64, 65, 200):
                a = _dense_operand(rng, la, rng.randint(-9, 9), bits)
                b = _dense_operand(rng, lb, rng.randint(-9, 9), bits)
                p, r = LaurentPoly(a), LaurentPoly(b)
                _assert_canonical(p * r, _dict_mul(a, b))
                _assert_canonical(p * p, _dict_mul(a, a))
                # operands whose ends cancelled when they were built
                ends = {min(b): -b[min(b)], max(b): -b[max(b)]}
                r_trim = r + LaurentPoly(ends)
                _assert_canonical(r_trim, _dict_add(b, ends))
                _assert_canonical(p * r_trim, _dict_mul(a, _dict_add(b, ends)))
                # a difference of products whose ends cancel
                s = LaurentPoly(_dict_add(b, {max(b) + 1: 1}))
                _assert_canonical(p * s - p * r, _dict_mul(a, {max(b) + 1: 1}))


def test_product_with_large_coefficients():
    # every coefficient at +-m, so the middle coefficients of the product
    # reach max|a| * max|b| * min(len a, len b) exactly
    for m in (1, 15, 16, 255, 256, 2 ** 64 - 1, 2 ** 64, 16 ** 40):
        for la, lb in ((8, 8), (8, 40), (50, 50)):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a = {e: sa * m for e in range(la)}
                b = {e - 3: sb * m for e in range(lb)}
                got = LaurentPoly(a) * LaurentPoly(b)
                _assert_canonical(got, _dict_mul(a, b))
                assert got.coefficient(min(la, lb) - 4) == sa * sb * m * m * min(la, lb)


def test_products_with_a_monomial_a_scalar_or_zero():
    rng = random.Random(26)
    for length in LENGTHS:
        a = _dense_operand(rng, length, -4, 90)
        p = LaurentPoly(a)
        for e, c in ((0, 1), (3, -1), (-7, 2 ** 70), (2, -(3 ** 50))):
            _assert_canonical(p * LaurentPoly.monomial(e, c), _dict_mul(a, {e: c}))
            _assert_canonical(LaurentPoly.monomial(e, c) * p, _dict_mul(a, {e: c}))
        for k in (0, 1, -1, 2 ** 80, -(2 ** 65)):
            _assert_canonical(p * k, _dict_mul(a, {0: k}))
            _assert_canonical(k * p, _dict_mul(a, {0: k}))
        _assert_canonical(p * ZERO, {})
        _assert_canonical(ZERO * p, {})
        _assert_canonical(p.shift(-11) * ONE, {e - 11: c for e, c in a.items()})


def test_times_geometric_is_the_product_by_the_q_analog():
    rng = random.Random(27)
    for length in LENGTHS:
        a = _dense_operand(rng, length, rng.randint(-5, 5), 70)
        for n in range(0, 14):
            geometric = {e: 1 for e in range(n)}
            _assert_canonical(LaurentPoly(a).times_geometric(n), _dict_mul(a, geometric))


def test_times_q_minus_one_is_the_product_by_its_power():
    rng = random.Random(28)
    for length in LENGTHS:
        a = _dense_operand(rng, length, rng.randint(-5, 5), 70)
        for k in range(0, 13):
            _assert_canonical(LaurentPoly(a).times_q_minus_one(k),
                              ((Q - ONE) ** k * LaurentPoly(a)).terms)
    for k in range(0, 13):
        assert ZERO.times_q_minus_one(k) == ZERO
    with pytest.raises(ValueError):
        ONE.times_q_minus_one(-1)


def test_immutable():
    with pytest.raises(AttributeError):
        Q._dense = ()


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


def test_evaluate_on_the_fraction_paths():
    # ``fractions`` is imported by these two paths only
    assert LaurentPoly({2: 1, 0: 1}).evaluate(Fraction(1, 3)) == Fraction(10, 9)
    value = LaurentPoly({1: 1, -1: 1}).evaluate(2)  # q + q^-1
    assert value == Fraction(5, 2) and isinstance(value, Fraction)


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
    assert ONE.times_geometric(0) == ZERO
    assert ONE.times_geometric(1) == ONE
    assert ONE.times_geometric(3) == LaurentPoly({0: 1, 1: 1, 2: 1})
    assert ZERO.times_geometric(4) == ZERO
    with pytest.raises(ValueError):
        ONE.times_geometric(-1)
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


@pytest.mark.parametrize("width", [1, 2, 5])
def test_unpack_reads_each_slot_back(width):
    rng = random.Random(width)
    top = (1 << 8 * width) - 1
    for _ in range(50):
        coeffs = {e: rng.choice((0, 1, top, rng.randrange(top + 1))) for e in range(rng.randrange(9))}
        p = LaurentPoly(coeffs)
        assert unpack(p.evaluate(1 << 8 * width), width) == p
    assert unpack(0, width) == ZERO


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
