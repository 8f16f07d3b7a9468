"""Exact arithmetic for Laurent polynomials in the variable q.

Every count in this package is a polynomial in q with arbitrary-precision
integer coefficients; intermediate values (prefactors of the shape q^e with
e < 0) need negative exponents, so the base object is a Laurent polynomial.
A value is stored as a tuple of (exponent, coefficient) pairs sorted by
exponent with no zero coefficient ever kept, so equality of values is
equality of representations and hashing is safe.  The public constructor
checks that every exponent and coefficient is an int; the ring operations
build their results from int-keyed data they made themselves and go
through ``LaurentPoly._trusted``, which only drops zeros and sorts.

``TruncatedSeries`` layers formal power series in an auxiliary variable t
on top, with LaurentPoly coefficients, up to a fixed truncation order.  It
exists for the generating-series cross-checks and supports only what those
need: multiplication and inversion of a series with constant term 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union


class EvalAtZero(ZeroDivisionError):
    """Evaluation at 0 of a polynomial with a negative exponent."""


class NonUnitConstantTerm(ValueError):
    """Series inversion requires constant term exactly 1."""


PolyLike = Union["LaurentPoly", int]


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coef in items:
            if not isinstance(exp, int) or not isinstance(coef, int):
                raise TypeError("exponents and coefficients must be int")
            acc[exp] = acc.get(exp, 0) + coef
        object.__setattr__(self, "_terms",
                           tuple(sorted((e, c) for e, c in acc.items() if c)))

    @classmethod
    def _trusted(cls, acc: dict[int, int]) -> "LaurentPoly":
        """The canonical value of ``acc``, whose keys and values are known
        to be ints: zero coefficients dropped, exponents sorted, nothing
        type-checked.  For the ring operations only."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms",
                           tuple(sorted((e, c) for e, c in acc.items() if c)))
        return poly

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def monomial(cls, exp: int, coef: int = 1) -> "LaurentPoly":
        return cls(((exp, coef),))

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """Pairs (exponent, coefficient), strictly increasing exponents."""
        return self._terms

    def coefficient(self, exp: int) -> int:
        for e, c in self._terms:
            if e == exp:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return self._terms[-1][0] if self._terms else None

    @property
    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return self._terms[0][0] if self._terms else None

    # -- ring operations ------------------------------------------------

    def __add__(self, other: PolyLike) -> "LaurentPoly":
        other = as_poly(other)
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._trusted(acc)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({e: -c for e, c in self._terms})

    def __sub__(self, other: PolyLike) -> "LaurentPoly":
        return self + (-as_poly(other))

    def __rsub__(self, other: PolyLike) -> "LaurentPoly":
        return as_poly(other) + (-self)

    def __mul__(self, other: PolyLike) -> "LaurentPoly":
        other = as_poly(other)
        acc: dict[int, int] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly._trusted(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q**k (k may be negative)."""
        if not isinstance(k, int):
            raise TypeError("exponents and coefficients must be int")
        return LaurentPoly._trusted({e + k: c for e, c in self._terms})

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: int | Fraction) -> int | Fraction:
        """Exact value at ``point``.

        Returns an int whenever the exact result is an integer (always the
        case for an integer point and nonnegative exponents), otherwise a
        Fraction.  Raises EvalAtZero for point 0 when a negative exponent
        is present in the canonical form.
        """
        if point == 0:
            if self._terms and self._terms[0][0] < 0:
                raise EvalAtZero("negative exponent at point 0")
            return self.coefficient(0)
        if isinstance(point, int) and (not self._terms or self._terms[0][0] >= 0):
            return sum(c * point ** e for e, c in self._terms)
        x = Fraction(point)
        total = sum((c * x ** e for e, c in self._terms), Fraction(0))
        return int(total) if total.denominator == 1 else total

    # -- plumbing ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = as_poly(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({list(self._terms)!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for e, c in reversed(self._terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "q" if e == 1 else f"q^{e}"
                body = power if mag == 1 else f"{mag}{power}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(("+ " if c > 0 else "- ") + body)
        return " ".join(chunks)


ZERO = LaurentPoly()
ONE = LaurentPoly(((0, 1),))
Q = LaurentPoly(((1, 1),))


def as_poly(value: PolyLike) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly._trusted({0: value})
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def geometric(n: int) -> LaurentPoly:
    """1 + q + ... + q**(n-1); the q-analog of the integer n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return LaurentPoly({e: 1 for e in range(n)})


def q_factorial(n: int) -> LaurentPoly:
    """Product of the q-analogs 1..n; the inversion generating function."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = ONE
    for i in range(1, n + 1):
        result = result * geometric(i)
    return result


class TruncatedSeries:
    """Power series in t, coefficients LaurentPoly, truncated at t**order."""

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[PolyLike]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        polys = tuple(as_poly(c) for c in coeffs)
        if len(polys) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(polys)}")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_coeffs", polys)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> LaurentPoly:
        if not 0 <= k <= self._order:
            raise IndexError(f"coefficient index {k} out of range")
        return self._coeffs[k]

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        n = self._order
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self._coeffs):
            if a.is_zero:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(n, out)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse mod t**(order+1); constant term must be 1."""
        if self._coeffs[0] != ONE:
            raise NonUnitConstantTerm("series constant term must be 1")
        inv = [ONE]
        for k in range(1, self._order + 1):
            acc = ZERO
            for j in range(1, k + 1):
                acc = acc + self._coeffs[j] * inv[k - j]
            inv.append(-acc)
        return TruncatedSeries(self._order, inv)

    def _check_order(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self._order != other._order:
            raise ValueError("series orders differ")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self._order}, coeffs={[str(c) for c in self._coeffs]})"
