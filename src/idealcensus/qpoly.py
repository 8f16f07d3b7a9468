"""Exact arithmetic for Laurent polynomials in the variable q.

Every count in this package is a polynomial in q with arbitrary-precision
integer coefficients; intermediate values (prefactors of the shape q^e with
e < 0) need negative exponents, so the base object is a Laurent polynomial.

A value is stored densely: its valuation (smallest exponent) and the tuple
of its coefficients from there up to its degree, with no zero at either
end.  The zero polynomial has the one form (valuation 0, empty tuple), so
equality of values is equality of representations and hashing is safe.
Memory is linear in degree minus valuation, which suits the census
polynomials: their exponents run without gaps.  The public constructor
checks that every exponent and coefficient is an int; the ring operations
build their results from ints they made themselves and skip that check.
``terms`` derives the sparse (exponent, coefficient) pairs, so rendering
reads the same pairs it always did.

Shifting by q^k only moves the valuation, and multiplying by a scalar,
by [n]_q (``LaurentPoly.times_geometric``, a running window sum) or by
(q - 1)^k (``LaurentPoly.times_q_minus_one``, k passes of a shift less
the value) is one pass per factor.  Every other product runs one dense
schoolbook loop.  The census's long products are by these factors, and
the rest of its work runs in packed ints: a polynomial with
coefficients in 0 .. 2^w - 1 is one int at q = 2^w, and ``unpack``
reads it back from slots of w / 8 bytes.  The formula route's P_m comes
from a DP over such ints (``permstat.lehmer_indec_polynomial``, 42 ms
for P_61), and the tree route's total from one such sum over its tree
keys (``ideals.census_by_keys``, 1.0 ms at codim 10 against 8.4 ms
with one product per λ), so the long schoolbook products left are
those of the inverse-series recursion, a witness.

``TruncatedSeries`` layers formal power series in an auxiliary variable t
on top, with LaurentPoly coefficients, up to a fixed truncation order.  It
exists for the generating-series cross-checks and supports only what those
need: multiplication and inversion of a series with constant term 1.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, neg, sub
from typing import TYPE_CHECKING, Iterable, Mapping, Union

if TYPE_CHECKING:
    from fractions import Fraction  # imported where evaluation needs it


class EvalAtZero(ZeroDivisionError):
    """Evaluation at 0 of a polynomial with a negative exponent."""


class NonUnitConstantTerm(ValueError):
    """Series inversion requires constant term exactly 1."""


PolyLike = Union["LaurentPoly", int]


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("_val", "_dense")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coef in items:
            if not isinstance(exp, int) or not isinstance(coef, int):
                raise TypeError("exponents and coefficients must be int")
            acc[exp] = acc.get(exp, 0) + coef
        exps = [e for e, c in acc.items() if c]
        low = min(exps, default=0)
        dense = [0] * (max(exps) - low + 1) if exps else []
        for e in exps:
            dense[e - low] = acc[e]
        _set_val(self, low)
        _set_dense(self, tuple(dense))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def monomial(cls, exp: int, coef: int = 1) -> "LaurentPoly":
        return cls(((exp, coef),))

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """Pairs (exponent, coefficient), strictly increasing exponents."""
        return tuple((e, c) for e, c in enumerate(self._dense, self._val) if c)

    def coefficient(self, exp: int) -> int:
        i = exp - self._val
        return self._dense[i] if 0 <= i < len(self._dense) else 0

    @property
    def is_zero(self) -> bool:
        return not self._dense

    @property
    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return self._val + len(self._dense) - 1 if self._dense else None

    @property
    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return self._val if self._dense else None

    # -- ring operations ------------------------------------------------

    def __add__(self, other: PolyLike) -> "LaurentPoly":
        return _combine(self, as_poly(other), add)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _poly(self._val, tuple(map(neg, self._dense)))

    def __sub__(self, other: PolyLike) -> "LaurentPoly":
        return _combine(self, as_poly(other), sub)

    def __rsub__(self, other: PolyLike) -> "LaurentPoly":
        return _combine(as_poly(other), self, sub)

    def __mul__(self, other: PolyLike) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return ZERO
            return _poly(self._val, tuple(map(other.__mul__, self._dense)))
        other = as_poly(other)
        a, b = self._dense, other._dense
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        # over the integers the end coefficients of a product are the
        # nonzero products of the operands' end coefficients: no trim
        width = len(b)
        out = [0] * (len(a) + width - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + width] = map(add, out[i:i + width], map(c.__mul__, b))
        return _poly(self._val + other._val, tuple(out))

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
        return _poly(self._val + k, self._dense) if self._dense else self

    def times_geometric(self, n: int) -> "LaurentPoly":
        """Multiply by [n]_q = 1 + q + ... + q**(n-1), the q-analog of n,
        in one pass: coefficient k of the product is the sum of the n
        coefficients k - n + 1 .. k of self, a difference of two prefix
        sums."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if not n or not self._dense:
            return ZERO
        # prefix sums of self, with n - 1 zeros before them and n - 1
        # copies of the total after
        ext = [0] * (n - 1)
        ext += accumulate(self._dense, initial=0)
        ext += [ext[-1]] * (n - 1)
        return _poly(self._val, tuple(map(sub, ext[n:], ext)))

    def times_q_minus_one(self, k: int) -> "LaurentPoly":
        """Multiply by (q - 1)**k in k passes: each is q times the value
        less the value, so coefficient i becomes c[i-1] - c[i].  The end
        coefficients -c[0] and c[-1] stay nonzero: no trim."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if not self._dense:
            return self
        # lists between passes: the many short tuples a pass per value
        # would free are kept by the interpreter's tuple free lists
        dense = [*self._dense]
        for _ in range(k):
            dense = [*map(sub, [0, *dense], [*dense, 0])]
        return _poly(self._val, tuple(dense))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: int | Fraction) -> int | Fraction:
        """Exact value at ``point``, by Horner's rule.

        Returns an int whenever the exact result is an integer (always the
        case for an integer point and nonnegative exponents), otherwise a
        Fraction.  Raises EvalAtZero for point 0 when a negative exponent
        is present in the canonical form.  At a non-int point a/b, Horner's
        rule runs in ints on the numerator sum c_k a^k b^(d-k), d the
        degree less the valuation, and one Fraction is built at the end.
        """
        if point == 0:
            if self._dense and self._val < 0:
                raise EvalAtZero("negative exponent at point 0")
            return self.coefficient(0)
        if not isinstance(point, int):
            from fractions import Fraction
            x = Fraction(point)
            a, b = x.numerator, x.denominator
            # the value is num / b^d times (a/b)^val, d = degree - val
            num, power = 0, 1
            for c in reversed(self._dense):
                num = num * a + c * power
                power *= b
            val, top = self._val, self._val + len(self._dense) - 1  # top = d + val
            value = Fraction(num * a ** max(val, 0) * b ** max(-top, 0),
                             a ** max(-val, 0) * b ** max(top, 0))
            return int(value) if value.denominator == 1 else value
        x = point
        total = 0
        for c in reversed(self._dense):
            total = total * x + c
        if self._val >= 0:
            return total * x ** self._val
        from fractions import Fraction  # a negative exponent
        total = Fraction(total) * Fraction(x) ** self._val
        return int(total) if total.denominator == 1 else total

    # -- plumbing ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = as_poly(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._val == other._val and self._dense == other._dense

    def __hash__(self) -> int:
        return hash((self._val, self._dense))

    def __bool__(self) -> bool:
        return bool(self._dense)

    def __repr__(self) -> str:
        return f"LaurentPoly({list(self.terms)!r})"

    def __str__(self) -> str:
        if not self._dense:
            return "0"
        chunks: list[str] = []
        for e, c in reversed(self.terms):
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


_set_val = LaurentPoly._val.__set__
_set_dense = LaurentPoly._dense.__set__


def _poly(val: int, dense: tuple[int, ...]) -> LaurentPoly:
    """The value with valuation ``val`` and coefficients ``dense``, which
    the caller made from ints, with no zero at either end; nothing is
    type-checked.  For the ring operations only."""
    poly = object.__new__(LaurentPoly)
    _set_val(poly, val if dense else 0)
    _set_dense(poly, dense)
    return poly


def _combine(p: LaurentPoly, r: LaurentPoly, op) -> LaurentPoly:
    """p + r or p - r, as ``op`` is ``operator.add`` or ``operator.sub``:
    r's coefficients are combined into a copy of p's over their overlap,
    and the zeros that cancellation leaves at either end are trimmed."""
    a, b = p._dense, r._dense
    if not b:
        return p
    if not a:
        return r if op is add else -r
    low = min(p._val, r._val)
    out = [0] * (max(p._val + len(a), r._val + len(b)) - low)
    i = p._val - low
    out[i:i + len(a)] = a
    j = r._val - low
    out[j:j + len(b)] = map(op, out[j:j + len(b)], b)
    hi = len(out)
    while hi and not out[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not out[lo]:
        lo += 1
    return _poly(low + lo, tuple(out[lo:hi]))


ZERO = LaurentPoly()
ONE = LaurentPoly(((0, 1),))
Q = LaurentPoly(((1, 1),))


def as_poly(value: PolyLike) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return _poly(0, (value,) if value else ())
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def unpack(value: int, width: int) -> LaurentPoly:
    """The polynomial whose value at q = 2^(8 * width) is ``value``, each
    coefficient read from one slot of ``width`` bytes: exact when every
    coefficient lies in 0 .. 2^(8 * width) - 1, as the packed DPs of
    ``permstat`` and ``ideals`` make sure by their choice of width."""
    size = (len(format(value, "x")) + 1) // 2  # bytes
    buf = value.to_bytes(-(-size // width) * width, "little")
    return LaurentPoly(enumerate(int.from_bytes(buf[i:i + width], "little")
                                 for i in range(0, len(buf), width)))


def q_factorial(n: int) -> LaurentPoly:
    """Product of the q-analogs 1..n; the inversion generating function.
    Each factor [i]_q is applied by ``LaurentPoly.times_geometric``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = ONE
    for i in range(2, n + 1):
        result = result.times_geometric(i)
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
