"""Invertible-count polynomials for staircase matrix supports.

For a weakly increasing partition 0 <= l_1 <= ... <= l_n <= n, the
staircase support allows row i to be nonzero in columns 1..l_i only.
The number of invertible n x n matrices over F_q with that support is a
polynomial in q with two very different descriptions:

* Haglund's product: q^C(n,2) * prod(q^(l_i + 1 - i) - 1), which is zero
  as soon as some l_i < i;
* a hook sum: (q-1)^n * sum of q^p(s) over the permutations s fitting
  the staircase (s(i) <= l_i), with p the hook-union statistic.

Both are implemented from their definitions and checked against each
other and against brute-force matrix enumeration.  The fitting
permutations (``constrained_permutations``) are also the reduction maps
C_b -> P_a of a code tree with staircase l, which
``congruence.enumerate_regular`` walks.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, product
from typing import Iterator, Sequence

from .linfq import count_invertible_support  # noqa: F401  re-exported; perfbench traces it here
from .permstat import Perm, hook_number
from .qpoly import LaurentPoly, ZERO

Partition = tuple[int, ...]


def check_partition(parts: Sequence[int]) -> Partition:
    t = tuple(parts)
    n = len(t)
    if any(not isinstance(v, int) for v in t):
        raise ValueError(f"parts must be ints: {t!r}")
    if list(t) != sorted(t) or (t and (t[0] < 0 or t[-1] > n)):
        raise ValueError(f"need 0 <= l_1 <= ... <= l_n <= {n}: {t!r}")
    return t


def haglund_product(parts: Sequence[int]) -> LaurentPoly:
    """q^C(n,2) * prod(q^(l_i + 1 - i) - 1); the zero polynomial when
    some part falls below its row index."""
    t = check_partition(parts)
    n = len(t)
    if any(t[i] < i + 1 for i in range(n)):
        return ZERO
    result = LaurentPoly.monomial(n * (n - 1) // 2)
    for i, v in enumerate(t):
        result = result.shift(v - i) - result  # times q^(v-i) - 1
    return result


def constrained_permutations(parts: Sequence[int]) -> Iterator[Perm]:
    """Permutations with s(i) <= parts[i-1], in lexicographic order.

    The parts increase weakly, so the i - 1 values the rows above row i
    took are all at most parts[i-1]: row i takes the j-th smallest value
    still free, for some j < parts[i-1] - (i - 1).  The choices j run as
    one odometer (``itertools.product``) in lexicographic order, and a
    larger j takes a larger value, so the permutations come in
    lexicographic order too.  Nothing recurses, so any length fits
    under the interpreter's recursion limit."""
    t = check_partition(parts)
    values = range(1, len(t) + 1)
    for picks in product(*(range(v - i) for i, v in enumerate(t))):
        yield tuple(map(list(values).pop, picks))


def haglund_hook_sum(parts: Sequence[int]) -> LaurentPoly:
    """(q-1)^n times the hook-statistic sum over fitting permutations,
    each exponent counted once per permutation that has it; ``ZERO``
    when no permutation fits."""
    t = check_partition(parts)
    hooks = Counter(map(hook_number, constrained_permutations(t)))
    return LaurentPoly(hooks).times_q_minus_one(len(t))


def partitions_bounded(n: int) -> Iterator[Partition]:
    """All weakly increasing tuples 0 <= l_1 <= ... <= l_n <= n, in
    lexicographic order."""
    return combinations_with_replacement(range(n + 1), n)
