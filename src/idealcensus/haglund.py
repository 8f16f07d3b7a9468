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

``hook_sums(n)`` gives the hook sum of every staircase of size n from
one walk of S_n, where ``haglund_hook_sum`` walks the fitting
permutations once per staircase (220,179 permutations for the 4,706
staircases of size <= 7, against the 5,914 of S_<=7).  The walk rests
on one lemma: l increases weakly, so s fits l exactly when the prefix
maxima m_i = max(s(1), ..., s(i)) satisfy m_i <= l_i for every i.  The
prefix maxima are themselves a staircase, with m_i >= i and m_n = n.
So each permutation is counted once, at its prefix maxima, and the sum
of a staircase l is the sum over the prefix-maxima keys below l
componentwise.  ``checks`` compares the two for every staircase of size
<= 5 and both with the product up to ``--max-n``.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations_with_replacement, permutations, product
from math import comb, factorial
from typing import Iterator, Sequence

from .linfq import DEFAULT_BUDGET, charge
from .linfq import count_invertible_support  # noqa: F401  re-exported; perfbench traces it here
from .permstat import Perm, hook_number, inversions
from .qpoly import LaurentPoly, ZERO, unpack

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
    still free, for some j < parts[i-1] - (i - 1).  The choices j of all
    rows but the last two run as one odometer (``itertools.product``) in
    lexicographic order, and a larger j takes a larger value, so the
    permutations come in lexicographic order too.  The last two rows
    share the two values left, lo < hi: the last row needs parts[n-1] =
    n, and row n - 1 takes lo, or first lo and then hi when
    parts[n-2] = n.  Nothing recurses, so any length fits under the
    interpreter's recursion limit."""
    t = check_partition(parts)
    n = len(t)
    if n < 2:
        if t == tuple(range(1, n + 1)):  # () or (1,)
            yield t
        return
    if t[-1] < n or t[-2] < n - 1:
        return
    swap = t[-2] == n
    values = range(1, n + 1)
    for picks in product(*(range(v - i) for i, v in enumerate(t[:-2]))):
        free = list(values)
        head = tuple(map(free.pop, picks))
        lo, hi = free
        yield head + (lo, hi)
        if swap:
            yield head + (hi, lo)


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


def hook_sums(n: int, budget: int = DEFAULT_BUDGET) -> dict[Partition, LaurentPoly]:
    """{l: haglund_hook_sum(l)} for every l in ``partitions_bounded(n)``,
    from one walk of S_n (see the module docstring).

    Each permutation adds q^inv(s) to the packed int of its prefix
    maxima, at q = 2^w: a coefficient counts permutations, at most n!,
    so slots of w >= bitlen(n!) + 1 bits, in whole bytes, read every sum
    back exactly.  The sums over the downsets are prefix sums along one
    coordinate at a time, the last coordinate first.  After the passes
    over coordinates j..n, the entry at l sums the keys equal to l before
    j and at most l from j on.  Such a key is weakly increasing with
    key_i >= i, so the entry at l - e_j is zero unless l - e_j is a
    staircase with l_i >= i too: the passes hold only those staircases,
    and their lexicographic order reaches l - e_j before l.  Each sum,
    times q^C(n,2) (the hook number is inv + C(n,2)) and (q-1)^n, is
    the hook sum; an l with some l_i < i gets ``ZERO``.  The n!
    permutations are charged against ``budget`` first."""
    charge(n, factorial, budget, f"{n}! permutations")
    width = len(format(factorial(n), "x")) // 2 + 1  # bytes per slot
    w = 8 * width
    packed: dict[Partition, int] = {}
    for s in permutations(range(1, n + 1)):
        key = tuple(accumulate(s, max))
        packed[key] = packed.get(key, 0) + (1 << w * inversions(s))
    # every staircase with l_i >= i, in lexicographic order; each packed
    # int and each sum is popped once read, so no two copies stay alive
    sums = {t: packed.pop(t, 0) for t in partitions_bounded(n)
            if all(v > i for i, v in enumerate(t))}
    for j in reversed(range(n)):
        for t, total in sums.items():
            below = sums.get(t[:j] + (t[j] - 1,) + t[j + 1:])
            if below:
                sums[t] = total + below
    shift = comb(n, 2)
    return {t: unpack(sums.pop(t), width).shift(shift).times_q_minus_one(n) if t in sums
            else ZERO for t in partitions_bounded(n)}
