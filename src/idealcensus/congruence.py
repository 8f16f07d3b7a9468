"""Finite-index right congruences of the free monoid on {a, b}.

A congruence with n classes is stored as a code tree (P = class
representatives, C = leaves) plus a reduction map f sending each leaf to
the representative of its class, with the defining constraint
f(c) < c alphabetically.  Letters act on classes by p.x = px when px is
still a representative and f(px) otherwise; the congruence is *regular*
when both letter actions permute the classes.

Regular congruences with n+1 leaves correspond one-to-one with
indecomposable permutations of size n+1: send each leaf c (in
alphabetical order) to the position of its image under f in the set
P u {A_INVERSE} sorted by the twisted order, where the unique all-'a'
leaf maps to the formal symbol A_INVERSE instead of f.  Both directions
are implemented and are exact inverses.

The classes of a regular congruence are the cosets of a finite-index
subgroup of the free group F_2; ``subgroup_generators`` emits the free
generating set {c · f(c)^-1}.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import permstat
from .haglund import constrained_permutations
from .linfq import DEFAULT_BUDGET, charge
from .permstat import Perm
from .words import (
    A_INVERSE,
    MAX_WORD_LENGTH,
    CodeTree,
    TreeSignature,
    enumerate_trees,
    read_exponent,
    reconstruct,
    strip_a_run,
    tree_stats,
    twisted_key,
    word_str,
)


class NotRegular(ValueError):
    """Both letter actions must be bijections on the classes."""


class NotIndecomposable(ValueError):
    """The correspondence is defined on indecomposable permutations only."""


GroupWord = tuple[tuple[str, int], ...]  # reduced runs: (letter, exponent != 0)


class RightCongruence(NamedTuple):
    """Code tree plus reduction map; images aligned with tree.leaves.

    ``from_map`` validates a map read from outside the package; the
    package's own constructions build the images directly.
    """

    tree: CodeTree
    images: tuple[str, ...]

    @classmethod
    def from_map(cls, tree: CodeTree, mapping: Mapping[str, str]) -> "RightCongruence":
        if set(mapping) != set(tree.leaves):
            raise ValueError("map domain must be exactly the leaf set")
        prefix_set = set(tree.prefixes)
        for c, p in mapping.items():
            if p not in prefix_set:
                raise ValueError(f"image {word_str(p)} of {word_str(c)} is not a class representative")
            if not p < c:
                raise ValueError(f"image must be alphabetically smaller: {word_str(c)} -> {word_str(p)}")
        return cls(tree, tuple(mapping[c] for c in tree.leaves))

    def __str__(self) -> str:
        body = ", ".join(f"{word_str(c)}->{word_str(p)}"
                         for c, p in zip(self.tree.leaves, self.images))
        return "{" + body + "}"


class ActionTable(NamedTuple):
    """Letter actions on the sorted class representatives, as index maps."""

    states: tuple[str, ...]
    a_next: tuple[int, ...]
    b_next: tuple[int, ...]


def action_table(rc: RightCongruence) -> ActionTable:
    """p.x = px when px is a prefix, else the image of the leaf px.  The
    tree's cached ``layout`` holds every step that does not depend on
    the map; only the leaves' images are looked up here."""
    index, a, b = rc.tree.layout
    image = [index[p] for p in rc.images]
    a_next, b_next = (tuple([j if j >= 0 else image[~j] for j in step]) for step in (a, b))
    return ActionTable(rc.tree.prefixes, a_next, b_next)


def is_regular(rc: RightCongruence) -> bool:
    table = action_table(rc)
    n = len(table.states)
    return (len(set(table.a_next)) == n) and (len(set(table.b_next)) == n)


def enumerate_regular(n: int, budget: int = DEFAULT_BUDGET) -> Iterator[RightCongruence]:
    """Every regular congruence with n+1 leaves, each exactly once.

    The reduction map is forced on 'a'-ending leaves (strip the trailing
    'a'-run).  On the rest it is a bijection C_b -> P_a sending each leaf
    below itself; since the members of P_a below c are the first
    lambda(c) of sorted P_a, these are the permutations s fitting the
    tree's staircase lambda, with c_b[i] -> p_a[s(i) - 1].

    Every such map is regular, so each one is yielded as built.  The
    a-action sends the p with pa in P onto P_a minus {1}, and the leaves
    C_a bijectively onto P_b by stripping their 'a'-run; P is the
    disjoint union of the two images.  Likewise the b-action sends the p
    with pb in P onto P_b minus {1}, and C_b bijectively onto P_a through
    the fitting permutation.  Each image is a class representative below
    its leaf by the same staircase.  ``checks`` witnesses all of this
    case by case: the leaf parts under run stripping, the action tables,
    and the enumeration against a generate-and-test filter, the Hall
    recursion and the indecomposables.

    The walk is charged hall_count(n) candidates (hall_count(n) >= n! >=
    2**(n-1)) when it is called, before the first congruence, without
    computing hall_count(n) when the budget decides at a bound: n! is
    charged first, and a budget of at least n * n! >= hall_count(n) is
    accepted.  Only a budget between the two bounds runs the recursion.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    charge(n, factorial, budget, f"hall_count({n}) candidates")
    if n * factorial(n) > budget:
        charge(n, hall_count, budget, f"hall_count({n}) candidates")
    return (rc for tree in enumerate_trees(n) for rc in _regular_on(tree))


def _regular_on(tree: CodeTree) -> Iterator[RightCongruence]:
    """The regular congruences on one tree, as ``enumerate_regular`` builds them."""
    p_a = tree.parts.p_a
    # the 'a'-leaves' images are fixed; each permutation overwrites the
    # 'b'-leaves' slots, so one list serves the whole tree
    images = [strip_a_run(c) for c in tree.leaves]
    b_slots = [i for i, c in enumerate(tree.leaves) if c.endswith("b")]
    for s in constrained_permutations(tree_stats(tree).partition):
        for i, v in zip(b_slots, s):
            images[i] = p_a[v - 1]
        yield RightCongruence(tree, tuple(images))


def to_indecomposable(rc: RightCongruence) -> Perm:
    """Permutation of the n+1 leaves given by reading f through the
    twisted order on P u {A_INVERSE}; the all-'a' leaf maps to A_INVERSE."""
    if not is_regular(rc):
        raise NotRegular(f"congruence {rc} is not regular")
    extended = sorted([*rc.tree.prefixes, A_INVERSE], key=twisted_key)
    rank = {p: i for i, p in enumerate(extended, start=1)}
    return tuple(rank[A_INVERSE] if not strip_a_run(c) else rank[p]
                 for c, p in zip(rc.tree.leaves, rc.images))


def from_indecomposable(theta: Perm) -> RightCongruence:
    """Inverse construction, from the left-to-right maxima.

    The maxima positions are the signature ranks, consecutive maxima
    value gaps the run lengths; the stripped permutation matches the
    remaining leaves (sorted alphabetically) with the 'a'-part
    representatives (sorted by the twisted order).  The map is built as
    a reduction map, not re-validated: ``checks`` round-trips every
    regular congruence through ``to_indecomposable`` and back.
    """
    theta = permstat.check_permutation(theta)
    if len(theta) < 2 or not permstat.is_indecomposable(theta):
        raise NotIndecomposable(f"{theta!r} is not an indecomposable permutation of size >= 2")
    lr = permstat.lr_maxima(theta)
    lengths = (lr.values[0] - 1,) + tuple(j2 - j1 for j1, j2 in zip(lr.values, lr.values[1:]))
    tree = reconstruct(TreeSignature(len(theta) - 1, lr.positions, lengths))
    c_a, c_b, p_a, _ = tree.parts
    mapping = {c: strip_a_run(c) for c in c_a}
    sigma = permstat.strip_lr_maxima(theta)
    p_a_twisted = sorted(p_a, key=twisted_key)
    for i, c in enumerate(c_b):
        mapping[c] = p_a_twisted[sigma[i] - 1]
    return RightCongruence(tree, tuple(mapping[c] for c in tree.leaves))


# -- free group words ----------------------------------------------------


def free_reduce(steps: Iterable[tuple[str, int]]) -> GroupWord:
    """Merge adjacent runs of the same letter and drop empty runs."""
    stack: list[list] = []
    for letter, exp in steps:
        if exp == 0:
            continue
        if stack and stack[-1][0] == letter:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([letter, exp])
    return tuple((l, e) for l, e in stack)


def group_inverse(word: GroupWord) -> GroupWord:
    return tuple((l, -e) for l, e in reversed(word))


def group_concat(u: GroupWord, v: GroupWord) -> GroupWord:
    return free_reduce(list(u) + list(v))


def monoid_to_group(w: str) -> GroupWord:
    return free_reduce((ch, 1) for ch in w)


def group_word_str(word: GroupWord) -> str:
    if not word:
        return "1"
    out = []
    for letter, exp in word:
        if exp == 1:
            out.append(letter)
        else:
            out.append(f"{letter}^{exp}")
    return "".join(out)


def parse_group_word(text: str) -> GroupWord:
    """Parse 'ba^-1', 'a^2b', '1' into a reduced group word.  Exponents
    are ASCII digits of magnitude at most MAX_WORD_LENGTH."""
    text = text.strip()
    if text == "1":
        return ()
    steps: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch not in "ab":
            raise ValueError(f"bad character {ch!r} in group word {text!r}")
        i += 1
        exp = 1
        if i < len(text) and text[i] == "^":
            i += 1
            sign = 1
            if text[i:i + 1] == "-":
                sign, i = -1, i + 1
            exp, i = read_exponent(text, i, "group word")
            if exp > MAX_WORD_LENGTH:
                raise ValueError(f"exponent in group word {text[:40]!r} "
                                 f"is larger than {MAX_WORD_LENGTH}")
            exp *= sign
        steps.append((ch, exp))
    return free_reduce(steps)


def subgroup_generators(rc: RightCongruence) -> tuple[GroupWord, ...]:
    """Free generating set of the subgroup whose cosets are the classes:
    one reduced word c * f(c)^-1 per leaf, in leaf order."""
    if not is_regular(rc):
        raise NotRegular(f"congruence {rc} is not regular")
    return tuple(group_concat(monoid_to_group(c), group_inverse(monoid_to_group(p)))
                 for c, p in zip(rc.tree.leaves, rc.images))


def class_index(rc: RightCongruence, word: GroupWord) -> int:
    """Index of the class reached from the class of 1 along a group word.

    Inverse letters walk the letter actions backwards, which needs
    regularity.
    """
    if not is_regular(rc):
        raise NotRegular(f"congruence {rc} is not regular")
    table = action_table(rc)
    forward = {"a": table.a_next, "b": table.b_next}
    backward = {}
    for letter, nxt in forward.items():
        inv = [0] * len(nxt)
        for i, j in enumerate(nxt):
            inv[j] = i
        backward[letter] = tuple(inv)
    state = table.states.index("")
    for letter, exp in word:
        row = forward[letter] if exp > 0 else backward[letter]
        for _ in range(abs(exp)):
            state = row[state]
    return state


def subgroup_contains(rc: RightCongruence, word: GroupWord) -> bool:
    """True when the word stabilizes the class of 1 (lies in the subgroup)."""
    start = rc.tree.prefixes.index("")
    return class_index(rc, word) == start


def hall_count(n: int) -> int:
    """Number of index-n subgroups of F_2 by the classical recursion:
    N(n) = n * n! - sum over 0 < i < n of (n-i)! * N(i).  The subtracted
    sum is nonnegative, so N(n) <= n * n!.  N(1..n) are built in turn
    from one table of factorials."""
    if n < 1:
        raise ValueError("n must be at least 1")
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i)
    counts = [0]  # counts[m] = N(m)
    for m in range(1, n + 1):
        counts.append(m * fact[m] - sum(fact[m - i] * counts[i] for i in range(1, m)))
    return counts[n]
