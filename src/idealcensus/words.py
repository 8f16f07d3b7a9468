"""Binary words over {a, b}, two linear orders, and complete code trees.

Words are plain Python strings over the characters 'a' and 'b'; the empty
string is the unit and renders as "1".  Alphabetical order (prefixes
first, then a < b) coincides with Python string comparison, which is used
directly.

The twisted order sorts the classes w·a* (w not ending in 'a') the same
way as alphabetical order but reverses each class internally, so
... < w·aa < w·a < w.  A formal extra letter A_INVERSE sits strictly
above every power of 'a' and strictly below every word containing 'b';
it shows up as the image of the all-'a' leaf in the congruence
bijection.

A ``CodeTree`` is a maximal prefix-free set C of n+1 words (the leaves of
a complete binary tree with n internal nodes) together with the set P of
proper prefixes (the internal nodes).  The signature of a tree records
where the leaves ending in 'a' sit inside sorted C and how long their
trailing 'a'-runs are; a tree can be reconstructed from its signature
alone by a single scan, which is how permutations are turned back into
trees elsewhere in the package.

The identities and order properties stated here (the rank-sum identity,
power separation, class intervals, the twist comparison, the branch
floor) are checked case by case in ``checks``, which names the word
pair or tree that fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

ALPHABET = ("a", "b")
MAX_WORD_LENGTH = 1000  # longest word parse_word builds


class EmptyWord(ValueError):
    """Operation undefined on the empty word."""


class TrivialTree(ValueError):
    """The one-leaf tree has no signature."""


class InvalidSignature(ValueError):
    """Signature does not describe any complete code tree."""


def check_word(w: str) -> str:
    if not isinstance(w, str) or any(ch not in "ab" for ch in w):
        raise ValueError(f"not a word over a, b: {w!r}")
    return w


def parse_word(text: str) -> str:
    """Parse 'ba^2b' or plain 'baab'; '1' is the empty word.  A word
    longer than MAX_WORD_LENGTH is rejected before it is built, and an
    exponent with more digits than MAX_WORD_LENGTH before it is read."""
    text = text.strip()
    if text == "1":
        return ""
    out: list[str] = []
    length = i = 0
    while i < len(text):
        ch = text[i]
        if ch not in "ab":
            raise ValueError(f"bad character {ch!r} in word {text!r}")
        i += 1
        if i < len(text) and text[i] == "^":
            i += 1
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i:
                raise ValueError(f"missing exponent in word {text!r}")
            digits = text[i:j].lstrip("0")
            too_long = len(digits) > len(str(MAX_WORD_LENGTH))
            power = MAX_WORD_LENGTH + 1 if too_long else int(digits or "0")
            i = j
        else:
            power = 1
        length += power
        if length > MAX_WORD_LENGTH:
            raise ValueError(f"word {text[:40]!r} is longer than {MAX_WORD_LENGTH} letters")
        out.append(ch * power)
    return "".join(out)


def word_str(w: str) -> str:
    """Canonical text form: the word itself, '1' when empty."""
    return w if w else "1"


def word_compact(w: str) -> str:
    """Run-compressed text form: 'aab' -> 'a^2b', '' -> '1'."""
    if not w:
        return "1"
    out: list[str] = []
    for ch, group in itertools.groupby(w):
        k = sum(1 for _ in group)
        out.append(ch if k == 1 else f"{ch}^{k}")
    return "".join(out)


def alph_compare(u: str, v: str) -> int:
    """-1 / 0 / +1 in dictionary order (prefix first, a before b)."""
    if u == v:
        return 0
    return -1 if u < v else 1


def strip_a_run(w: str) -> str:
    """Remove the maximal trailing run of 'a' (identity if none)."""
    return w.rstrip("a")


def strip_b_run(w: str) -> str:
    """Remove the maximal trailing run of 'b' (identity if none)."""
    return w.rstrip("b")


def strip_last_run(w: str) -> str:
    """Remove the maximal trailing run of the final letter."""
    if not w:
        raise EmptyWord("the empty word has no final run")
    return w.rstrip(w[-1])


class _AInverse:
    """Formal symbol between the powers of a and the words containing b."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "a^-1"


A_INVERSE = _AInverse()

ExtendedWord = "str | _AInverse"


def twisted_key(x) -> tuple:
    """Sort key realizing the twisted order on words and A_INVERSE.

    Key shape: ((class representative, tie), -trailing 'a' count).  All
    class representatives are '' or end in 'b', so placing A_INVERSE in a
    singleton pseudo-class ('', 1) lands it after every power of 'a' and
    before every word containing 'b'.
    """
    if x is A_INVERSE:
        return (("", 1), 0)
    rep = strip_a_run(check_word(x))
    return ((rep, 0), len(rep) - len(x))


def twisted_compare(u, v) -> int:
    ku, kv = twisted_key(u), twisted_key(v)
    if ku == kv:
        return 0
    return -1 if ku < kv else 1


def all_words(max_len: int) -> Iterator[str]:
    """Every word of length at most max_len, in length-then-lex order."""
    for n in range(max_len + 1):
        for letters in itertools.product("ab", repeat=n):
            yield "".join(letters)


class WordParts(NamedTuple):
    c_a: tuple[str, ...]
    c_b: tuple[str, ...]
    p_a: tuple[str, ...]
    p_b: tuple[str, ...]


@dataclass(frozen=True)
class CodeTree:
    """Maximal prefix-free set (leaves) plus its proper prefixes, sorted."""

    leaves: tuple[str, ...]
    prefixes: tuple[str, ...]

    @classmethod
    def from_leaves(cls, words: Iterable[str]) -> "CodeTree":
        leaves = tuple(sorted(check_word(w) for w in words))
        if not leaves:
            raise ValueError("a code tree needs at least one leaf")
        if len(set(leaves)) != len(leaves):
            raise ValueError("duplicate leaves")
        for c1, c2 in zip(leaves, leaves[1:]):
            if c2.startswith(c1):
                raise ValueError(f"not prefix-free: {c1!r} < {c2!r}")
        node_set = set(leaves)
        prefix_set: set[str] = set()
        for w in leaves:
            for i in range(len(w)):
                prefix_set.add(w[:i])
        node_set |= prefix_set
        for p in prefix_set:
            if p + "a" not in node_set or p + "b" not in node_set:
                raise ValueError(f"not maximal: node {word_str(p)} lacks a child")
        return cls(leaves, tuple(sorted(prefix_set)))

    @classmethod
    def _trusted(cls, leaves: tuple[str, ...]) -> "CodeTree":
        # leaves already sorted and known valid (internal enumeration)
        prefix_set: set[str] = set()
        for w in leaves:
            for i in range(len(w)):
                prefix_set.add(w[:i])
        return cls(leaves, tuple(sorted(prefix_set)))

    @property
    def n(self) -> int:
        """Number of internal nodes (= number of leaves - 1)."""
        return len(self.prefixes)

    @cached_property
    def parts(self) -> WordParts:
        """Leaves and prefixes split by final letter.

        The prefix parts both contain the empty word (when P is nonempty);
        for the one-leaf tree all four parts are empty.
        """
        c_a = tuple(c for c in self.leaves if c.endswith("a"))
        c_b = tuple(c for c in self.leaves if c.endswith("b"))
        if not self.prefixes:
            return WordParts((), (), (), ())
        p_a = tuple(p for p in self.prefixes if p == "" or p.endswith("a"))
        p_b = tuple(p for p in self.prefixes if p == "" or p.endswith("b"))
        return WordParts(c_a, c_b, p_a, p_b)

    def __str__(self) -> str:
        return "{" + ", ".join(word_str(c) for c in self.leaves) + "}"


def enumerate_trees(n: int) -> Iterator[CodeTree]:
    """All code trees with n internal nodes (Catalan(n) of them)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (CodeTree._trusted(leaves) for leaves in _iter_leaf_sets(n))


def _iter_leaf_sets(n: int) -> Iterator[tuple[str, ...]]:
    if n == 0:
        yield ("",)
        return
    for left in range(n):
        for l_leaves in _iter_leaf_sets(left):
            a_side = tuple("a" + w for w in l_leaves)
            for r_leaves in _iter_leaf_sets(n - 1 - left):
                yield a_side + tuple("b" + w for w in r_leaves)


@dataclass(frozen=True)
class TreeSignature:
    """Positions (1-based ranks in sorted C) of the 'a'-ending leaves and
    the lengths of their trailing 'a'-runs."""

    size: int
    ranks: tuple[int, ...]
    lengths: tuple[int, ...]


def signature(tree: CodeTree) -> TreeSignature:
    if tree.n == 0:
        raise TrivialTree("the one-leaf tree has no signature")
    ranks = tuple(i + 1 for i, c in enumerate(tree.leaves) if c.endswith("a"))
    lengths = tuple(len(c) - len(strip_a_run(c))
                    for c in tree.leaves if c.endswith("a"))
    return TreeSignature(tree.n, ranks, lengths)


def reconstruct(sig: TreeSignature) -> CodeTree:
    """Rebuild the unique tree with the given signature.

    Scan leaves in alphabetical order: leaf 1 is a**l_1; to advance,
    strip the trailing 'b'-run, flip the final 'a' to 'b', and append the
    next unused 'a'-run when the new rank is one of the signature ranks.
    Raises InvalidSignature when the scan cannot complete.
    """
    n, ranks, lengths = sig.size, sig.ranks, sig.lengths
    k = len(ranks)
    if n < 1 or k < 1 or len(lengths) != k:
        raise InvalidSignature(f"malformed signature {sig!r}")
    if any(l < 1 for l in lengths):
        raise InvalidSignature("run lengths must be positive")
    if list(ranks) != sorted(set(ranks)) or ranks[0] != 1 or ranks[-1] > n + 1:
        raise InvalidSignature(f"bad rank sequence {ranks!r}")
    rank_set = frozenset(ranks)
    leaves = ["a" * lengths[0]]
    used = 1
    while len(leaves) < n + 1:
        core = strip_b_run(leaves[-1])
        if not core:
            raise InvalidSignature("leaf scan exhausted before n+1 leaves")
        flipped = core[:-1] + "b"
        if len(leaves) + 1 in rank_set:
            leaves.append(flipped + "a" * lengths[used])
            used += 1
        else:
            leaves.append(flipped)
    if strip_b_run(leaves[-1]):
        raise InvalidSignature("last leaf must be a run of b")
    if used != k:
        raise InvalidSignature("unused run lengths")
    try:
        tree = CodeTree.from_leaves(leaves)
    except ValueError as exc:  # defensive; the scan should not produce this
        raise InvalidSignature(str(exc)) from exc
    if tree.n != n:
        raise InvalidSignature("leaf count mismatch")
    return tree


@dataclass(frozen=True)
class TreeStats:
    """Derived counting data of a tree.

    a_count: number of leaves ending in 'a' (k)
    prefix_sums: partial sums s_i of the trailing-run lengths
    a_cells: sum of (s_i - 1), the free-cell count of the a-action
    b_cells: dominance pairs (p, c) in (P_b minus 1) x C_b with p < c,
        the free-cell count of the b-action
    partition: for each c in sorted C_b, how many members of P_a are
        below c; weakly increasing with parts bounded by its length
    """

    a_count: int
    prefix_sums: tuple[int, ...]
    a_cells: int
    b_cells: int
    partition: tuple[int, ...]


def tree_stats(tree: CodeTree) -> TreeStats:
    if tree.n == 0:
        return TreeStats(0, (), 0, 0, ())
    c_a, c_b, p_a, p_b = tree.parts
    sums: list[int] = []
    total = 0
    for c in c_a:
        total += len(c) - len(strip_a_run(c))
        sums.append(total)
    a_cells = sum(s - 1 for s in sums)
    b_cells = sum(1 for p in p_b if p for c in c_b if p < c)
    partition = tuple(sum(1 for p in p_a if p < c) for c in c_b)
    return TreeStats(len(c_a), tuple(sums), a_cells, b_cells, partition)


def rank_identity_bijection(tree: CodeTree) -> dict:
    """Explicit bijection behind the rank-sum identity.

    Domain: pairs (c, g) with c in C, g in C_a, g < c.  Image: the
    disjoint union of the dominance pairs of ``tree_stats``, the leaves
    of C_b, and the increasing pairs inside C_a, tagged by kind.
    """
    c_a, c_b, _, _ = tree.parts
    a_set = set(c_a)
    b_set = set(c_b)
    out: dict = {}
    for g in c_a:
        for c in tree.leaves:
            if c <= g:
                continue
            if c in b_set:
                if strip_a_run(g):
                    out[(c, g)] = ("pair_b", (strip_a_run(g), c))
                else:
                    out[(c, g)] = ("leaf_b", c)
            else:
                out[(c, g)] = ("pair_a", (g, c))
    return out
