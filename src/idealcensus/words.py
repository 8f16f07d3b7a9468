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

Every tree with n >= 1 internal nodes splits at its root as
T = a·L ∪ b·R, and ``enumerate_trees`` walks the trees in that order:
left-subtree size, then L, then R, with an explicit stack rather than
one generator frame per node.  The signature and ``tree_stats`` of T
compose from those of L and R (``tree_records``, which builds no word):
the ranks are L's, or (1) when L is the leaf, then R's shifted past
L's leaves; the partition is (1 + λ(L)) ++ (|P_a(L)| + λ(R)), or
(1 + |P_a(L)|) for the second part when R is the leaf; the cells add up
with a cross term.  Every other count of a tree with n >= 1 internal
nodes follows from n and k = |C_a|: the run lengths sum to n,
|C_a| = |P_b| = k and |C_b| = |P_a| = n + 1 - k (all four are 0 for
the leaf), so a composed record keeps only the ranks, the lengths, the
two cell counts and the partition.  Each size is composed split by
split: what depends on R alone is tabulated once per split, what
depends on L alone once per record of L, and the loop over the pairs
(L, R) only joins the two halves.

The identities and order properties stated here (the rank-sum identity,
power separation, class intervals, the twist comparison, the branch
floor) are checked case by case in ``checks``, which names the word
pair or tree that fails.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

MAX_WORD_LENGTH = 1000  # longest word parse_word builds


class EmptyWord(ValueError):
    """Operation undefined on the empty word."""


class TrivialTree(ValueError):
    """The one-leaf tree has no signature."""


class InvalidSignature(ValueError):
    """Signature does not describe any complete code tree."""


def check_word(w: str) -> str:
    if not isinstance(w, str) or w.strip("ab"):
        raise ValueError(f"not a word over a, b: {w!r}")
    return w


def read_exponent(text: str, i: int, kind: str) -> tuple[int, int]:
    """The exponent written in ASCII digits from text[i] on, and the index
    just past it.  An exponent with more digits than MAX_WORD_LENGTH has
    reads as MAX_WORD_LENGTH + 1 without being converted, so callers
    reject it as too large; ``kind`` names the text in the error for a
    missing exponent."""
    j = i
    while j < len(text) and text[j] in "0123456789":
        j += 1
    if j == i:
        raise ValueError(f"missing exponent in {kind} {text!r}")
    digits = text[i:j].lstrip("0")
    if len(digits) > len(str(MAX_WORD_LENGTH)):
        return MAX_WORD_LENGTH + 1, j
    return int(digits or "0"), j


def parse_word(text: str) -> str:
    """Parse 'ba^2b' or plain 'baab'; '1' is the empty word, and blank
    text is rejected rather than read as it.  Exponents are ASCII
    digits.  A word longer than MAX_WORD_LENGTH is rejected before it is
    built, and an exponent with more digits than MAX_WORD_LENGTH has
    before it is read."""
    if not text.strip():
        raise ValueError(f"blank word {text!r}: the empty word is written 1")
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
            power, i = read_exponent(text, i + 1, "word")
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


class ActionLayout(NamedTuple):
    """Where the letters send the internal nodes of one tree, the same
    for every reduction map on it: ``index`` numbers the sorted
    prefixes, and ``a`` and ``b`` hold, for each prefix p in that order,
    the index of px when px is a prefix, else ~i for px = leaves[i]."""

    index: dict[str, int]
    a: tuple[int, ...]
    b: tuple[int, ...]


class Record:
    """Base of the frozen records that are not tuples: the per-tree
    records, of which a census holds one each per tree (a tuple would
    take 16 bytes more per object), and the census itself, which no
    caller should unpack.  A subclass names its fields in ``__slots__``
    and sets them in ``__init__`` with ``object.__setattr__``; every
    other assignment raises.  Records are equal when they are of the
    same class with equal fields, and hash and print by their fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _CodeTreeFields(NamedTuple):
    leaves: tuple[str, ...]
    prefixes: tuple[str, ...]


class CodeTree(_CodeTreeFields):
    """Maximal prefix-free set (leaves) plus its proper prefixes, sorted.
    The derived ``parts`` and ``layout`` are built once per tree, on
    first use, and kept in the instance ``__dict__``; every assignment
    raises."""

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

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
        tree = cls._trusted(leaves)
        nodes = set(leaves).union(tree.prefixes)
        for p in tree.prefixes:
            if p + "a" not in nodes or p + "b" not in nodes:
                raise ValueError(f"not maximal: node {word_str(p)} lacks a child")
        return tree

    @classmethod
    def _trusted(cls, leaves: tuple[str, ...]) -> "CodeTree":
        # leaves already sorted and known valid (enumeration, reconstruction),
        # or sorted and prefix-free, with maximality still to check (from_leaves)
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

    @cached_property
    def layout(self) -> ActionLayout:
        """The one home of the rule "p.x is px when px is a prefix, else
        the leaf px": ``congruence.action_table`` reads it and leaves only
        the leaves' images to each congruence, and ``ideals.action_rows``
        reads it for the rows of the two action matrices."""
        index = {p: i for i, p in enumerate(self.prefixes)}
        leaf = {c: ~i for i, c in enumerate(self.leaves)}
        a, b = (tuple(index.get(p + x, leaf.get(p + x)) for p in self.prefixes)
                for x in "ab")
        return ActionLayout(index, a, b)

    def __str__(self) -> str:
        return "{" + ", ".join(word_str(c) for c in self.leaves) + "}"


def enumerate_trees(n: int) -> Iterator[CodeTree]:
    """All code trees with n internal nodes (Catalan(n) of them)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (CodeTree._trusted(leaves) for leaves in _iter_leaf_sets(n))


def _iter_leaf_sets(n: int) -> Iterator[tuple[str, ...]]:
    """Sorted leaves of each tree with n internal nodes: for left in
    range(n), for L with left nodes, for R with n - 1 - left nodes, the
    leaves a·L then b·R.  That order is the lexicographic order of the
    left-subtree sizes chosen at the internal nodes in preorder, so the
    walk keeps one frame per internal node on an explicit stack (its
    word, size, current choice, and the leaves and pending subtrees
    around it, as shared linked lists) and advances the deepest frame
    with a choice left.  Nothing recurses, so n is not bounded by the
    interpreter's recursion limit."""
    stack: list[list] = []
    leaves = None                  # (word, rest) links, last leaf first
    pending = (("", n), None)      # (word, size) subtrees still to build, in preorder
    while True:
        while pending is not None:
            (w, m), pending = pending
            if m == 0:
                leaves = (w, leaves)
            else:
                stack.append([w, m, 0, leaves, pending])
                pending = ((w + "a", 0), ((w + "b", m - 1), pending))
        out = []
        while leaves is not None:
            w, leaves = leaves
            out.append(w)
        yield tuple(reversed(out))
        while stack and stack[-1][2] == stack[-1][1] - 1:
            stack.pop()
        if not stack:
            return
        frame = stack[-1]
        frame[2] += 1
        w, m, left, leaves, pending = frame
        pending = ((w + "a", left), ((w + "b", m - 1 - left), pending))


class TreeSignature(Record):
    """Positions (1-based ranks in sorted C) of the 'a'-ending leaves and
    the lengths of their trailing 'a'-runs."""

    __slots__ = ("size", "ranks", "lengths")

    def __init__(self, size: int, ranks: tuple[int, ...], lengths: tuple[int, ...]):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "lengths", lengths)


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
    Raises InvalidSignature when the signature is malformed or the scan
    cannot complete.  Each step moves to the next leaf of a complete code
    tree in alphabetical order, and a last leaf that is a run of b closes
    the tree, so a scan that completes has emitted a valid tree's sorted
    leaves and the tree is built without ``from_leaves``.  ``checks``
    round-trips every tree through its signature.
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
    return CodeTree._trusted(tuple(leaves))


class TreeStats(Record):
    """Derived counting data of a tree.

    a_count: number of leaves ending in 'a' (k)
    a_cells: sum of (s_i - 1) over the partial sums s_i of the
        signature's run lengths, the free-cell count of the a-action
    b_cells: dominance pairs (p, c) in (P_b minus 1) x C_b with p < c,
        the free-cell count of the b-action
    partition: for each c in sorted C_b, how many members of P_a are
        below c; weakly increasing with parts bounded by its length
    """

    __slots__ = ("a_count", "a_cells", "b_cells", "partition")

    def __init__(self, a_count: int, a_cells: int, b_cells: int,
                 partition: tuple[int, ...]):
        object.__setattr__(self, "a_count", a_count)
        object.__setattr__(self, "a_cells", a_cells)
        object.__setattr__(self, "b_cells", b_cells)
        object.__setattr__(self, "partition", partition)


def tree_stats(tree: CodeTree) -> TreeStats:
    if tree.n == 0:
        return TreeStats(0, 0, 0, ())
    c_a, c_b, p_a, p_b = tree.parts
    sums = itertools.accumulate(len(c) - len(strip_a_run(c)) for c in c_a)
    a_cells = sum(s - 1 for s in sums)
    b_cells = sum(1 for p in p_b if p for c in c_b if p < c)
    partition = tuple(sum(1 for p in p_a if p < c) for c in c_b)
    return TreeStats(len(c_a), a_cells, b_cells, partition)


def tree_records(n: int) -> Iterator[tuple[TreeSignature, TreeStats]]:
    """(signature, tree_stats) of every tree with n >= 1 internal nodes,
    in ``enumerate_trees`` order, composed over the root split
    T = a·L ∪ b·R without building a word (see ``_composed``).  The
    records of the smaller sizes are kept in lists local to the call;
    those of size n are composed as they are yielded."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        raise TrivialTree("the one-leaf tree has no signature")
    return _iter_records(n)


# A record is (ranks, lengths, a_cells, b_cells, partition); the leaf's is
# all empty.
_LEAF_RECORD = ((), (), 0, 0, ())


def _composed(m: int, memo: list, shared: dict, raised: dict) -> Iterator[tuple]:
    """The records of size m in ``enumerate_trees`` order: for each root
    split into L and R with ``left`` and ``right`` = m - 1 - left
    internal nodes, the record of a·L ∪ b·R for each record of L in
    ``memo[left]`` and, inside that, each record of R in ``memo[right]``.

    L's leaves come first, the all-'a' one a letter longer ('a' itself
    when L is the leaf), and R's ranks move past L's left + 1 leaves.
    Below each a·w in C_b lie the root and the a·p, p in P_a(L) below w;
    below each b·w, the root, all of a·P_a(L), and the b·p, p in P_a(R)
    minus 1 below w.  Each a·p, p in P_b(L) minus 1, lies below the c
    new b-leaves; when R is not the leaf, 'b' joins P_b and lies below
    all c of them.  The counts a record does not keep follow from the
    sizes and k = len(ranks): |P_a(L)| = |C_b(L)| = len(λ(L)),
    |P_b(L)| - 1 = max(k_L - 1, 0), and c = |C_b(R)| = right + 1 - k_R,
    which is 1 (the leaf 'b') when R is the leaf; L's run lengths sum
    to ``left``.

    No work is repeated for a part that depends on one side only.  A
    table built once per split holds R's shifted ranks and its terms of
    the two cell counts; L's head of each tuple and of each count is
    built once per record of L, and 1 + λ(L) once per value of λ(L),
    kept in ``raised`` for the whole call; R's part of the partition,
    |P_a(L)| + λ(R), is built once per value of |P_a(L)| in the split.
    The loop over the pairs then only joins the two sides.  Many trees
    share their ranks, lengths or partition, so each such tuple is taken
    from ``shared``, one copy per value, and so are the tables' shifted
    ranks and partition tails: R's records repeat few values, and one
    copy of each keeps the peak memory as low as when no table was
    built."""
    one = shared.setdefault
    for left in range(m):
        right = m - 1 - left
        shift = left + 1
        table, lams_r = [], []
        for ranks_r, lengths_r, a_r, b_r, lam_r in memo[right]:
            k_r = len(ranks_r)
            c = right + 1 - k_r
            shifted = tuple(r + shift for r in ranks_r)
            table.append((one(shifted, shifted), lengths_r,
                          a_r + k_r * shift, b_r + c if ranks_r else 0, c))
            lams_r.append(lam_r)
        tails: dict[int, list] = {}
        for ranks_l, lengths_l, a_l, b_l, lam_l in memo[left]:
            k_l = len(ranks_l)
            head = ranks_l or (1,)
            lens = (lengths_l[0] + 1,) + lengths_l[1:] if lengths_l else (1,)
            lam_head = raised.get(lam_l)
            if lam_head is None:
                lam_head = raised[lam_l] = tuple(1 + x for x in lam_l)
            a_head = a_l + k_l
            pb_l = max(k_l - 1, 0)
            pa_l = len(lam_l)
            tail = tails.get(pa_l)
            if tail is None:
                tail = tails[pa_l] = []
                for lam_r in lams_r:
                    t = tuple(pa_l + x for x in lam_r) if lam_r else (1 + pa_l,)
                    tail.append(one(t, t))
            for (shifted, lengths_r, a_term, b_term, c), lam_r in zip(table, tail):
                ranks = head + shifted
                lengths = lens + lengths_r
                lam = lam_head + lam_r
                yield (one(ranks, ranks), one(lengths, lengths), a_head + a_term,
                       b_l + pb_l * c + b_term, one(lam, lam))


def _iter_records(n: int) -> Iterator[tuple[TreeSignature, TreeStats]]:
    shared: dict[tuple, tuple] = {}
    raised: dict[tuple, tuple] = {}
    memo = [[_LEAF_RECORD]]
    for m in range(1, n):
        memo.append(list(_composed(m, memo, shared, raised)))
    for ranks, lengths, a_cells, b_cells, lam in _composed(n, memo, shared, raised):
        yield TreeSignature(n, ranks, lengths), TreeStats(len(ranks), a_cells, b_cells, lam)


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
