"""Shrink wrappers: the structure, its verifier, and two builders.

A shrink wrapper for a finite sequence of points assigns, to every in-scope
pair position and every binary word of matching length, a branch-finite tree,
together with one finite "isolated" point set per sequence index.  The
verifier checks the defining laws:

1. growth obedience: each assigned tree obeys the growth index coded from
   its word and sequence index;
2. coverage: for each pair position and each of its two indices, some word's
   tree passes through that index's point;
3. pair separation: for every pair position and every two words, the two
   branch sets (one per index of the pair) are related in one of three legal
   ways: a shared isolated singleton, disjointness, or equality compatible
   with the points.

A fourth, optional law compares same-index trees across different words and
is checked separately, never as part of the main verifier.

Tree assignments are stored as reduced tries over the word bits: a family
maps every word of its width to a tree, but the representation only splits
where the assignment actually differs.  All laws quantify over words in a
way that depends only on the assigned tree (plus, for the fourth law, how
many words share it), so verification over the classes of a trie is exact
while staying polynomial in the trie size rather than exponential in the
width.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from shrinkwrap.core import (
    BIT_DIGITS,
    BranchTree,
    Node,
    UPReal,
    bt_separation_level,
    pair_of,
    up_first_diff,
    up_sorted,
)


@dataclass(frozen=True)
class WrapperScope:
    """How much of the plane of pairs a wrapper covers.

    ``n_reals`` bounds the sequence indices, ``n_pairs`` the pair positions.
    Every in-scope pair position must name indices below ``n_reals``.  The
    pair positions below C(n_reals, 2) are exactly the pairs of indices
    below ``n_reals``, so both questions about a scope are one comparison.
    """

    n_reals: int
    n_pairs: int

    def __post_init__(self):
        if self.n_reals < 0 or self.n_pairs < 0:
            raise ValueError("scope bounds must be nonnegative")

    def validate(self) -> None:
        first_out = self.n_reals * (self.n_reals - 1) // 2
        if self.n_pairs > first_out:
            raise ValueError(
                f"pair position {first_out} names index {pair_of(first_out)[1]} "
                f"outside [0, {self.n_reals})"
            )

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """Yield (pair position, smaller index, larger index) in scope."""
        for nt in range(self.n_pairs):
            a, b = pair_of(nt)
            yield nt, a, b

    def covers_all_pairs(self) -> bool:
        """Does the scope include every pair of indices below ``n_reals``?"""
        return self.n_pairs >= self.n_reals * (self.n_reals - 1) // 2


@dataclass(frozen=True)
class TreeFamily:
    """A total assignment of trees to the binary words of one width.

    Stored as the leaves of a reduced trie: ``leaves`` is a prefix-free
    partition of the width-length words, each class holding one tree, with
    no two sibling leaf classes holding equal trees.  Each class prefix is
    bytes, one byte 0 or 1 per letter, and the leaves are in lexicographic
    order.  The reduced form is unique for a given assignment, so structural
    equality of families coincides with pointwise equality.
    """

    width: int
    leaves: tuple[tuple[bytes, BranchTree], ...]

    # A family of one override word whose tree differs from the default,
    # built in closed form, keeps (word, tree, default) here; None otherwise.
    _shape = None

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        bits, trees = _class_bits(self.leaves, self.width)
        # One sort, then one walk in lexicographic order.  Every extension of
        # a prefix follows it directly, so the first overlapping neighbours
        # are the first overlapping pair overall, and a repeated prefix
        # overlaps itself.  A class whose sibling tops the reduced classes
        # with an equal tree merges into their parent, which may merge again.
        reduced: list[tuple[bytes, BranchTree]] = []
        p = r = s = None  # the previous class given; the top reduced class
        for leaf in sorted(zip(bits, trees), key=itemgetter(0)):
            q, t = leaf
            if p is not None and q.startswith(p):
                _check_repeats(bits)
                raise ValueError(f"overlapping class prefixes {tuple(p)!r} and {tuple(q)!r}")
            p = q
            while r is not None and len(r) == len(q) and r[:-1] == q[:-1] and s == t:
                reduced.pop()
                q = q[:-1]
                leaf = q, t
                r, s = reduced[-1] if reduced else (None, None)
            reduced.append(leaf)
            r, s = leaf
        # A class of length l holds 2**(width - l) words.
        if sum(map((1 << self.width).__rshift__, map(len, bits))) != 1 << self.width:
            raise ValueError("class prefixes do not cover every word")
        object.__setattr__(self, "leaves", tuple(reduced))

    @classmethod
    def constant(cls, width: int, tree: BranchTree) -> "TreeFamily":
        return cls(width, ((b"", tree),))

    @classmethod
    def from_assignments(
        cls, width: int, default: BranchTree, overrides: Mapping[Node, BranchTree] = ()
    ) -> "TreeFamily":
        """Family equal to ``default`` except at the overridden full words."""
        overrides = dict(overrides)
        if len(overrides) == 1:
            ((word, tree),) = overrides.items()
            bits = _override_bits(word, width)
            if tree == default or not bits:  # one tree for every word
                return cls.constant(width, tree)
            # Only the word holds ``tree``: no classes overlap, gap or merge.
            family = object.__new__(cls)
            object.__setattr__(family, "width", width)
            object.__setattr__(family, "leaves", tuple(_split(bits, 0, tree, default)))
            object.__setattr__(family, "_shape", (bits, tree, default))
            return family
        # Each word splits its class, the last one not after it; a later
        # spelling of the same word finds the word's own class.
        leaves = [(b"", default)]
        for word, tree in overrides.items():
            bits = _override_bits(word, width)
            i = bisect_right(leaves, bits, key=itemgetter(0)) - 1
            leaves[i:i + 1] = _split(bits, len(leaves[i][0]), tree, leaves[i][1])
        return cls(width, leaves)

    def tree_at(self, s: Node) -> BranchTree:
        s = tuple(s)
        if len(s) != self.width or any(b not in (0, 1) for b in s):
            raise ValueError(f"need a binary word of length {self.width}")
        word = bytes(b == 1 for b in s)
        # The constructor checked that the classes cover every word.
        return next(tree for prefix, tree in self.leaves if word.startswith(prefix))

    def distinct_trees(self) -> Mapping[BranchTree, int]:
        """Each assigned tree with the number of words mapped to it: a
        read-only view of one walk over the leaves, made on first use."""
        return MappingProxyType(self._walk[0])

    @cached_property
    def _walk(self) -> tuple[dict[BranchTree, int], dict[BranchTree, bytes]]:
        # Each tree's word count and the prefix of its first class.  Over
        # prefix-free classes in lexicographic order, that class has the
        # least all-zero completion of the tree's words.
        if self._shape is not None:
            # The default's first class is the sibling of the word's first 1
            # letter, all 0s; an all-0 word comes first, then its last sibling.
            bits, tree, default = self._shape
            rest = (1 << self.width) - 1
            if 1 in bits:
                return {default: rest, tree: 1}, {default: bytes(bits.index(1) + 1), tree: bits}
            return {tree: 1, default: rest}, {tree: bits, default: bits[:-1] + b"\x01"}
        # Keyed by branch sets, which keep their hashes, and each distinct
        # tree hashed once at the end.
        counts: dict[frozenset[UPReal], int] = {}
        first: dict[frozenset[UPReal], tuple[bytes, BranchTree]] = {}
        width = self.width
        for prefix, tree in self.leaves:
            key = tree.branches
            count = counts.get(key)
            if count is None:
                first[key] = prefix, tree
                count = 0
            counts[key] = count + (1 << (width - len(prefix)))
        return (
            {tree: counts[key] for key, (_, tree) in first.items()},
            {tree: prefix for prefix, tree in first.values()},
        )

    def representative(self, tree: BranchTree) -> Node:
        """Lexicographically least full word assigned the given tree."""
        prefix = self._walk[1].get(tree)
        if prefix is None:
            raise ValueError("tree is not assigned by this family")
        return tuple(prefix) + (0,) * (self.width - len(prefix))


def _binary(word: bytes) -> int:
    """The value of a word of bytes 0 and 1 read as a binary numeral."""
    return int(b"0" + word.translate(BIT_DIGITS), 2)


def _tail_index(nt: int, prefix: bytes, n: int) -> int:
    """The growth index of index ``n`` at the all-zero word of length ``nt``
    that extends ``prefix``, read off the prefix's binary value."""
    return (1 << nt) - 1 + (_binary(prefix) << (nt - len(prefix))) + n


def _split(bits: bytes, k: int, tree: BranchTree, held: BranchTree) -> list[tuple[bytes, BranchTree]]:
    """The classes, in lexicographic order, that replace the class
    ``bits[:k]`` holding ``held`` when the word ``bits`` gets ``tree``: the
    siblings from level ``k`` on of its 1 letters, shortest first, then the
    word, then the siblings of its 0 letters, longest first."""
    width = len(bits)
    return [
        *[(bits[:j] + b"\x00", held) for j in range(k, width) if bits[j]],
        (bits, tree),
        *[(bits[:j] + b"\x01", held) for j in reversed(range(k, width)) if not bits[j]],
    ]


def _override_bits(word: Node | bytes, width: int) -> bytes:
    """An override's word as bytes: its length is checked first, then its letters."""
    if type(word) is not bytes:
        word = tuple(word)
    if len(word) != width:
        raise ValueError("overrides must be full-length words")
    bits = _bit_bytes(word)
    if bits is None:
        raise ValueError(f"override {tuple(word)!r} is not a binary word")
    return bits


def _bit_bytes(word: tuple | bytes) -> Optional[bytes]:
    """The word as one byte 0 or 1 per letter, or None unless every letter
    equals 0 or 1.  A bit given as True or 1.0 becomes the byte 1, so the
    family stores it as 1, which the codec writes as a "0"/"1" word."""
    try:
        bits = bytes(word)  # one C pass when every letter is an int in range
    except (TypeError, ValueError):  # a letter such as 1.0, -1 or "1"
        if word.count(0) + word.count(1) != len(word):
            return None
        return bytes(map(int, word))
    return None if bits.translate(None, b"\x00\x01") else bits


def _class_bits(leaves: Iterable, width: int) -> tuple[tuple[bytes, ...], tuple[BranchTree, ...]]:
    # Each class prefix as bytes, checked, and its tree, in the order given.
    # A leaf that is not a pair fails to unzip (ValueError or TypeError).
    leaves = tuple(leaves)
    given, trees = zip(*leaves, strict=True) if leaves else ((), ())
    bits: list[bytes] = []
    for prefix in given:
        if type(prefix) is not bytes:
            prefix = tuple(prefix)
        word = _bit_bytes(prefix)
        if word is None or len(word) > width:
            _check_repeats(bits)
            raise ValueError(f"bad class prefix {tuple(prefix)!r} for width {width}")
        bits.append(word)
    return tuple(bits), trees


def _check_repeats(bits: Sequence[bytes]) -> None:
    # The first class prefix given twice, in the order given.
    seen = set()
    for word in bits:
        if word in seen:
            raise ValueError(f"duplicate class prefix {tuple(word)!r}")
        seen.add(word)


@dataclass(frozen=True)
class ShrinkWrapper:
    """Scope, tree families for every in-scope (pair position, index), and
    one finite isolated point set per sequence index.

    The constructor only bounds-checks the keys, so a partial wrapper can
    be built and inspected; :meth:`check_total` requires every key the scope
    demands, and the verifiers and the codec call it.
    """

    scope: WrapperScope
    families: Mapping[tuple[int, int], TreeFamily]
    isolated: tuple[frozenset[UPReal], ...]

    def __post_init__(self):
        object.__setattr__(self, "families", dict(self.families))
        for (nt, n), fam in self.families.items():
            if not (0 <= nt < self.scope.n_pairs and 0 <= n < self.scope.n_reals):
                raise ValueError(f"family key ({nt}, {n}) is outside the scope")
            if fam.width != nt:
                raise ValueError(f"family at pair position {nt} has width {fam.width}")
        iso = tuple(frozenset(part) for part in self.isolated)
        if len(iso) != self.scope.n_reals:
            raise ValueError("need one isolated set per sequence index")
        object.__setattr__(self, "isolated", iso)

    def check_total(self) -> None:
        """Require a family for both indices of every in-scope pair position."""
        self.scope.validate()
        for nt, a, b in self.scope.pairs():
            for n in (a, b):
                if (nt, n) not in self.families:
                    raise ValueError(f"missing family for pair position {nt}, index {n}")

    def family(self, nt: int, n: int) -> TreeFamily:
        try:
            return self.families[(nt, n)]
        except KeyError:
            scope = self.scope
            if 0 <= nt < scope.n_pairs and n in pair_of(nt) and n < scope.n_reals:
                raise ValueError(f"missing family for pair position {nt}, index {n}") from None
            raise ValueError(f"({nt}, {n}) is outside the wrapper scope") from None

    def tree(self, nt: int, n: int, s: Node) -> BranchTree:
        return self.family(nt, n).tree_at(s)


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of classifying one (pair position, word, word) triple.

    ``tag`` is one of "3a", "3b", "3c", "violation".  A 3b verdict carries
    the shared isolated point, a 3c verdict the minimal separation level,
    and a violation a human-readable reason.
    """

    tag: str
    ntilde: int
    s1: Node
    s2: Node
    witness: Optional[UPReal] = None
    separation_level: Optional[int] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class Violation:
    condition: str
    ntilde: int
    n: Optional[int]
    s1: Optional[Node]
    s2: Optional[Node]
    reason: str


@dataclass(frozen=True)
class WrapperReport:
    passed: bool
    violations: tuple[Violation, ...]


def _check_sequence(wrapper: ShrinkWrapper, reals: Sequence[UPReal]) -> tuple[UPReal, ...]:
    if len(reals) != wrapper.scope.n_reals:
        raise ValueError(
            f"sequence length {len(reals)} does not match scope {wrapper.scope.n_reals}"
        )
    return tuple(reals)


def _classify_trees(
    c1: frozenset[UPReal],
    c2: frozenset[UPReal],
    iso1: frozenset[UPReal],
    iso2: frozenset[UPReal],
    x1: UPReal,
    x2: UPReal,
) -> tuple[str, Optional[str]]:
    """The law-3 tag of two branch sets and, for a violation, its reason.

    Unequal sets are disjoint (3c) or overlap; equal ones, never empty, are
    a shared isolated singleton (3b), or else legal (3a) unless they pass
    through one of two different points.
    """
    if c1 != c2:
        if c1.isdisjoint(c2):
            return "3c", None
        return "violation", "branch sets overlap without being equal or a shared isolated singleton"
    if len(c1) == 1 and c1 <= iso1 and c1 <= iso2:
        return "3b", None
    if (x1 in c1 or x2 in c1) and x1 != x2:
        return "violation", "equal branch sets pass through one of the points but the points differ"
    return "3a", None


def classify_pair(
    wrapper: ShrinkWrapper,
    reals: Sequence[UPReal],
    ntilde: int,
    s1: Node,
    s2: Node,
) -> PairVerdict:
    """Classify the two branch sets a word pair selects at one pair position."""
    xs = _check_sequence(wrapper, reals)
    if not 0 <= ntilde < wrapper.scope.n_pairs:
        raise ValueError(f"pair position {ntilde} out of scope")
    n1, n2 = pair_of(ntilde)
    t1 = wrapper.tree(ntilde, n1, s1)
    t2 = wrapper.tree(ntilde, n2, s2)
    tag, reason = _classify_trees(
        t1.branches, t2.branches, wrapper.isolated[n1], wrapper.isolated[n2], xs[n1], xs[n2]
    )
    witness = next(iter(t1.branches)) if tag == "3b" else None
    level = bt_separation_level(t1, t2) if tag == "3c" else None
    return PairVerdict(tag, ntilde, tuple(s1), tuple(s2), witness, level, reason)


def verify_wrapper(wrapper: ShrinkWrapper, reals: Sequence[UPReal]) -> WrapperReport:
    """Check the three defining laws over the whole scope, one pair
    position at a time."""
    xs = _check_sequence(wrapper, reals)
    wrapper.check_total()
    family, iso = wrapper.family, wrapper.isolated
    return _report(
        v
        for nt, a, b in wrapper.scope.pairs()
        for v in _pair_laws(nt, a, b, family(nt, a), family(nt, b), iso[a], iso[b], xs[a], xs[b])
    )


def _pair_laws(
    nt: int,
    a: int,
    b: int,
    fam_a: TreeFamily,
    fam_b: TreeFamily,
    iso_a: frozenset[UPReal],
    iso_b: frozenset[UPReal],
    x_a: UPReal,
    x_b: UPReal,
) -> Iterator[Violation]:
    """The law 1-3 violations at pair position ``nt`` of indices ``a`` and
    ``b``, from their families, isolated sets and points.

    Law 1 holds for a class when it holds at the all-zero tail of the
    class: over the words of one length that word has the least shape code,
    and a tree that obeys an index obeys every larger one.  The first class
    of a tree has the least such tail, so law 1 is checked once per
    distinct tree, there; only a tree that fails there is checked at each
    of its classes.  Law 3 is checked once per pair of distinct assigned
    trees; the verdict for a word pair depends only on the trees the words
    select, so this is exhaustive.  Reported words are the least of their
    classes.
    """
    trees_a, trees_b = fam_a.distinct_trees(), fam_b.distinct_trees()
    for n, fam, trees, x in ((a, fam_a, trees_a, x_a), (b, fam_b, trees_b, x_b)):
        for tree, first in fam._walk[1].items():
            if tree.obeys(_tail_index(nt, first, n)):
                continue
            for prefix, leaf_tree in fam.leaves:
                index = _tail_index(nt, prefix, n)
                if leaf_tree == tree and not tree.obeys(index):
                    yield Violation(
                        "1",
                        nt,
                        n,
                        tuple(prefix) + (0,) * (nt - len(prefix)),
                        None,
                        f"tree exceeds the growth allowance at index {index}",
                    )
        if not any(x in tree.branches for tree in trees):
            yield Violation(
                "2", nt, n, None, None, "no word's tree passes through the sequence point"
            )
    for t1, t2 in itertools.product(trees_a, trees_b):
        tag, reason = _classify_trees(t1.branches, t2.branches, iso_a, iso_b, x_a, x_b)
        if tag == "violation":
            yield Violation(
                "3", nt, None, fam_a.representative(t1), fam_b.representative(t2), reason
            )


def verify_condition4(wrapper: ShrinkWrapper) -> WrapperReport:
    """Check the optional same-index law, separately from the main verifier.

    For every pair position and index, any two distinct words must select
    either the same isolated singleton or disjoint branch sets.  A tree
    shared by two or more words therefore has to be an isolated singleton.
    """
    wrapper.check_total()
    return _report(
        v
        for nt, a, b in wrapper.scope.pairs()
        for n in (a, b)
        for v in _index_law4(nt, n, wrapper.family(nt, n), wrapper.isolated[n])
    )


def _index_law4(nt: int, n: int, fam: TreeFamily, iso: frozenset[UPReal]) -> Iterator[Violation]:
    """The law-4 violations of index ``n``'s family at pair position ``nt``."""
    distinct = fam.distinct_trees()
    for tree, count in distinct.items():
        if count >= 2 and not (len(tree.branches) == 1 and tree.branches <= iso):
            yield Violation(
                "4",
                nt,
                n,
                fam.representative(tree),
                None,
                "words sharing a tree need an isolated singleton",
            )
    for t1, t2 in itertools.combinations(distinct, 2):
        if t1.branches & t2.branches:
            yield Violation(
                "4",
                nt,
                n,
                fam.representative(t1),
                fam.representative(t2),
                "distinct trees of one index overlap without being isolated",
            )


def _report(violations: Iterable[Violation]) -> WrapperReport:
    """The report of the violations, ordered by pair position, condition,
    index and words; a missing index reads as 0 and a missing word as ()."""
    rows = sorted(
        violations, key=lambda v: (v.ntilde, v.condition, v.n or 0, v.s1 or (), v.s2 or ())
    )
    return WrapperReport(not rows, tuple(rows))


def build_wrapper(
    reals: Sequence[UPReal], scope: Optional[WrapperScope] = None
) -> ShrinkWrapper:
    """The direct wrapper: every word's tree is the single branch through
    the index's own point, and each isolated set is that point alone.

    With the default scope every pair of sequence indices is covered.
    """
    xs = tuple(reals)
    scope = scope or full_scope(len(xs))
    families = {}
    for nt, a, b in scope.pairs():
        for n in (a, b):
            families[(nt, n)] = TreeFamily.constant(nt, BranchTree.of(xs[n]))
    isolated = tuple(frozenset({x}) for x in xs)
    return ShrinkWrapper(scope, families, isolated)


def full_scope(n_reals: int) -> WrapperScope:
    """Smallest scope covering every pair of indices below ``n_reals``."""
    return WrapperScope(n_reals, n_reals * (n_reals - 1) // 2)


def _cone_cutter(
    values: Iterable[UPReal],
) -> Callable[[BranchTree, BranchTree, UPReal, UPReal], tuple[BranchTree, BranchTree]]:
    """A cut of two colliding trees ``t1`` and ``t2`` through witnesses ``x``
    and ``y``: each tree restricted to the cone below its witness, one level
    past the witnesses' first difference, so the two cones are
    incomparable.  Every branch and witness must be one of ``values``; they
    are grouped by their first letters once per cut length, so a cut is one
    set intersection per tree."""
    values = set(values)
    by_length: dict[int, dict[Node, set[UPReal]]] = {}

    def cone(tree: BranchTree, x: UPReal, length: int) -> BranchTree:
        groups = by_length.get(length)
        if groups is None:
            groups = by_length[length] = {}
            for v in values:
                groups.setdefault(v.initial_segment(length), set()).add(v)
        return BranchTree(tree.branches & groups[x.initial_segment(length)])

    def split(t1: BranchTree, t2: BranchTree, x: UPReal, y: UPReal):
        length = up_first_diff(x, y) + 1
        return cone(t1, x, length), cone(t2, y, length)

    return split


def build_padded_wrapper(
    reals: Sequence[UPReal],
    scope: Optional[WrapperScope] = None,
    decoys: Iterable[UPReal] = (),
    seed: int = 0,
) -> ShrinkWrapper:
    """A wrapper with decoy branches packed in up to the growth allowance.

    Per pair position, each index hides its padded tree at one chosen word;
    every other word falls back to a filler singleton shared by the two
    indices and recorded in both isolated sets.  When the two padded trees
    collide they are cut back to incomparable cones below the indices' own
    points, one level past their first difference.  With an empty decoy
    pool this is exactly :func:`build_wrapper`.

    The random choices draw what ``random.Random(seed)`` draws for
    ``randrange(2)`` per letter of the two words, ``shuffle`` of the pool
    and ``choice`` of the filler, in that order, so the wrapper for a seed
    stays the same.
    """
    xs = tuple(reals)
    scope = scope or full_scope(len(xs))
    pool = up_sorted(set(decoys) - set(xs))
    if not pool:
        return build_wrapper(xs, scope)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    fresh_value = 1 + max(
        (max(x.prefix + x.period) for x in (*xs, *pool)), default=0
    )
    # The set operations below keep the pool's own objects, so a filler
    # candidate is ranked by identity, without hashing a UPReal again.
    pool_set = frozenset(pool)
    rank = {id(d): i for i, d in enumerate(pool)}
    # A padded tree holds its own point and pool values only.
    cone_split = _cone_cutter((*xs, *pool))

    families: dict[tuple[int, int], TreeFamily] = {}
    isolated = [set((x,)) for x in xs]

    for nt, a, b in scope.pairs():
        words = _draw_bits(getrandbits, 2 * nt)
        word_a, word_b = words[:nt], words[nt:]
        # growth(shape_code(word, n), 0) for a word of bytes
        budget_a = _tail_index(nt, word_a, a) + 1
        budget_b = _tail_index(nt, word_b, b) + 1
        extra = list(pool)
        _shuffle(getrandbits, extra)
        if xs[a] == xs[b]:
            tree_a = tree_b = _padded_tree(xs[a], pool_set, extra, min(budget_a, budget_b))
        else:
            tree_a = _padded_tree(xs[a], pool_set, extra, budget_a)
            _shuffle(getrandbits, extra)
            tree_b = _padded_tree(xs[b], pool_set, extra, budget_b)
            if tree_a.branches & tree_b.branches:
                tree_a, tree_b = cone_split(tree_a, tree_b, xs[a], xs[b])

        if nt == 0:
            families[(0, a)] = TreeFamily.constant(0, tree_a)
            families[(0, b)] = TreeFamily.constant(0, tree_b)
            continue

        # Filler singleton for the remaining words, legal for both indices:
        # a pool value neither tree holds, chosen in pool order.
        free = pool_set.difference(tree_a.branches, tree_b.branches)
        if free:
            candidates = sorted(map(rank.__getitem__, map(id, free)))
            filler = pool[candidates[_below(getrandbits, len(candidates))]]
        else:
            filler = UPReal((), (fresh_value,))
            fresh_value += 1
        isolated[a].add(filler)
        isolated[b].add(filler)
        filler_tree = BranchTree.of(filler)
        families[(nt, a)] = TreeFamily.from_assignments(
            nt, filler_tree, {word_a: tree_a}
        )
        families[(nt, b)] = TreeFamily.from_assignments(
            nt, filler_tree, {word_b: tree_b}
        )

    return ShrinkWrapper(scope, families, tuple(frozenset(s) for s in isolated))


def _padded_tree(
    x: UPReal, pool_set: frozenset[UPReal], shuffled: list[UPReal], budget: int
) -> BranchTree:
    # The point and the first budget - 1 values of the shuffled pool.  A
    # budget past the pool takes the pool's own set, whose hashes are kept.
    if budget > len(shuffled):
        return BranchTree(pool_set.union((x,)))
    return BranchTree(frozenset({x, *shuffled[: budget - 1]}))


# randrange(2) draws getrandbits(2), the top two bits of one 32-bit output,
# and draws again while they read 2 or 3: it keeps an output whose top byte
# is below 128, and its letter is that byte's bit 6.
_LETTER = bytes(b >> 6 for b in range(256))
_REDRAWN = bytes(range(128, 256))


def _draw_bits(getrandbits, count: int) -> bytes:
    """``bytes(rng.randrange(2) for _ in range(count))``, drawing the same
    outputs.  ``getrandbits(32 * m)`` is the next m outputs, the first in
    the low bits; a batch as long as the letters still missing never draws
    past the last letter."""
    word = b""
    while len(word) < count:
        need = count - len(word)
        tops = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        word += tops.translate(_LETTER, _REDRAWN)
    return word


def _below(getrandbits, n: int) -> int:
    """``rng._randbelow(n)``, as ``rng.choice`` draws an index below ``n``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(getrandbits, x: list) -> None:
    """``rng.shuffle(x)``: the same draws, with ``_randbelow``'s rejection
    inline (``k = n.bit_length()``, drawn again while at least ``n``)."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]
