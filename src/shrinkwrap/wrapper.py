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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from shrinkwrap.core import (
    DEFAULT_CODERS,
    BranchTree,
    CoderConfig,
    Node,
    UPReal,
    bt_separation_level,
    up_first_diff,
    up_sort_key,
)


@dataclass(frozen=True)
class WrapperScope:
    """How much of the plane of pairs a wrapper covers.

    ``n_reals`` bounds the sequence indices, ``n_pairs`` the pair positions.
    Every in-scope pair position must name indices below ``n_reals``.
    """

    n_reals: int
    n_pairs: int

    def __post_init__(self):
        if self.n_reals < 0 or self.n_pairs < 0:
            raise ValueError("scope bounds must be nonnegative")

    def validate(self, coders: CoderConfig = DEFAULT_CODERS) -> None:
        for nt in range(self.n_pairs):
            a, b = coders.pair_of(nt)
            if b >= self.n_reals:
                raise ValueError(
                    f"pair position {nt} names index {b} outside [0, {self.n_reals})"
                )

    def pairs(self, coders: CoderConfig = DEFAULT_CODERS) -> Iterator[tuple[int, int, int]]:
        """Yield (pair position, smaller index, larger index) in scope."""
        for nt in range(self.n_pairs):
            a, b = coders.pair_of(nt)
            yield nt, a, b

    def covers_all_pairs(self, coders: CoderConfig = DEFAULT_CODERS) -> bool:
        """Does the scope include every pair of indices below ``n_reals``?"""
        in_scope = {tuple(coders.pair_of(nt)) for nt in range(self.n_pairs)}
        return all(
            (a, b) in in_scope
            for a in range(self.n_reals)
            for b in range(a + 1, self.n_reals)
        )


@dataclass(frozen=True)
class TreeFamily:
    """A total assignment of trees to the binary words of one width.

    Stored as the leaves of a reduced trie: ``leaves`` is a prefix-free
    partition of the width-length words, each class holding one tree, with
    no two sibling leaf classes holding equal trees.  The reduced form is
    unique for a given assignment, so structural equality of families
    coincides with pointwise equality.
    """

    width: int
    leaves: tuple[tuple[Node, BranchTree], ...]

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be nonnegative")
        table = {}
        for prefix, tree in self.leaves:
            prefix = tuple(prefix)
            bits = _int_bits(prefix)
            if bits is None or len(bits) > self.width:
                raise ValueError(f"bad class prefix {prefix!r} for width {self.width}")
            if bits in table:
                raise ValueError(f"duplicate class prefix {bits!r}")
            table[bits] = tree
        _check_partition(table, self.width)
        reduced = _reduce(table)
        object.__setattr__(
            self, "leaves", tuple(sorted(reduced.items()))
        )

    @classmethod
    def constant(cls, width: int, tree: BranchTree) -> "TreeFamily":
        return cls(width, (((), tree),))

    @classmethod
    def from_assignments(
        cls, width: int, default: BranchTree, overrides: Mapping[Node, BranchTree] = ()
    ) -> "TreeFamily":
        """Family equal to ``default`` except at the overridden full words."""
        table: dict[Node, BranchTree] = {(): default}
        for word, tree in dict(overrides).items():
            word = tuple(word)
            if len(word) != width:
                raise ValueError("overrides must be full-length words")
            table = _split_in(table, word)
            table[word] = tree
        return cls(width, tuple(table.items()))

    def tree_at(self, s: Node) -> BranchTree:
        s = tuple(s)
        if len(s) != self.width or any(b not in (0, 1) for b in s):
            raise ValueError(f"need a binary word of length {self.width}")
        for prefix, tree in self.leaves:
            if s[: len(prefix)] == prefix:
                return tree
        raise AssertionError("reduced trie failed to cover a word")

    def classes(self) -> Iterator[tuple[Node, BranchTree, int]]:
        """Yield (class prefix, tree, class size) over the trie leaves."""
        for prefix, tree in self.leaves:
            yield prefix, tree, 1 << (self.width - len(prefix))

    def distinct_trees(self) -> dict[BranchTree, int]:
        """Each assigned tree with the number of words mapped to it."""
        out: dict[BranchTree, int] = {}
        for _, tree, size in self.classes():
            out[tree] = out.get(tree, 0) + size
        return out

    def representative(self, tree: BranchTree) -> Node:
        """Lexicographically least full word assigned the given tree."""
        best = None
        for prefix, leaf_tree, _ in self.classes():
            if leaf_tree == tree:
                word = prefix + (0,) * (self.width - len(prefix))
                if best is None or word < best:
                    best = word
        if best is None:
            raise ValueError("tree is not assigned by this family")
        return best


def _int_bits(word: tuple) -> Optional[Node]:
    """The word with each letter as the int 0 or 1, or None unless every
    letter equals 0 or 1.  A bit given as True or 1.0 is stored as the int,
    which the codec writes as a "0"/"1" word."""
    try:
        bits = bytes(word)  # one C pass when every letter is an int in range
    except (TypeError, ValueError):  # a letter such as 1.0, -1 or "1"
        if word.count(0) + word.count(1) != len(word):
            return None
        return tuple(map(int, word))
    return None if bits.translate(None, b"\x00\x01") else tuple(bits)


def _split_in(table: dict[Node, BranchTree], word: Node) -> dict[Node, BranchTree]:
    # Refine the prefix partition so that `word` becomes its own class.
    out = dict(table)
    holder = next(p for p in out if word[: len(p)] == p)
    tree = out.pop(holder)
    for k in range(len(holder), len(word)):
        out[word[:k] + (1 - word[k],)] = tree
    out[word] = tree
    return out


def _check_partition(table: Mapping[Node, BranchTree], width: int) -> None:
    # In lexicographic order every extension of a prefix follows it
    # directly, so an overlap shows up between neighbours, and the first
    # overlapping neighbours are the first overlapping pair overall.
    prefixes = sorted(table)
    for p, q in zip(prefixes, prefixes[1:]):
        if p == q[: len(p)]:
            raise ValueError(f"overlapping class prefixes {p!r} and {q!r}")
    total = sum(1 << (width - len(p)) for p in prefixes)
    if total != 1 << width:
        raise ValueError("class prefixes do not cover every word")


def _reduce(table: Mapping[Node, BranchTree]) -> dict[Node, BranchTree]:
    out = dict(table)
    merged = True
    while merged:
        merged = False
        for prefix in sorted(out, key=len, reverse=True):
            if not prefix or prefix not in out:
                continue
            sibling = prefix[:-1] + (1 - prefix[-1],)
            if sibling in out and out[sibling] == out[prefix]:
                tree = out.pop(prefix)
                out.pop(sibling)
                out[prefix[:-1]] = tree
                merged = True
    return out


@dataclass(frozen=True)
class ShrinkWrapper:
    """Scope, tree families for every in-scope (pair position, index), and
    one finite isolated point set per sequence index.

    Which (pair position, index) keys the scope demands depends on the pair
    coder, which is a per-operation parameter; the constructor therefore
    only bounds-checks the keys, while the verifier and the codec check
    totality against the coders they are given.
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

    def check_total(self, coders: CoderConfig = DEFAULT_CODERS) -> None:
        """Require a family for both indices of every in-scope pair position."""
        self.scope.validate(coders)
        for nt, a, b in self.scope.pairs(coders):
            for n in (a, b):
                if (nt, n) not in self.families:
                    raise ValueError(f"missing family for pair position {nt}, index {n}")

    def family(self, nt: int, n: int) -> TreeFamily:
        try:
            return self.families[(nt, n)]
        except KeyError:
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
    t1: BranchTree,
    t2: BranchTree,
    iso1: frozenset[UPReal],
    iso2: frozenset[UPReal],
    x1: UPReal,
    x2: UPReal,
) -> tuple[str, Optional[UPReal], Optional[int], Optional[str]]:
    """Shared classification core; precedence is 3b, then 3c, then 3a."""
    c1, c2 = t1.branches, t2.branches
    if c1 == c2 and len(c1) == 1:
        point = next(iter(c1))
        if point in iso1 and point in iso2:
            return "3b", point, None, None
    level = bt_separation_level(t1, t2)
    if level is not None:
        return "3c", None, level, None
    if c1 == c2:
        if (x1 in c1 or x2 in c2) and x1 != x2:
            return (
                "violation",
                None,
                None,
                "equal branch sets pass through one of the points but the points differ",
            )
        return "3a", None, None, None
    return (
        "violation",
        None,
        None,
        "branch sets overlap without being equal or a shared isolated singleton",
    )


def classify_pair(
    wrapper: ShrinkWrapper,
    reals: Sequence[UPReal],
    ntilde: int,
    s1: Node,
    s2: Node,
    coders: CoderConfig = DEFAULT_CODERS,
) -> PairVerdict:
    """Classify the two branch sets a word pair selects at one pair position."""
    xs = _check_sequence(wrapper, reals)
    if not 0 <= ntilde < wrapper.scope.n_pairs:
        raise ValueError(f"pair position {ntilde} out of scope")
    n1, n2 = coders.pair_of(ntilde)
    t1 = wrapper.tree(ntilde, n1, s1)
    t2 = wrapper.tree(ntilde, n2, s2)
    tag, witness, level, reason = _classify_trees(
        t1, t2, wrapper.isolated[n1], wrapper.isolated[n2], xs[n1], xs[n2]
    )
    return PairVerdict(tag, ntilde, tuple(s1), tuple(s2), witness, level, reason)


def verify_wrapper(
    wrapper: ShrinkWrapper,
    reals: Sequence[UPReal],
    coders: CoderConfig = DEFAULT_CODERS,
) -> WrapperReport:
    """Check the three defining laws over the whole scope.

    Law 3 is checked once per pair of distinct assigned trees; the verdict
    for a word pair depends only on the trees the words select, so this is
    exhaustive.  Reported word witnesses are representatives of their
    classes.
    """
    xs = _check_sequence(wrapper, reals)
    wrapper.check_total(coders)
    violations: list[Violation] = []

    for nt, a, b in wrapper.scope.pairs(coders):
        for n in (a, b):
            fam = wrapper.family(nt, n)
            # law 1: growth obedience, once per trie leaf
            for prefix, tree, _ in fam.classes():
                for index in coders.class_shape_indices(prefix, nt, n):
                    if not tree.obeys(index, coders):
                        violations.append(
                            Violation(
                                "1",
                                nt,
                                n,
                                prefix + (0,) * (nt - len(prefix)),
                                None,
                                f"tree exceeds the growth allowance at index {index}",
                            )
                        )
                        break
            # law 2: some word's tree passes through the point
            if not any(xs[n] in tree.branches for tree in fam.distinct_trees()):
                violations.append(
                    Violation(
                        "2",
                        nt,
                        n,
                        None,
                        None,
                        "no word's tree passes through the sequence point",
                    )
                )
        fam1 = wrapper.family(nt, a)
        fam2 = wrapper.family(nt, b)
        for t1 in fam1.distinct_trees():
            for t2 in fam2.distinct_trees():
                tag, _, _, reason = _classify_trees(
                    t1, t2, wrapper.isolated[a], wrapper.isolated[b], xs[a], xs[b]
                )
                if tag == "violation":
                    violations.append(
                        Violation(
                            "3",
                            nt,
                            None,
                            fam1.representative(t1),
                            fam2.representative(t2),
                            reason,
                        )
                    )

    violations.sort(key=lambda v: (v.ntilde, v.condition, v.n or 0, v.s1 or (), v.s2 or ()))
    return WrapperReport(not violations, tuple(violations))


def verify_condition4(
    wrapper: ShrinkWrapper, coders: CoderConfig = DEFAULT_CODERS
) -> WrapperReport:
    """Check the optional same-index law, separately from the main verifier.

    For every pair position and index, any two distinct words must select
    either the same isolated singleton or disjoint branch sets.  A tree
    shared by two or more words therefore has to be an isolated singleton.
    """
    wrapper.check_total(coders)
    violations: list[Violation] = []
    for nt, a, b in wrapper.scope.pairs(coders):
        for n in (a, b):
            fam = wrapper.family(nt, n)
            distinct = fam.distinct_trees()
            iso = wrapper.isolated[n]

            def is_isolated_singleton(tree: BranchTree) -> bool:
                return len(tree.branches) == 1 and next(iter(tree.branches)) in iso

            for tree, count in distinct.items():
                if count >= 2 and not is_isolated_singleton(tree):
                    violations.append(
                        Violation(
                            "4",
                            nt,
                            n,
                            fam.representative(tree),
                            None,
                            "words sharing a tree need an isolated singleton",
                        )
                    )
            for t1, t2 in itertools.combinations(distinct, 2):
                if t1.branches & t2.branches:
                    violations.append(
                        Violation(
                            "4",
                            nt,
                            n,
                            fam.representative(t1),
                            fam.representative(t2),
                            "distinct trees of one index overlap without being isolated",
                        )
                    )
    violations.sort(key=lambda v: (v.ntilde, v.n or 0, v.s1 or (), v.s2 or ()))
    return WrapperReport(not violations, tuple(violations))


def build_wrapper(
    reals: Sequence[UPReal],
    scope: Optional[WrapperScope] = None,
    coders: CoderConfig = DEFAULT_CODERS,
) -> ShrinkWrapper:
    """The direct wrapper: every word's tree is the single branch through
    the index's own point, and each isolated set is that point alone.

    With the default scope every pair of sequence indices is covered.
    """
    xs = tuple(reals)
    scope = scope or full_scope(len(xs), coders)
    families = {}
    for nt, a, b in scope.pairs(coders):
        for n in (a, b):
            families[(nt, n)] = TreeFamily.constant(nt, BranchTree.of(xs[n]))
    isolated = tuple(frozenset({x}) for x in xs)
    return ShrinkWrapper(scope, families, isolated)


def full_scope(n_reals: int, coders: CoderConfig = DEFAULT_CODERS) -> WrapperScope:
    """Smallest scope covering every pair of indices below ``n_reals``."""
    if n_reals < 2:
        return WrapperScope(n_reals, 0)
    n_pairs = 1 + max(
        coders.pair_index((a, b))
        for a in range(n_reals)
        for b in range(a + 1, n_reals)
    )
    return WrapperScope(n_reals, n_pairs)


def _cone_split(
    t1: BranchTree, t2: BranchTree, x: UPReal, y: UPReal
) -> tuple[BranchTree, BranchTree]:
    # Restrict each tree to the cone below its witness, one level past the
    # first difference of the witnesses; the two cones are incomparable.
    level = up_first_diff(x, y)
    return (
        t1.restrict(x.initial_segment(level + 1)),
        t2.restrict(y.initial_segment(level + 1)),
    )


def separate_stems(t1: BranchTree, t2: BranchTree) -> tuple[BranchTree, BranchTree]:
    """Restrict two trees below incomparable nodes.

    The witness pair is the lexicographically least pair of differing
    branches, scanning both branch lists in pointwise order.  Fails only
    when both trees are the same singleton.
    """
    for x in t1.sorted_branches():
        for y in t2.sorted_branches():
            if x != y:
                return _cone_split(t1, t2, x, y)
    raise ValueError("cannot separate two copies of the same singleton")


def build_padded_wrapper(
    reals: Sequence[UPReal],
    scope: Optional[WrapperScope] = None,
    decoys: Iterable[UPReal] = (),
    seed: int = 0,
    coders: CoderConfig = DEFAULT_CODERS,
) -> ShrinkWrapper:
    """A wrapper with decoy branches packed in up to the growth allowance.

    Per pair position, each index hides its padded tree at one chosen word;
    every other word falls back to a filler singleton shared by the two
    indices and recorded in both isolated sets.  When the two padded trees
    collide they are cut back to incomparable cones below the indices' own
    points, the same stem separation the two-tree primitive performs.  With
    an empty decoy pool this is exactly :func:`build_wrapper`.
    """
    xs = tuple(reals)
    scope = scope or full_scope(len(xs), coders)
    pool = sorted(set(decoys) - set(xs), key=up_sort_key)
    if not pool:
        return build_wrapper(xs, scope, coders)
    rng = random.Random(seed)
    fresh_value = 1 + max(
        (max(x.prefix + x.period) for x in (*xs, *pool)), default=0
    )

    families: dict[tuple[int, int], TreeFamily] = {}
    isolated = [set((x,)) for x in xs]

    for nt, a, b in scope.pairs(coders):
        word_a = tuple(rng.randrange(2) for _ in range(nt))
        word_b = tuple(rng.randrange(2) for _ in range(nt))
        budget_a = coders.growth(coders.shape_code(word_a, a), 0)
        budget_b = coders.growth(coders.shape_code(word_b, b), 0)
        same = xs[a] == xs[b]
        if same:
            budget = min(budget_a, budget_b)
            extra = list(pool)
            rng.shuffle(extra)
            tree_a = tree_b = BranchTree(frozenset({xs[a], *extra[: budget - 1]}))
        else:
            extra = list(pool)
            rng.shuffle(extra)
            tree_a = BranchTree(frozenset({xs[a], *extra[: budget_a - 1]}))
            rng.shuffle(extra)
            tree_b = BranchTree(frozenset({xs[b], *extra[: budget_b - 1]}))
            if tree_a.branches & tree_b.branches:
                tree_a, tree_b = _cone_split(tree_a, tree_b, xs[a], xs[b])

        if nt == 0:
            families[(0, a)] = TreeFamily.constant(0, tree_a)
            families[(0, b)] = TreeFamily.constant(0, tree_b)
            continue

        # Filler singleton for the remaining words, legal for both indices.
        candidates = [
            d
            for d in pool
            if d not in tree_a.branches and d not in tree_b.branches
        ]
        if candidates:
            filler = rng.choice(candidates)
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
