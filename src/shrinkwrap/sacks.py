"""Perfect binary trees at a finite horizon and the fusion machinery.

Infinite perfect trees are represented by their truncation at a declared
horizon: a prefix-closed set of binary words of length at most the horizon
in which every shorter word has a child.  A maximal word is a promise that
the tree keeps extending past the horizon, not a leaf.  Perfectness cannot
be total at a horizon, so each tree carries a computed splitting gap: the
smallest slack making "every node that stops at least gap levels short of
the horizon has a branching descendant strictly inside it" true.

A refinement map assigns a tree to every binary word up to a depth, shrinking
along extensions and splitting the stems of the two successors.  Its level
unions form a chain in which each tree refines the previous one while keeping
its early branching structure; the chain checker validates exactly that, and
the intersector collapses a validated chain, which for finite decreasing
chains is its last element.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from functools import cached_property, reduce
from operator import and_, invert, or_
from typing import Iterable, Iterator, Mapping, Sequence

from shrinkwrap.core import BIT_DIGITS, Node

#: Largest horizon a tree may have.  Level ``l`` takes ``2**l`` bits, so a
#: tree at this horizon takes at most 256 KiB however few nodes it has.
MAX_HORIZON = 20


def _position(t: Node) -> int:
    """``2**len(t)`` plus the word read least significant bit first: the
    word's bit in its level mask, tagged with its length.  ValueError
    unless every letter is 0 or 1."""
    try:
        return int(b"1" + bytes(t[::-1]).translate(BIT_DIGITS), 2)
    except (TypeError, ValueError):  # a letter such as 2 or -1, or a bit given as 1.0
        if not set(t) <= {0, 1}:
            raise ValueError(f"{t!r} is not a binary word") from None
        return _position(tuple(map(int, t)))


def _words(length: int, mask: int) -> Iterator[Node]:
    """The words of one length whose bits are set in mask, by index."""
    digits = bin(mask)[:1:-1]  # digit i is bit i
    return (tuple([i >> k & 1 for k in range(length)]) for i, c in enumerate(digits) if c == "1")


def _halves(mask: int, l: int) -> tuple[int, int]:
    """Of a level-(l + 1) mask: the nodes of length l with a 0 child, and with a 1 child."""
    return mask & ((1 << (1 << l)) - 1), mask >> (1 << l)


@dataclass(frozen=True)
class HorizonPerfectTree:
    """Binary tree truncated at ``horizon`` with the extendibility promise.

    Bit ``i`` of ``levels[l]`` is set when the word ``w`` of length ``l`` with
    ``i = sum(w[k] << k)`` is a node; node ``i``'s children are bits ``i`` and
    ``i + 2**l`` of ``levels[l + 1]``.  Built from a node set or from masks and
    checked either way: nodes are prefix-closed, maximal ones at the horizon.
    """

    horizon: int
    words: InitVar[Iterable[Node]] = ()
    levels: tuple[int, ...] = ()

    def __post_init__(self, words):
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon {self.horizon} is above the supported {MAX_HORIZON}")
        levels = self.levels
        if not levels:
            # "1" at each node's position; a word past the horizon falls off the end
            seen = bytearray(b"0" * (2 << self.horizon))
            try:
                for t in map(tuple, words):
                    seen[_position(t)] = 49
            except (IndexError, ValueError):
                raise ValueError("nodes must be binary words within the horizon") from None
            ends = [1 << l for l in range(self.horizon + 2)]
            levels = [int(seen[b - 1 : a - 1 : -1], 2) for a, b in zip(ends, ends[1:])]
        if len(levels) != self.horizon + 1:
            raise ValueError("need one level mask per length up to the horizon")
        for l, mask in enumerate(levels):
            if mask < 0 or mask >> (1 << l):
                raise ValueError(f"level {l} has bits past its {1 << l} words")
        # Shortest fault first, then lowest index: an orphan, or a short node without a child.
        splits = []
        for l, mask in enumerate(levels):
            up = levels[l - 1] if l else 1
            orphans = mask & ~(up | up << (1 << l >> 1))
            if l < self.horizon:
                zero, one = _halves(levels[l + 1], l)
                kids = zero | one
                splits.append(zero & one)
            else:
                kids = mask
            bad = orphans | mask & ~kids
            if bad:
                i = (bad & -bad).bit_length() - 1
                t = next(_words(l, 1 << i))
                if orphans >> i & 1:
                    raise ValueError(f"node {t!r} is missing its parent")
                raise ValueError(f"node {t!r} breaks the extendibility promise")
        if not levels[0]:
            raise ValueError("tree must contain the root")
        object.__setattr__(self, "levels", tuple(levels))
        splits.append(0)
        self.__dict__["splits"] = tuple(splits)

    @classmethod
    def full(cls, horizon: int) -> "HorizonPerfectTree":
        # the constructor rejects a horizon past the cap before it reads the masks
        lengths = range(min(horizon, MAX_HORIZON) + 1)
        return cls(horizon, levels=tuple((1 << (1 << l)) - 1 for l in lengths))

    @cached_property
    def nodes(self) -> frozenset[Node]:
        """The node set, built on first read."""
        return frozenset(t for l, mask in enumerate(self.levels) for t in _words(l, mask))

    @cached_property
    def splits(self) -> tuple[int, ...]:
        """Mask of the branching nodes at each length, 0 at the horizon.
        The constructor fills it in from the halves it checks."""
        return tuple(and_(*_halves(m, l)) for l, m in enumerate(self.levels[1:])) + (0,)

    def _has(self, t: Node) -> bool:
        if len(t) > self.horizon or not set(t) <= {0, 1}:
            return False
        return bool(self.levels[len(t)] >> (_position(t) ^ 1 << len(t)) & 1)

    def children(self, t: Node) -> tuple[Node, ...]:
        return tuple(t + (b,) for b in (0, 1) if self._has(t + (b,)))

    def is_branching(self, t: Node) -> bool:
        return bool(self._has(t + (0,)) and self._has(t + (1,)))

    def branching_nodes(self) -> frozenset[Node]:
        return frozenset(t for l, mask in enumerate(self.splits) for t in _words(l, mask))

    def below(self, t: Node) -> "HorizonPerfectTree":
        """The subtree of nodes comparable with ``t``."""
        t = tuple(t)
        if not self._has(t):
            raise ValueError(f"{t!r} is not a node")
        i = _position(t) ^ 1 << len(t)
        # t's prefixes, then t and its extensions, widened level by level
        keep = [1 << (i & ((1 << l) - 1)) for l in range(len(t) + 1)]
        for l in range(len(t), self.horizon):
            keep.append(keep[-1] | keep[-1] << (1 << l))
        return HorizonPerfectTree(self.horizon, levels=tuple(map(and_, self.levels, keep)))

    def paths(self) -> frozenset[Node]:
        """Maximal nodes; each promises a continuation past the horizon."""
        return frozenset(_words(self.horizon, self.levels[-1]))

    def gap(self) -> int:
        """The tree's splitting slack.

        Nodes at most ``horizon - gap()`` long always have a branching
        descendant strictly shorter than the horizon; at least one node of
        length ``horizon - gap() + 1`` does not.  Always at least 1, since
        maximal nodes have no strict descendants at all.
        """
        good = 0  # from the horizon up: nodes that branch or have a good child
        splits = self.splits
        for l in range(self.horizon, -1, -1):
            good = splits[l] | or_(*_halves(good, l))
            if self.levels[l] & ~good:
                bad = l
        return self.horizon + 1 - bad


def _subset(q: HorizonPerfectTree, p: HorizonPerfectTree) -> bool:
    return not any(map(and_, q.levels, map(invert, p.levels)))


def stem_or_path(p: HorizonPerfectTree) -> Node:
    """First branching node, or the maximal node of a branchless tree."""
    splits, levels = p.splits, p.levels
    i = l = 0
    while l < p.horizon and not splits[l] >> i & 1:  # step to the only child
        i, l = i + (0 if levels[l + 1] >> i & 1 else 1 << l), l + 1
    return tuple([i >> k & 1 for k in range(l)])


def _splits_upto(p: HorizonPerfectTree, n: int) -> Iterator[tuple[int, int]]:
    """Branching nodes with at most n branching proper initial segments,
    as (length, mask) level by level.

    Carries masks down from the root and drops a node below its n-th
    split, so only the part of the tree above the reported splits is kept,
    and stops at the first level where nothing is carried.
    """
    below = [1] + [0] * n if n >= 0 else []  # below[k]: nodes under k splits
    for l, splits in enumerate(p.splits[:-1]):
        carried = reduce(or_, below, 0)
        if not carried:
            return
        yield l, carried & splits
        nxt = [m & ~splits | (k and below[k - 1] & splits) for k, m in enumerate(below)]
        below = [(m | m << (1 << l)) & p.levels[l + 1] for m in nxt]


def hpt_leq_n(q: HorizonPerfectTree, p: HorizonPerfectTree, n: int) -> bool:
    """Does q refine p while keeping p's k-th branching nodes for k <= n?"""
    if q.horizon != p.horizon:
        raise ValueError("trees live at different horizons")
    if not _subset(q, p):
        return False
    q_splits = q.splits
    return all(not mask & ~q_splits[l] for l, mask in _splits_upto(p, n))


@dataclass(frozen=True)
class RMap:
    """A tree for every binary word up to ``depth``, all at one horizon.

    The refinement laws (shrinking along word extension, stem-splitting at
    the two successors) are checked by :func:`verify_fusion_helper`, not by
    the constructor, so broken maps can be built and reported on.
    """

    depth: int
    trees: Mapping[Node, HorizonPerfectTree]

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        trees = {tuple(s): p for s, p in dict(self.trees).items()}
        # There are 2**(depth + 1) - 1 words up to the depth; counting the
        # keys first bounds the work by the map, not by the declared depth.
        count = len(trees) + 1
        if count & (count - 1) or count.bit_length() != self.depth + 2:
            raise ValueError("need exactly one tree per word up to the depth")
        expected = {
            tuple(w)
            for l in range(self.depth + 1)
            for w in itertools.product((0, 1), repeat=l)
        }
        if set(trees) != expected:
            raise ValueError("need exactly one tree per word up to the depth")
        # Keys equal to int words, such as (True,) or (0.0,), are stored as
        # those words, which the codec writes as "0"/"1" strings.
        trees = {w: trees[w] for w in expected}
        horizons = {p.horizon for p in trees.values()}
        if len(horizons) != 1:
            raise ValueError("all trees must share one horizon")
        object.__setattr__(self, "trees", trees)

    @property
    def horizon(self) -> int:
        return next(iter(self.trees.values())).horizon

    def at(self, s: Node) -> HorizonPerfectTree:
        try:
            return self.trees[tuple(s)]
        except KeyError:
            raise ValueError(f"{tuple(s)!r} is outside the map") from None


def fusion_union(rmap: RMap, n: int) -> HorizonPerfectTree:
    """Union of the trees at the level-n words."""
    if not 0 <= n <= rmap.depth:
        raise ValueError(f"level {n} outside [0, {rmap.depth}]")
    trees = (rmap.at(s).levels for s in itertools.product((0, 1), repeat=n))
    levels = tuple(reduce(or_, masks) for masks in zip(*trees))
    return HorizonPerfectTree(rmap.horizon, levels=levels)


@dataclass(frozen=True)
class FusionReport:
    passed: bool
    failures: tuple[str, ...]
    chain: tuple[HorizonPerfectTree, ...]


def verify_fusion_helper(rmap: RMap) -> FusionReport:
    """Check the refinement laws and the chain they are meant to produce.

    The level unions p_0 .. p_depth must satisfy p_0 superset p_1 and
    p_n >=_{n-1} p_{n+1}; both are checked outright rather than trusted.
    """
    failures: list[str] = []
    for s, p in sorted(rmap.trees.items()):
        if s and not _subset(p, rmap.at(s[:-1])):
            failures.append(f"not a refinement of its parent at word {s!r}")
    for l in range(rmap.depth):
        for s in itertools.product((0, 1), repeat=l):
            s0, s1 = stem_or_path(rmap.at(s + (0,))), stem_or_path(rmap.at(s + (1,)))
            if s0[: len(s1)] == s1 or s1[: len(s0)] == s0:
                failures.append(f"successor stems comparable at word {s!r}")

    chain = tuple(fusion_union(rmap, n) for n in range(rmap.depth + 1))
    if len(chain) >= 2 and not _subset(chain[1], chain[0]):
        failures.append("level union 1 is not contained in level union 0")
    for n in range(1, rmap.depth):
        if not hpt_leq_n(chain[n + 1], chain[n], n - 1):
            failures.append(
                f"level union {n + 1} does not keep the early branching of {n}"
            )
    return FusionReport(not failures, tuple(failures), chain)


def fusion_intersect(ps: Sequence[HorizonPerfectTree]) -> HorizonPerfectTree:
    """Collapse a chain in which each tree n-refines its predecessor.

    Validates p_i >=_i p_{i+1} along the chain and returns its last link.
    Each link check includes containment, so a chain that passes is
    descending and its intersection is the last link itself: a valid tree,
    inside every link, with a splitting gap no worse than the chain's worst.
    """
    ps = tuple(ps)
    if not ps:
        raise ValueError("nothing to intersect")
    for i in range(len(ps) - 1):
        if not hpt_leq_n(ps[i + 1], ps[i], i):
            raise ValueError(f"link {i} of the chain is not an {i}-refinement")
    return ps[-1]
