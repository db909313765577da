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
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from shrinkwrap.core import Node


@dataclass(frozen=True)
class HorizonPerfectTree:
    """Binary tree truncated at ``horizon`` with the extendibility promise.

    ``nodes`` is prefix-closed; every node shorter than the horizon has at
    least one child, so maximal nodes sit exactly at the horizon.
    """

    horizon: int
    nodes: frozenset[Node]

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        nodes = frozenset(map(tuple, self.nodes))
        if not nodes:
            raise ValueError("tree must contain the root")
        # Every bit of a node is the last bit of one of its prefixes, so
        # once the loop below has found every parent, testing last bits
        # has tested them all.
        if max(map(len, nodes)) > self.horizon or not {
            t[-1] for t in nodes if t
        } <= {0, 1}:
            raise ValueError("nodes must be binary words within the horizon")
        for t in nodes:
            if t and t[:-1] not in nodes:
                raise ValueError(f"node {t!r} is missing its parent")
            if len(t) < self.horizon and not (
                t + (0,) in nodes or t + (1,) in nodes
            ):
                raise ValueError(f"node {t!r} breaks the extendibility promise")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def full(cls, horizon: int) -> "HorizonPerfectTree":
        nodes = frozenset(
            tuple(w)
            for l in range(horizon + 1)
            for w in itertools.product((0, 1), repeat=l)
        )
        return cls(horizon, nodes)

    def children(self, t: Node) -> tuple[Node, ...]:
        return tuple(t + (b,) for b in (0, 1) if t + (b,) in self.nodes)

    def is_branching(self, t: Node) -> bool:
        return t + (0,) in self.nodes and t + (1,) in self.nodes

    def branching_nodes(self) -> frozenset[Node]:
        nodes = self.nodes
        return frozenset(t for t in nodes if t + (0,) in nodes and t + (1,) in nodes)

    def below(self, t: Node) -> "HorizonPerfectTree":
        """The subtree of nodes comparable with ``t``."""
        t = tuple(t)
        if t not in self.nodes:
            raise ValueError(f"{t!r} is not a node")
        n = len(t)
        kept = frozenset(u for u in self.nodes if u[:n] == t).union(
            t[:i] for i in range(n)
        )
        return HorizonPerfectTree(self.horizon, kept)

    def paths(self) -> frozenset[Node]:
        """Maximal nodes; each promises a continuation past the horizon."""
        return frozenset(t for t in self.nodes if len(t) == self.horizon)

    def gap(self) -> int:
        """The tree's splitting slack.

        Nodes at most ``horizon - gap()`` long always have a branching
        descendant strictly shorter than the horizon; at least one node of
        length ``horizon - gap() + 1`` does not.  Always at least 1, since
        maximal nodes have no strict descendants at all.
        """
        reachable = set()
        for t in self.branching_nodes():
            # prefix closure; the root's parent is the root itself
            while t not in reachable:
                reachable.add(t)
                t = t[:-1]
        bad = min(map(len, self.nodes - reachable))
        return self.horizon + 1 - bad


def stem_or_path(p: HorizonPerfectTree) -> Node:
    """First branching node, or the maximal node of a branchless tree."""
    t: Node = ()
    while True:
        kids = p.children(t)
        if len(kids) != 1:
            return t
        t = kids[0]


def hpt_stem(p: HorizonPerfectTree) -> Node:
    """Minimal branching node.  A tree may run out of splits before the
    horizon; that is an error here, unlike :func:`stem_or_path`."""
    t = stem_or_path(p)
    if not p.is_branching(t):
        raise ValueError("no branching node within the horizon")
    return t


def _splits_upto(p: HorizonPerfectTree, n: int) -> Iterator[tuple[Node, int]]:
    """Branching nodes with at most n branching proper initial segments,
    each with that count.

    Walks down from the root and stops below a node's n-th split, so it
    visits only the part of the tree above the splits it reports.
    """
    nodes = p.nodes
    stack: list[tuple[Node, int]] = [((), 0)] if n >= 0 else []
    while stack:
        t, k = stack.pop()
        t0, t1 = t + (0,), t + (1,)
        if t0 in nodes and t1 in nodes:
            yield t, k
            if k < n:
                stack += ((t0, k + 1), (t1, k + 1))
        elif t0 in nodes:
            stack.append((t0, k))
        elif t1 in nodes:
            stack.append((t1, k))


def hpt_branching_nodes(p: HorizonPerfectTree, k: int) -> frozenset[Node]:
    """Branching nodes with exactly k branching proper initial segments."""
    return frozenset(t for t, order in _splits_upto(p, k) if order == k)


def hpt_leq_n(q: HorizonPerfectTree, p: HorizonPerfectTree, n: int) -> bool:
    """Does q refine p while keeping p's k-th branching nodes for k <= n?"""
    if q.horizon != p.horizon:
        raise ValueError("trees live at different horizons")
    if not q.nodes <= p.nodes:
        return False
    return all(q.is_branching(t) for t, _ in _splits_upto(p, n))


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
        expected = {
            tuple(w)
            for l in range(self.depth + 1)
            for w in itertools.product((0, 1), repeat=l)
        }
        if set(trees) != expected:
            raise ValueError("need exactly one tree per word up to the depth")
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
    nodes = frozenset().union(
        *(rmap.at(s).nodes for s in itertools.product((0, 1), repeat=n))
    )
    return HorizonPerfectTree(rmap.horizon, nodes)


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
        if s and not p.nodes <= rmap.at(s[:-1]).nodes:
            failures.append(f"not a refinement of its parent at word {s!r}")
    for l in range(rmap.depth):
        for s in itertools.product((0, 1), repeat=l):
            s0, s1 = stem_or_path(rmap.at(s + (0,))), stem_or_path(rmap.at(s + (1,)))
            if s0[: len(s1)] == s1 or s1[: len(s0)] == s0:
                failures.append(f"successor stems comparable at word {s!r}")

    chain = tuple(fusion_union(rmap, n) for n in range(rmap.depth + 1))
    if len(chain) >= 2 and not chain[1].nodes <= chain[0].nodes:
        failures.append("level union 1 is not contained in level union 0")
    for n in range(1, rmap.depth):
        if not hpt_leq_n(chain[n + 1], chain[n], n - 1):
            failures.append(
                f"level union {n + 1} does not keep the early branching of {n}"
            )
    return FusionReport(not failures, tuple(failures), chain)


def fusion_intersect(ps: Sequence[HorizonPerfectTree]) -> HorizonPerfectTree:
    """Collapse a chain in which each tree n-refines its predecessor.

    Validates p_i >=_i p_{i+1} along the chain, then intersects the node
    sets.  A finite chain of that shape is descending, so the intersection
    is its last element; the value of the operation is the validation and
    the guarantees checked on the way out: containment in every link and a
    splitting gap no worse than the chain's worst.
    """
    ps = tuple(ps)
    if not ps:
        raise ValueError("nothing to intersect")
    for i in range(len(ps) - 1):
        if not hpt_leq_n(ps[i + 1], ps[i], i):
            raise ValueError(f"link {i} of the chain is not an {i}-refinement")
    common = frozenset.intersection(*(p.nodes for p in ps))
    try:
        out = HorizonPerfectTree(ps[0].horizon, common)
    except ValueError as exc:
        raise ValueError(
            "intersection breaks the extendibility promise; widen the horizon"
        ) from exc
    if not all(out.nodes <= p.nodes for p in ps):
        raise AssertionError("intersection is not inside every tree of the chain")
    if not out.gap() <= max(p.gap() for p in ps):
        raise AssertionError("intersection widens the gap of the chain")
    return out
