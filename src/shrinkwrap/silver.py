"""Silver trees, subtree surgery, and the brute-force obstruction checker.

A Silver tree splits exactly at a set of levels and is rigid elsewhere:
every path takes the same fixed value at each non-split level.  Here the
split set is declared on a finite window below a horizon and every level at
or past the horizon splits, so the split set is infinite and leftmost
branches are ultimately periodic.

The obstruction checker instantiates an impossibility argument over a
finite ground universe of sequences standing in for an old, smaller world.
An adversarial pair of sequences is cooked from a branch of a Silver tree
so that both land on one sequence u that the universe does not contain.
Any wrapper whose trees and isolated sets draw only from the universe must
then fail one of its laws on that pair; the checker names the broken law
for a given wrapper, and the brute enumerator does so for every candidate
assignment within a size bound, counting verdicts by clause.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Mapping, Optional

from shrinkwrap.core import (
    ZERO,
    BranchTree,
    Node,
    UPReal,
    pair_index,
    up_eval,
    up_sorted,
)
from shrinkwrap.wrapper import ShrinkWrapper


@dataclass(frozen=True)
class SilverTree:
    """Split levels and fixed values on a finite window; all-split tail.

    ``split_levels`` lists the splitting levels below ``horizon``; every
    other level below the horizon carries one fixed bit, and every level at
    or past the horizon splits.  The constructor only normalizes the
    representation; judging it is :func:`sv_validate`'s job, so broken
    representations can be built and rejected explicitly.
    """

    horizon: int
    split_levels: frozenset[int]
    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # Levels and bits that equal ints, such as 1.0 or True, are stored
        # as those ints: stem, sv_leftmost and the codec index with them.
        def level(l):
            return int(l) if _is_level(l, self.horizon) else l

        fixed = self.fixed
        if isinstance(fixed, Mapping):
            fixed = fixed.items()
        fixed = [(level(l), int(b) if b in (0, 1) else b) for l, b in fixed]
        object.__setattr__(self, "split_levels", frozenset(map(level, self.split_levels)))
        object.__setattr__(self, "fixed", tuple(sorted(fixed)))

    def fixed_map(self) -> dict[int, int]:
        return dict(self.fixed)

    def stem(self) -> Node:
        """Fixed bits up to the first splitting level."""
        if not sv_validate(self):
            raise ValueError("not a valid silver representation")
        first = min(self.split_levels, default=self.horizon)
        fixed = self.fixed_map()
        return tuple(fixed[l] for l in range(first))

    def sorted_split_levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.split_levels))

    def nodes_within(self) -> frozenset[Node]:
        """All nodes of length at most the horizon."""
        if not sv_validate(self):
            raise ValueError("not a valid silver representation")
        fixed = self.fixed_map()
        out = [()]
        frontier = [()]
        for l in range(self.horizon):
            bits = (0, 1) if l in self.split_levels else (fixed[l],)
            frontier = [t + (b,) for t in frontier for b in bits]
            out.extend(frontier)
        return frozenset(out)


def sv_validate(p: SilverTree) -> bool:
    """Do the declared split levels and fixed values form a Silver tree?"""
    if p.horizon < 0:
        return False
    if not all(_is_level(l, p.horizon) for l in p.split_levels):
        return False
    fixed = dict(p.fixed)
    if len(fixed) != len(p.fixed):
        return False
    # The fixed levels must be exactly the levels below the horizon that do
    # not split.  Counting first keeps the work linear in the representation,
    # however large the declared horizon.
    if len(fixed) + len(p.split_levels) != p.horizon:
        return False
    if not all(_is_level(l, p.horizon) and l not in p.split_levels for l in fixed):
        return False
    return all(b in (0, 1) for b in fixed.values())


def _is_level(l, horizon: int) -> bool:
    """Does ``l`` equal a level below the horizon?  ``2.0`` and ``True`` do,
    as they equal the ints 2 and 1; ``0.5`` and ``"a"`` do not."""
    try:
        return 0 <= l < horizon and l == int(l)
    except (TypeError, ValueError):
        return False


def sv_leftmost(p: SilverTree, t: Node = ()) -> UPReal:
    """The branch extending t that takes 0 at every later free level.

    Free levels are the splitting levels and everything past the horizon,
    so the result is zero from the horizon on: an ultimately periodic
    sequence with period 0.
    """
    if not sv_validate(p):
        raise ValueError("not a valid silver representation")
    t = tuple(t)
    if len(t) > p.horizon:
        raise ValueError("node sticks out past the horizon")
    fixed = p.fixed_map()
    values = []
    for l in range(p.horizon):
        if l < len(t):
            b = t[l]
            if b not in (0, 1) or (l in fixed and b != fixed[l]):
                raise ValueError(f"node contradicts the tree at level {l}")
            values.append(b)
        else:
            values.append(fixed.get(l, 0))
    return UPReal(tuple(values), (0,))


def replace_below(p: frozenset[Node], t: Node, s: Node) -> frozenset[Node]:
    """Copy of p in which the subtree below t is the one below s.

    Keeps every node not extending t, then grafts {t + w : s + w in p}.
    Both nodes must lie in p and have equal length.
    """
    t, s = tuple(t), tuple(s)
    if t not in p or s not in p:
        raise ValueError("both nodes must lie in the tree")
    if len(t) != len(s):
        raise ValueError("nodes must sit at the same level")
    kept = frozenset(u for u in p if u[: len(t)] != t)
    graft = frozenset(t + u[len(s) :] for u in p if u[: len(s)] == s)
    return kept | graft


def _silver_from_nodes(horizon: int, nodes: frozenset[Node]) -> SilverTree:
    # Reconstruct (split levels, fixed values) or reject as non-silver.
    split_levels = set()
    fixed = {}
    frontier = [()]
    for l in range(horizon):
        patterns = {
            tuple(b for b in (0, 1) if t + (b,) in nodes) for t in frontier
        }
        if patterns == {(0, 1)}:
            split_levels.add(l)
        elif patterns == {(0,)} or patterns == {(1,)}:
            fixed[l] = patterns.pop()[0]
        else:
            raise ValueError(f"level {l} is neither split nor uniformly fixed")
        bits = (0, 1) if l in split_levels else (fixed[l],)
        frontier = [t + (b,) for t in frontier if t in nodes for b in bits]
    expected_count = sum(
        1 << len([l for l in split_levels if l < m]) for m in range(horizon + 1)
    )
    if len(nodes) != expected_count:
        raise ValueError("node set carries stray nodes")
    return SilverTree(horizon, frozenset(split_levels), tuple(sorted(fixed.items())))


def homogenize(
    p: SilverTree,
    k: int,
    shrinker: Callable[[frozenset[Node]], frozenset[Node]],
) -> SilverTree:
    """One shrink-then-copy round over the k-th splitting level.

    Visits the 2^k nodes of the k-th splitting level in order; at each, the
    shrinker thins the subtree rooted there (it must return a subset of its
    input that keeps the root), and the thinned subtree is copied onto all
    the other nodes of the level.  The result must reconstruct as a Silver
    tree, which the uniform copying guarantees whenever the shrinker output
    is itself homogeneous.
    """
    levels = p.sorted_split_levels()
    if not 0 <= k < len(levels):
        raise ValueError(f"no splitting level of order {k} below the horizon")
    lk = levels[k]
    nodes = p.nodes_within()
    level_nodes = sorted(t for t in nodes if len(t) == lk)
    for t_i in level_nodes:
        cone = frozenset(u for u in nodes if u[: lk] == t_i)
        shrunk = shrinker(cone)
        if not (shrunk <= cone and t_i in shrunk):
            raise ValueError("shrinker output is not a subtree of its input")
        nodes = frozenset(u for u in nodes if u[: lk] != t_i) | shrunk
        for t_j in level_nodes:
            if t_j != t_i:
                nodes = replace_below(nodes, t_j, t_i)
    return _silver_from_nodes(p.horizon, nodes)


def _require_binary(r: UPReal) -> None:
    if any(v not in (0, 1) for v in (*r.prefix, *r.period)):
        raise ValueError("sequence must be binary")


def flatten(r: UPReal, n: int) -> UPReal:
    """r with every position up to and including n zeroed."""
    _require_binary(r)
    if n < 0:
        raise ValueError("position must be nonnegative")
    length = max(n + 1, len(r.prefix))
    values = [0] * (n + 1) + [up_eval(r, i) for i in range(n + 1, length)]
    phase = (length - len(r.prefix)) % len(r.period)
    period = r.period[phase:] + r.period[:phase]
    return UPReal(tuple(values), period)


def adversarial_pair(r: UPReal, n: int) -> tuple[UPReal, UPReal]:
    """The n-th adversarial pair cooked from the branch r.

    One side is the flattened branch, the other the zero sequence; which is
    which depends on the branch's bit at n.
    """
    flat = flatten(r, n)
    if up_eval(r, n) == 0:
        return flat, ZERO
    return ZERO, flat


def adversarial_sequence(r: UPReal, count: int) -> tuple[UPReal, ...]:
    """The first ``count`` adversarial pairs, flattened into 2*count entries."""
    _require_binary(r)
    out = []
    for n in range(count):
        out.extend(adversarial_pair(r, n))
    return tuple(out)


@dataclass(frozen=True)
class GroundUniverse:
    """Finite set of sequences standing in for the old world.

    Must contain the zero sequence; everything a candidate wrapper mentions
    is required to come from here.
    """

    reals: frozenset[UPReal]

    def __post_init__(self):
        reals = frozenset(self.reals)
        if ZERO not in reals:
            raise ValueError("the ground universe must contain the zero sequence")
        object.__setattr__(self, "reals", reals)

    def __contains__(self, x: UPReal) -> bool:
        return x in self.reals

    def __iter__(self):
        return iter(up_sorted(self.reals))

    def __len__(self) -> int:
        return len(self.reals)


@dataclass(frozen=True)
class ObstructionReport:
    """What the checker found: the staged pair and the broken law.

    ``clause`` is one of "condition2", "3a", "3b", "3c"; the words and
    trees, when present, let the verdict be re-checked from the wrapper.
    """

    n: int
    ntilde: int
    r0: UPReal
    r1: UPReal
    u: UPReal
    clause: str
    index: Optional[int]
    s1: Optional[Node]
    s2: Optional[Node]
    tree1: Optional[BranchTree]
    tree2: Optional[BranchTree]
    reason: str


@dataclass(frozen=True)
class _ObstructionContext:
    n: int
    ntilde: int
    r0: UPReal
    r1: UPReal
    u: UPReal


def _stage_obstruction(universe: GroundUniverse, silver_p: SilverTree) -> _ObstructionContext:
    # Stage the adversarial pair from the tree's stem and vet it.
    stem = silver_p.stem()
    n = len(stem)
    if n >= silver_p.horizon:
        raise ValueError(
            "the flattened branch is the zero sequence; the tree needs a "
            "splitting level below the horizon"
        )
    ntilde = pair_index((2 * n, 2 * n + 1))
    # The two branches differ only at n, so both flatten to u, which
    # adversarial_pair puts at index 2n for r0 and at 2n + 1 for r1.
    r0 = sv_leftmost(silver_p, stem + (0,))
    r1 = sv_leftmost(silver_p, stem + (1,))
    u = flatten(r0, n)
    if u == ZERO:
        raise ValueError(
            "the flattened branch is the zero sequence; the tree's fixed part "
            "must put a one past its stem"
        )
    if u in universe:
        raise ValueError("the flattened branch lies in the ground universe")
    return _ObstructionContext(n, ntilde, r0, r1, u)


def _violated_clause(
    c1: frozenset[UPReal],
    c2: frozenset[UPReal],
    iso1: frozenset[UPReal],
    iso2: frozenset[UPReal],
    u: UPReal,
) -> tuple[str, Optional[int], str]:
    """Name the law a candidate pair of branch sets breaks on (u, zero).

    Total: u is in neither, one, or both of the sets, and every case lands
    in a clause.  The second component flags which index a coverage failure
    belongs to (0 for the even index, 1 for the odd one).
    """
    if u not in c1:
        return (
            "condition2",
            0,
            "no tree at the even index passes through the flattened branch",
        )
    if u not in c2:
        return (
            "condition2",
            1,
            "no tree at the odd index passes through the flattened branch",
        )
    if c1 == c2:
        if len(c1) == 1 and u in iso1 and u in iso2:
            return (
                "3b",
                None,
                "the shared isolated singleton is the flattened branch itself",
            )
        return (
            "3a",
            None,
            "equal branch sets force the pair's points equal, but under the "
            "left branch they are the flattened branch and the zero sequence",
        )
    return (
        "3c",
        None,
        "the flattened branch lies in both sets, so they never separate",
    )


def obstruct(
    wrapper: ShrinkWrapper,
    universe: GroundUniverse,
    silver_p: SilverTree,
) -> ObstructionReport:
    """Name the wrapper law the staged adversarial pair breaks.

    The wrapper must draw every branch and every isolated point from the
    universe; the staged sequence u lies outside it, so some law has to
    give.  The search for covering words runs over the families' distinct
    trees, which is exhaustive.
    """
    for (nt, idx), fam in sorted(wrapper.families.items()):
        for tree in fam.distinct_trees():
            if any(b not in universe for b in tree.branches):
                raise ValueError(
                    f"family ({nt}, {idx}) mentions a branch outside the universe"
                )
    for idx, iso in enumerate(wrapper.isolated):
        if any(y not in universe for y in iso):
            raise ValueError(
                f"isolated set {idx} reaches outside the universe"
            )
    ctx = _stage_obstruction(universe, silver_p)
    even, odd = 2 * ctx.n, 2 * ctx.n + 1
    if odd >= wrapper.scope.n_reals or ctx.ntilde >= wrapper.scope.n_pairs:
        raise ValueError(
            f"scope too small: the staged pair needs index {odd} at pair "
            f"position {ctx.ntilde}"
        )
    covers = []
    for fam in (wrapper.family(ctx.ntilde, even), wrapper.family(ctx.ntilde, odd)):
        tree = next((t for t in fam.distinct_trees() if ctx.u in t.branches), None)
        covers.append((None if tree is None else fam.representative(tree), tree))
    (s1, t1), (s2, t2) = covers
    clause, index, reason = _violated_clause(
        t1.branches if t1 is not None else frozenset(),
        t2.branches if t2 is not None else frozenset(),
        wrapper.isolated[even],
        wrapper.isolated[odd],
        ctx.u,
    )
    return ObstructionReport(
        ctx.n, ctx.ntilde, ctx.r0, ctx.r1, ctx.u,
        clause, index, s1, s2, t1, t2, reason,
    )


@dataclass(frozen=True)
class BruteSummary:
    """Exhaustive sweep result: every candidate must land in some clause."""

    n: int
    ntilde: int
    u: UPReal
    total: int
    histogram: tuple[tuple[str, int], ...]
    survivors: int
    vacuous: bool
    s_uniform: bool
    max_branches: int


_BRUTE_CAP = 4_000_000


def _clause_counts(
    choices: list[tuple[frozenset[UPReal], ...]],
    iso_sets: list[frozenset[UPReal]],
    u: UPReal,
) -> dict[str, int]:
    """Verdicts of every (trees1, trees2, iso1, iso2) candidate, by clause.

    A verdict reads a family only through its first tree holding u, and an
    isolated set only through whether it holds u.  So the families fall into
    cover classes, keyed by that tree (the empty set when no tree holds u),
    and the isolated sets into at most two classes (with u, without u); each
    combination of classes is classified once and weighted by the number of
    candidates in it.
    """
    covers: dict[frozenset[UPReal], int] = {}
    for trees in choices:
        cover = next((c for c in trees if u in c), frozenset())
        covers[cover] = covers.get(cover, 0) + 1
    classes: dict[bool, tuple[frozenset[UPReal], int]] = {}
    for iso in iso_sets:
        held = u in iso
        first, size = classes.get(held, (iso, 0))
        classes[held] = (first, size + 1)
    counts: dict[str, int] = {}
    for t1, count1 in covers.items():
        for t2, count2 in covers.items():
            for iso1, size1 in classes.values():
                for iso2, size2 in classes.values():
                    clause, _, _ = _violated_clause(t1, t2, iso1, iso2, u)
                    counts[clause] = counts.get(clause, 0) + count1 * count2 * size1 * size2
    return counts


def brute_obstruction(
    universe: GroundUniverse,
    silver_p: SilverTree,
    max_branches: int,
    s_uniform: bool = True,
) -> BruteSummary:
    """Sweep every bounded candidate assignment at the staged pair position.

    Candidate trees are the nonempty subsets of the universe of size at
    most ``max_branches``; candidate isolated sets additionally allow
    empty.  With ``s_uniform`` every word gets the same tree; without it
    each index picks an ordered (default, special) pair of trees, the
    special one assigned at a single word, which is the coarsest non-
    constant family shape.  The verdict of a candidate depends on its
    assignment only through its first tree holding u, so the sweep is
    exhaustive for these shapes, and it classifies each cover class once.
    The candidates are counted in closed form and checked against the
    sweep cap before any of them is listed.
    """
    if max_branches < 0:
        raise ValueError(f"max_branches must be nonnegative, got {max_branches}")
    ctx = _stage_obstruction(universe, silver_p)
    pool = up_sorted(universe.reals)
    sizes = range(1, min(max_branches, len(pool)) + 1)
    n_trees = sum(comb(len(pool), size) for size in sizes)
    uniform = ctx.ntilde == 0 or s_uniform
    # Isolated sets are the candidate trees plus the empty set.
    total = (n_trees if uniform else n_trees**2) ** 2 * (n_trees + 1) ** 2
    if total > _BRUTE_CAP:
        raise ValueError(
            f"{total} candidates exceed the sweep cap of {_BRUTE_CAP}"
        )
    if total == 0:
        return BruteSummary(
            ctx.n, ctx.ntilde, ctx.u, 0, (), 0, True, s_uniform, max_branches
        )
    tree_sets = [frozenset(c) for size in sizes for c in itertools.combinations(pool, size)]
    iso_sets = [frozenset(), *tree_sets]
    if uniform:
        choices = [(c,) for c in tree_sets]
    else:
        choices = [(d, s) for d in tree_sets for s in tree_sets]
    counts = _clause_counts(choices, iso_sets, ctx.u)
    histogram = tuple(sorted(counts.items()))
    survivors = total - sum(counts.values())
    if survivors != 0:
        raise AssertionError(f"{survivors} candidate assignments break no clause")
    return BruteSummary(
        ctx.n, ctx.ntilde, ctx.u, total, histogram, survivors, False,
        s_uniform, max_branches,
    )
