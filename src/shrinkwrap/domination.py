"""Exit levels and the dominating rule a wrapper gives rise to.

The first-difference function of a point sequence sends a sequence x to the
row of levels where x first differs from each point.  A wrapper bounds that
row almost everywhere: index n gets a covering tree (branches lying in some
assigned tree at every in-scope pair position involving n), a separation
bound harvested from the wrapper's disjoint tree pairs, and the fallback n
itself; the maximum of the three is the dominating value at n.  A plain
sequence of trees, one per point, supports a simpler rule without the
separation bound, provided the trees pass through their points and are
pairwise disjoint wherever the points differ.

The checker runs a finite battery of sequences against either rule.  It
records where the first difference still beats the rule and flags the two
configurations the domination argument rules out: a failure pair n1 < n2
with an in-scope pair position and first difference at n1 at most n2, and,
when every pair of indices is covered, a failure at an index whose covering
tree the sequence exits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from shrinkwrap.core import (
    DEFAULT_CODERS,
    BranchTree,
    CoderConfig,
    UPReal,
    bt_separation_level,
    up_first_diff,
)
from shrinkwrap.wrapper import ShrinkWrapper


def exit_level(tree: BranchTree, x: UPReal) -> int:
    """Least level whose initial segment of x is not a node; 0 for branches."""
    if x in tree.branches:
        return 0
    return 1 + max(up_first_diff(x, b) for b in tree.branches)


def fx(reals: Sequence[UPReal], x: UPReal, n: int) -> int:
    """First difference of x against the n-th point; 0 when they are equal."""
    if not 0 <= n < len(reals):
        raise ValueError(f"index {n} out of range for {len(reals)} points")
    xn = reals[n]
    if x == xn:
        return 0
    return up_first_diff(x, xn)


def big_t(
    wrapper: ShrinkWrapper, n: int, coders: CoderConfig = DEFAULT_CODERS
) -> BranchTree:
    """Covering tree at index n.

    A branch survives when every in-scope pair position involving n assigns
    it to some word's tree.  Kept as a branch set, so the result is pruned:
    nodes live only below surviving branches.
    """
    unions = []
    for nt, a, b in wrapper.scope.pairs(coders):
        if n not in (a, b):
            continue
        union: set[UPReal] = set()
        for tree in wrapper.family(nt, n).distinct_trees():
            union |= tree.branches
        unions.append(union)
    if not unions:
        raise ValueError(f"no in-scope pair position involves index {n}")
    common = set.intersection(*unions)
    if not common:
        raise ValueError(f"covering branch sets at index {n} have empty intersection")
    return BranchTree(frozenset(common))


def sep_bound(
    wrapper: ShrinkWrapper, n2: int, coders: CoderConfig = DEFAULT_CODERS
) -> int:
    """Least level by which every disjoint tree pair aimed at n2 has split.

    Ranges over in-scope pair positions whose larger index is n2 and over
    word pairs selecting disjoint branch sets.  No such pair means no
    constraint, hence 0.
    """
    bound = 0
    for nt, a, b in wrapper.scope.pairs(coders):
        if b != n2:
            continue
        for t1 in wrapper.family(nt, a).distinct_trees():
            for t2 in wrapper.family(nt, b).distinct_trees():
                level = bt_separation_level(t1, t2)
                if level is not None:
                    bound = max(bound, level)
    return bound


def g_full(
    wrapper: ShrinkWrapper, x: UPReal, n: int, coders: CoderConfig = DEFAULT_CODERS
) -> int:
    """Dominating value at n from a wrapper: exit, separation bound, or n."""
    return max(
        exit_level(big_t(wrapper, n, coders), x),
        sep_bound(wrapper, n, coders),
        n,
    )


def g_simple(trees: Sequence[BranchTree], x: UPReal, n: int) -> int:
    """Dominating value at n from a plain tree sequence: exit or n."""
    if not 0 <= n < len(trees):
        raise ValueError(f"index {n} out of range for {len(trees)} trees")
    return max(exit_level(trees[n], x), n)


def check_hypotheses_simple(
    reals: Sequence[UPReal], trees: Sequence[BranchTree]
) -> bool:
    """Does the tree sequence support the simple rule for these points?

    Each tree must pass through its point, and two trees may share a branch
    only when their points are equal.
    """
    if len(reals) != len(trees):
        raise ValueError("need exactly one tree per point")
    if any(x not in t.branches for x, t in zip(reals, trees)):
        return False
    for i in range(len(reals)):
        for j in range(i + 1, len(reals)):
            if reals[i] != reals[j] and trees[i].branches & trees[j].branches:
                return False
    return True


@dataclass(frozen=True)
class DominationRow:
    """One battery entry with its raw rows and everything derived from them.

    ``failure_set`` lists the indices where the first difference beats the
    rule; it is recomputable from ``f_values`` and ``g_values``.
    """

    x: UPReal
    f_values: tuple[int, ...]
    g_values: tuple[int, ...]
    in_tree: tuple[bool, ...]
    failure_set: tuple[int, ...]
    violating_pairs: tuple[tuple[int, int], ...]
    pointwise_failures: tuple[int, ...]


@dataclass(frozen=True)
class DominationReport:
    passed: bool
    n_reals: int
    pointwise_enforced: bool
    rows: tuple[DominationRow, ...]


def check_domination(
    reals: Sequence[UPReal],
    battery: Iterable[UPReal],
    wrapper: Optional[ShrinkWrapper] = None,
    trees: Optional[Sequence[BranchTree]] = None,
    coders: CoderConfig = DEFAULT_CODERS,
) -> DominationReport:
    """Run a battery of sequences against the dominating rule.

    Exactly one provider is allowed: a wrapper (full rule) or a tree
    sequence (simple rule).  Violating pairs count against the verdict
    always; pointwise failures count when every pair of indices is in
    scope, which is automatic for the tree provider.
    """
    if (wrapper is None) == (trees is None):
        raise ValueError("provide exactly one of wrapper or trees")
    xs = tuple(reals)
    n_reals = len(xs)
    if wrapper is not None:
        if wrapper.scope.n_reals != n_reals:
            raise ValueError(
                f"sequence length {n_reals} does not match scope {wrapper.scope.n_reals}"
            )
        covers = [big_t(wrapper, n, coders) for n in range(n_reals)]
        bounds = [sep_bound(wrapper, n, coders) for n in range(n_reals)]
        in_scope = {(a, b) for _, a, b in wrapper.scope.pairs(coders)}
        enforce_pointwise = wrapper.scope.covers_all_pairs(coders)
    else:
        if len(trees) != n_reals:
            raise ValueError("need exactly one tree per point")
        covers = list(trees)
        bounds = [0] * n_reals
        in_scope = {
            (a, b) for a in range(n_reals) for b in range(a + 1, n_reals)
        }
        enforce_pointwise = True

    rows = []
    for x in battery:
        f_values = tuple(fx(xs, x, n) for n in range(n_reals))
        g_values = tuple(
            max(exit_level(covers[n], x), bounds[n], n) for n in range(n_reals)
        )
        in_tree = tuple(x in covers[n].branches for n in range(n_reals))
        failures = tuple(
            n for n in range(n_reals) if f_values[n] > g_values[n]
        )
        violating = tuple(
            (n1, n2)
            for i, n1 in enumerate(failures)
            for n2 in failures[i + 1 :]
            if (n1, n2) in in_scope and f_values[n1] <= n2
        )
        pointwise = tuple(n for n in failures if not in_tree[n])
        rows.append(
            DominationRow(
                x, f_values, g_values, in_tree, failures, violating, pointwise
            )
        )

    passed = all(
        not row.violating_pairs
        and (not enforce_pointwise or not row.pointwise_failures)
        for row in rows
    )
    return DominationReport(passed, n_reals, enforce_pointwise, tuple(rows))
