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
from typing import Callable, Iterable, Optional, Sequence

from shrinkwrap.core import (
    BranchTree,
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


def big_t(wrapper: ShrinkWrapper, n: int) -> BranchTree:
    """Covering tree at index n.

    A branch survives when every in-scope pair position involving n assigns
    it to some word's tree.  Kept as a branch set, so the result is pruned:
    nodes live only below surviving branches.
    """
    return _cover(wrapper.scope.pairs(), n, _family_trees(wrapper))


def sep_bound(wrapper: ShrinkWrapper, n2: int) -> int:
    """Least level by which every disjoint tree pair aimed at n2 has split.

    Ranges over in-scope pair positions whose larger index is n2 and over
    word pairs selecting disjoint branch sets.  No such pair means no
    constraint, hence 0.
    """
    return _sep_bound(wrapper.scope.pairs(), n2, _family_trees(wrapper))


def _family_trees(wrapper: ShrinkWrapper) -> Callable[[int, int], dict[BranchTree, int]]:
    # Each family's distinct trees, computed on first use and then reused.
    seen: dict[tuple[int, int], dict[BranchTree, int]] = {}

    def trees(nt: int, n: int) -> dict[BranchTree, int]:
        if (nt, n) not in seen:
            seen[(nt, n)] = wrapper.family(nt, n).distinct_trees()
        return seen[(nt, n)]

    return trees


def _cover(pairs: Iterable[tuple[int, int, int]], n: int, trees) -> BranchTree:
    unions = [
        frozenset().union(*(tree.branches for tree in trees(nt, n)))
        for nt, a, b in pairs
        if n in (a, b)
    ]
    if not unions:
        raise ValueError(f"no in-scope pair position involves index {n}")
    common = frozenset.intersection(*unions)
    if not common:
        raise ValueError(f"covering branch sets at index {n} have empty intersection")
    return BranchTree(common)


def _sep_bound(pairs: Iterable[tuple[int, int, int]], n2: int, trees) -> int:
    bound = 0
    for nt, a, b in pairs:
        if b != n2:
            continue
        for t1 in trees(nt, a):
            for t2 in trees(nt, b):
                level = bt_separation_level(t1, t2)
                if level is not None:
                    bound = max(bound, level)
    return bound


# Longest window a sequence is packed to, which bounds the memory a long
# period costs.  A shorter window reaches past the Fine-Wilf bound of every
# pair, so windows that agree belong to equal sequences; capped windows
# that agree are settled by the exact scan.
_WINDOW_CAP = 64


def _pack(seqs: set[UPReal]) -> tuple[dict[UPReal, int], int, int]:
    """Each sequence as one int: its first L positions at one symbol width,
    position 0 in the highest symbol.

    L is the longest prefix plus twice the longest period, which passes the
    Fine-Wilf bound of every pair, capped at ``_WINDOW_CAP``.  Values that
    all fit a byte are packed as they are; otherwise each distinct value is
    replaced by its index in a table, so a huge value costs one symbol.
    Returns the ints, their width in bits and the symbol width in bits.
    """
    length = min(
        _WINDOW_CAP,
        max((len(x.prefix) for x in seqs), default=0)
        + 2 * max((len(x.period) for x in seqs), default=0),
    )
    windows = {}
    for x in seqs:
        head = x.prefix[:length]
        need = length - len(head)
        if need:
            head += (x.period * -(-need // len(x.period)))[:need]
        windows[x] = head
    if max(map(max, windows.values()), default=0) < 256:
        width, pack = 1, bytes
    else:
        values = set().union(*windows.values())
        width = max(1, ((len(values) - 1).bit_length() + 7) // 8)
        codes = {v: i.to_bytes(width, "big") for i, v in enumerate(values)}

        def pack(window):
            return b"".join(map(codes.__getitem__, window))

    keys = {x: int.from_bytes(pack(w), "big") for x, w in windows.items()}
    return keys, 8 * width * length, 8 * width


def g_full(wrapper: ShrinkWrapper, x: UPReal, n: int) -> int:
    """Dominating value at n from a wrapper: exit, separation bound, or n."""
    return max(
        exit_level(big_t(wrapper, n), x),
        sep_bound(wrapper, n),
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
        # One list of pair positions and one distinct_trees() call per
        # family serve every index.
        pairs = list(wrapper.scope.pairs())
        family_trees = _family_trees(wrapper)
        covers = [_cover(pairs, n, family_trees) for n in range(n_reals)]
        bounds = [_sep_bound(pairs, n, family_trees) for n in range(n_reals)]
        in_scope = {(a, b) for _, a, b in pairs}
        enforce_pointwise = wrapper.scope.covers_all_pairs()
    else:
        if len(trees) != n_reals:
            raise ValueError("need exactly one tree per point")
        covers = list(trees)
        bounds = [0] * n_reals
        in_scope = {
            (a, b) for a in range(n_reals) for b in range(a + 1, n_reals)
        }
        enforce_pointwise = True

    battery = tuple(battery)
    cover_sets = [cover.branches for cover in covers]
    keys, total, symbol = _pack(set(xs).union(battery, *cover_sets))
    point_keys = [keys[y] for y in xs]
    cover_keys = [[keys[b] for b in branches] for branches in cover_sets]
    floors = [max(bound, n) for n, bound in enumerate(bounds)]
    rows = []
    for x in battery:
        # fx and exit_level from XORs of packed windows: the highest set
        # bit of kx ^ ky lies in the first position where x and y differ,
        # and the least XOR over a cover's branches marks the branch x
        # follows longest.  A zero XOR means the windows agree, which the
        # cap allows for distinct sequences; those take the exact scan.
        kx = keys[x]
        f_values = tuple(
            (total - d.bit_length()) // symbol if d else 0 if x == y else up_first_diff(x, y)
            for d, y in zip(map(kx.__xor__, point_keys), xs)
        )
        in_tree, g_values = [], []
        for branches, branch_keys, g in zip(cover_sets, cover_keys, floors):
            d = min(map(kx.__xor__, branch_keys))
            inside = not d and x in branches
            if not inside:
                level = (total - d.bit_length()) // symbol if d else max(
                    up_first_diff(x, b) for b in branches if keys[b] == kx
                )
                g = max(1 + level, g)
            in_tree.append(inside)
            g_values.append(g)
        in_tree, g_values = tuple(in_tree), tuple(g_values)
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
