"""The dominating rule a wrapper gives rise to, and the battery check.

The first-difference function of a point sequence sends a sequence x to the
row of levels where x first differs from each point.  A wrapper bounds that
row almost everywhere: index n gets a cover (the branches lying in some
assigned tree at every in-scope pair position involving n), a separation
bound harvested from the wrapper's disjoint tree pairs, and the fallback n
itself.  The dominating value of x at n is the maximum of the bound, n, and
x's exit level from the cover: 0 when x is a branch, else one past its
longest agreement with a branch.  A plain sequence of trees, one per point,
supports a simpler rule without the separation bound, provided the trees
pass through their points and are pairwise disjoint wherever the points
differ.

The checker runs a finite battery of sequences against either rule.  It
records where the first difference still beats the rule and flags the two
configurations the domination argument rules out: a failure pair n1 < n2
with an in-scope pair position and first difference at n1 at most n2, and,
when every pair of indices is covered, a failure at an index whose cover
the sequence exits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from shrinkwrap.core import BranchTree, UPReal, up_first_diff, up_window
from shrinkwrap.wrapper import ShrinkWrapper


# Longest window a sequence is packed to, which bounds the memory a long
# period costs.  A shorter window reaches past the Fine-Wilf bound of every
# pair, so windows that agree belong to equal sequences; capped windows
# that agree are settled by the exact scan.
_WINDOW_CAP = 64


def _pack(seqs: set[UPReal]) -> tuple[dict[UPReal, int], int, int]:
    """Each sequence as one int: its first L positions at one symbol width,
    position 0 in the highest symbol.

    L is :func:`up_window`, which passes the Fine-Wilf bound of every pair,
    capped at ``_WINDOW_CAP``.  Values that all fit a byte are packed as they
    are; otherwise each distinct value is replaced by its index in a table,
    so a huge value costs one symbol.  Returns the ints, their width in bits
    and the symbol width in bits.
    """
    length = min(_WINDOW_CAP, up_window(seqs))
    windows = {x: x.initial_segment(length) for x in seqs}
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
        wrapper.check_total()
        # One pass over the pair positions reads each family's distinct
        # trees once: their branch union joins both indices' cover lists,
        # and their branch sets are kept for the separation bounds.
        unions = [[] for _ in range(n_reals)]
        positions = []
        in_scope = set()
        for nt, a, b in wrapper.scope.pairs():
            sets_a = [t.branches for t in wrapper.family(nt, a).distinct_trees()]
            sets_b = [t.branches for t in wrapper.family(nt, b).distinct_trees()]
            unions[a].append(frozenset().union(*sets_a))
            unions[b].append(frozenset().union(*sets_b))
            positions.append((b, sets_a, sets_b))
            in_scope.add((a, b))
        cover_sets = []
        for n, sets in enumerate(unions):
            if not sets:
                raise ValueError(f"no in-scope pair position involves index {n}")
            common = frozenset.intersection(*sets)
            if not common:
                raise ValueError(f"covering branch sets at index {n} have empty intersection")
            cover_sets.append(common)
        packed = [union for sets in unions for union in sets]
        enforce_pointwise = wrapper.scope.covers_all_pairs()
    else:
        if len(trees) != n_reals:
            raise ValueError("need exactly one tree per point")
        cover_sets = packed = [tree.branches for tree in trees]
        positions = ()
        in_scope = {
            (a, b) for a in range(n_reals) for b in range(a + 1, n_reals)
        }
        enforce_pointwise = True

    battery = tuple(battery)
    keys, total, symbol = _pack(set(xs).union(battery, *packed))
    # First differences, exit levels and separation bounds from XORs of
    # packed windows: the highest set bit of kx ^ ky lies in the first
    # position where x and y differ, so the least XOR over many pairs marks
    # their longest agreement.  A zero XOR means the windows agree, which
    # the cap allows for distinct sequences; those take the exact scan.
    bounds = [0] * n_reals
    for b, sets_a, sets_b in positions:
        # Each disjoint tree pair raises the larger index's bound past the
        # last first difference between their branches.
        for c1 in sets_a:
            keys1 = [keys[x] for x in c1]
            for c2 in sets_b:
                if c1.isdisjoint(c2):
                    d = min(min(map(keys[y].__xor__, keys1)) for y in c2)
                    level = (total - d.bit_length()) // symbol if d else max(
                        up_first_diff(x, y) for x in c1 for y in c2 if keys[x] == keys[y]
                    )
                    bounds[b] = max(bounds[b], 1 + level)
    point_keys = [keys[y] for y in xs]
    cover_keys = [[keys[b] for b in branches] for branches in cover_sets]
    floors = [max(bound, n) for n, bound in enumerate(bounds)]
    rows = []
    for x in battery:
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
