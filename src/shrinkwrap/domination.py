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
from itertools import compress, repeat
from operator import gt
from typing import Iterable, Iterator, Optional, Sequence

from shrinkwrap.core import BranchTree, UPReal, up_first_diff, up_window
from shrinkwrap.wrapper import ShrinkWrapper


# Longest window a sequence is packed to, which bounds the memory a long
# period costs.  A shorter window reaches past the Fine-Wilf bound of every
# pair, so windows that agree belong to equal sequences; capped windows
# that agree are settled by the exact scan.
_WINDOW_CAP = 64


def _pack(seqs: Iterable[UPReal]) -> tuple[dict[UPReal, int], int, int]:
    """Each sequence as one int: its first L positions at one symbol width,
    position 0 in the highest symbol.

    L is :func:`up_window`, which passes the Fine-Wilf bound of every pair,
    capped at ``_WINDOW_CAP``.  Values that all fit a byte are packed as they
    are; otherwise each distinct value is replaced by its index in a table,
    so a huge value costs one symbol.  Returns the ints, their width in bits
    and the symbol width in bits.
    """
    seqs = list(seqs)
    length = min(_WINDOW_CAP, up_window(seqs))
    windows = [x.initial_segment(length) for x in seqs]
    if max(map(max, windows), default=0) < 256:
        width, pack = 1, bytes
    else:
        values = set().union(*windows)
        width = max(1, ((len(values) - 1).bit_length() + 7) // 8)
        codes = {v: i.to_bytes(width, "big") for i, v in enumerate(values)}

        def pack(window):
            return b"".join(map(codes.__getitem__, window))

    keys = dict(zip(seqs, map(int.from_bytes, map(pack, windows), repeat("big"))))
    return keys, 8 * width * length, 8 * width


def _positions(values: list, value) -> Iterator[int]:
    """The positions that hold ``value``, each found by a C scan."""
    i = -1
    while True:
        try:
            i = values.index(value, i + 1)
        except ValueError:
            return
        yield i


def _rows(columns: list[list], count: int) -> list[tuple]:
    """The columns, each ``count`` long, as ``count`` rows; with no
    columns, ``count`` empty rows."""
    return list(zip(*columns)) if columns else [()] * count


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
    scope, which is automatic for the tree provider.  The rows are
    computed once per distinct probe, and a repeated probe's row is its
    first occurrence's row object.
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
    # One row per distinct probe, shared by its repeats: the battery
    # position where each probe first appears, and the distinct probes in
    # battery order.
    firsts: dict[UPReal, int] = {}
    first_at = list(map(firsts.setdefault, battery, range(len(battery))))
    probes = list(map(battery.__getitem__, firsts.values()))
    keys, total, symbol = _pack(set(xs).union(probes, *packed))
    # First differences, exit levels and separation bounds from XORs of
    # packed windows: the highest set bit of kx ^ ky lies in the first
    # position where x and y differ, so the least XOR over many pairs marks
    # their longest agreement.  A zero XOR means the windows agree, which
    # the cap allows for distinct sequences; those take the exact scan.
    # Indexed by the bit length of a nonzero XOR: that first position, and
    # one past it.
    levels = [(total - length) // symbol for length in range(total + 1)]
    exits = [level + 1 for level in levels]
    bounds = [0] * n_reals
    for b, sets_a, sets_b in positions:
        # Each disjoint tree pair raises the larger index's bound past the
        # last first difference between their branches.
        for c1 in sets_a:
            keys1 = [keys[x] for x in c1]
            for c2 in sets_b:
                if c1.isdisjoint(c2):
                    d = min(min(map(keys[y].__xor__, keys1)) for y in c2)
                    level = levels[d.bit_length()] if d else max(
                        up_first_diff(x, y) for x in c1 for y in c2 if keys[x] == keys[y]
                    )
                    bounds[b] = max(bounds[b], 1 + level)
    # Each point's f column and each cover's g column over every distinct
    # probe at once.  A zero XOR reads a placeholder level, which the exact
    # scan then replaces.
    probe_keys = list(map(keys.__getitem__, probes))
    count = len(probes)
    f_columns = []
    for y in xs:
        ky = keys[y]
        f = list(map(levels.__getitem__, map(int.bit_length, map(ky.__xor__, probe_keys))))
        for i in _positions(probe_keys, ky):
            x = probes[i]
            f[i] = 0 if x == y else up_first_diff(x, y)
        f_columns.append(f)
    g_columns, in_columns = [], []
    for n, branches in enumerate(cover_sets):
        floor = max(bounds[n], n)
        first, *rest = [keys[b] for b in branches]
        d = list(map(first.__xor__, probe_keys))
        for kb in rest:
            d = list(map(min, d, map(kb.__xor__, probe_keys)))
        g = list(map(max, map(exits.__getitem__, map(int.bit_length, d)), repeat(floor)))
        inside = [False] * count
        for i in _positions(d, 0):
            x = probes[i]
            if x in branches:
                inside[i], g[i] = True, floor
            else:
                kx = probe_keys[i]
                g[i] = max(1 + max(up_first_diff(x, b) for b in branches if keys[b] == kx), floor)
        g_columns.append(g)
        in_columns.append(inside)
    f_rows, g_rows, in_rows = (_rows(columns, count) for columns in (f_columns, g_columns, in_columns))
    fails = _rows([list(map(gt, f, g)) for f, g in zip(f_columns, g_columns)], count)
    failure_sets = list(map(tuple, map(compress, repeat(range(n_reals)), fails)))
    # Only a probe that fails at some index has violating pairs or
    # pointwise failures, and few do.
    violating, pointwise = [()] * count, [()] * count
    for i in compress(range(count), failure_sets):
        failures, f_values, in_tree = failure_sets[i], f_rows[i], in_rows[i]
        violating[i] = tuple(
            (n1, n2)
            for j, n1 in enumerate(failures)
            for n2 in failures[j + 1 :]
            if (n1, n2) in in_scope and f_values[n1] <= n2
        )
        pointwise[i] = tuple(n for n in failures if not in_tree[n])
    row_at = dict(zip(firsts.values(), map(
        DominationRow, probes, f_rows, g_rows, in_rows, failure_sets, violating, pointwise
    )))
    rows = tuple(map(row_at.__getitem__, first_at))
    passed = not any(violating) and not (enforce_pointwise and any(pointwise))
    return DominationReport(passed, n_reals, enforce_pointwise, rows)
