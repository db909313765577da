"""Shared seeded generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's internal shortcuts: sequences
are unrolled into explicit lists, set relations are decided by pairwise
scans, and verdicts are recomputed from the definitions in a different
order of operations.  The sequence oracles accept a :class:`UPReal` or a raw
``(prefix, period)`` pair of tuples; the constructor reduces every
``UPReal`` to canonical form, so raw pairs are the only way to hand them an
unreduced representation.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import cmp_to_key
from math import lcm

from shrinkwrap.codec import CodecError
from shrinkwrap.core import BranchTree, UPReal, growth, pair_of, shape_code
from shrinkwrap.domination import DominationReport, DominationRow
from shrinkwrap.sacks import MAX_HORIZON, FusionReport, HorizonPerfectTree, RMap
from shrinkwrap.silver import BruteSummary, GroundUniverse, ObstructionReport, SilverTree
from shrinkwrap.wrapper import ShrinkWrapper, TreeFamily, Violation, WrapperReport, WrapperScope


def parts(x) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (prefix, period) words of a UPReal or of a raw pair."""
    return (x.prefix, x.period) if isinstance(x, UPReal) else x


def unroll(x, length: int) -> list[int]:
    """Explicit value list, built by extending with period copies."""
    prefix, period = parts(x)
    values = list(prefix)
    while len(values) < length:
        values.extend(period)
    return values[:length]


def naive_bound(x, y) -> int:
    """Scan bound through the lcm of the period lengths, where the pointwise
    comparison of the two periodic tails repeats."""
    (xp, xd), (yp, yd) = parts(x), parts(y)
    return max(len(xp), len(yp)) + lcm(len(xd), len(yd))


def naive_first_diff(x, y):
    """Scan-to-bound oracle for the first difference of two sequences."""
    bound = naive_bound(x, y)
    xs = unroll(x, bound)
    ys = unroll(y, bound)
    for i in range(bound):
        if xs[i] != ys[i]:
            return i
    return None


def naive_equal(x, y) -> bool:
    return naive_first_diff(x, y) is None


def naive_compare(x, y) -> int:
    """Pointwise-lexicographic order of two sequences, read at their scanned
    first difference; 0 means equal."""
    d = naive_first_diff(x, y)
    if d is None:
        return 0
    return -1 if unroll(x, d + 1)[d] < unroll(y, d + 1)[d] else 1


#: Sort key of :func:`naive_compare`, one comparison at a time.
naive_sort_key = cmp_to_key(naive_compare)


def naive_canonical(prefix: tuple[int, ...], period: tuple[int, ...]):
    """Minimal (prefix, period) pair for a raw representation.

    The period is replaced by its shortest root (the shortest word whose
    repetition gives the period), then the prefix is popped one value at a
    time while its last value equals the last value of the period, rotating
    the period right after each pop.
    """
    n = len(period)
    root = next(
        period[:d] for d in range(1, n + 1)
        if n % d == 0 and period == period[:d] * (n // d)
    )
    prefix, root = list(prefix), list(root)
    while prefix and prefix[-1] == root[-1]:
        prefix.pop()
        root = [root[-1]] + root[:-1]
    return tuple(prefix), tuple(root)


def rand_raw_upreal(rng: random.Random, alphabet=4, max_prefix=6, max_period=6):
    """Random raw ``(prefix, period)`` pair, not reduced."""
    prefix = tuple(
        rng.randrange(alphabet) for _ in range(rng.randrange(max_prefix + 1))
    )
    period = tuple(
        rng.randrange(alphabet) for _ in range(rng.randrange(1, max_period + 1))
    )
    return prefix, period


def rand_upreal(rng: random.Random, alphabet=4, max_prefix=6, max_period=6) -> UPReal:
    return UPReal(*rand_raw_upreal(rng, alphabet, max_prefix, max_period))


def rand_branch_tree(rng: random.Random, max_branches=3, alphabet=3, max_prefix=8, max_period=3) -> BranchTree:
    count = rng.randrange(1, max_branches + 1)
    return BranchTree(
        frozenset(
            rand_upreal(rng, alphabet, max_prefix, max_period) for _ in range(count)
        )
    )


def mutate_at_level(rng: random.Random, x: UPReal, level: int) -> UPReal:
    """A sequence agreeing with x except for a changed value at one level."""
    length = max(level + 1, len(x.prefix))
    values = unroll(x, length)
    values[level] = values[level] + 1 + rng.randrange(3)
    phase = (length - len(x.prefix)) % len(x.period)
    period = x.period[phase:] + x.period[:phase]
    return UPReal(tuple(values), period)


def naive_check_domination(reals, battery, wrapper=None, trees=None) -> DominationReport:
    """The battery check one probe at a time, from the definitions.

    Covers are intersections of the unions of every family's branch sets at
    the pair positions involving an index; separation bounds range over
    every pair of assigned trees with no branch in common.  Each probe
    takes one scan-to-bound first difference per distinct sequence it
    meets: the points and the branches of every cover it leaves.
    """
    xs = tuple(reals)
    n_reals = len(xs)
    all_pairs = {(a, b) for a in range(n_reals) for b in range(a + 1, n_reals)}
    if wrapper is not None:
        pairs = list(wrapper.scope.pairs())

        def branch_sets(nt, n):
            return [tree.branches for _, tree in wrapper.families[(nt, n)].leaves]

        covers = [
            frozenset.intersection(*(
                frozenset().union(*branch_sets(nt, n)) for nt, a, b in pairs if n in (a, b)
            ))
            for n in range(n_reals)
        ]
        bounds = [0] * n_reals
        for nt, a, b in pairs:
            for t1 in branch_sets(nt, a):
                for t2 in branch_sets(nt, b):
                    diffs = [naive_first_diff(u, v) for u in t1 for v in t2]
                    if None not in diffs:
                        bounds[b] = max(bounds[b], 1 + max(diffs))
        in_scope = {(a, b) for _, a, b in pairs}
    else:
        covers = [tree.branches for tree in trees]
        bounds = [0] * n_reals
        in_scope = all_pairs
    enforce_pointwise = all_pairs <= in_scope

    rows = []
    for x in battery:
        in_tree = tuple(any(naive_equal(x, b) for b in cover) for cover in covers)
        others = set(xs).union(*(c for c, inside in zip(covers, in_tree) if not inside))
        diff = {y: naive_first_diff(x, y) for y in others}
        f_values = tuple(0 if diff[y] is None else diff[y] for y in xs)
        g_values = tuple(
            max(0 if in_tree[n] else 1 + max(map(diff.__getitem__, covers[n])), bounds[n], n)
            for n in range(n_reals)
        )
        failures = tuple(n for n in range(n_reals) if f_values[n] > g_values[n])
        violating = tuple(
            (n1, n2)
            for i, n1 in enumerate(failures)
            for n2 in failures[i + 1 :]
            if (n1, n2) in in_scope and f_values[n1] <= n2
        )
        pointwise = tuple(n for n in failures if not in_tree[n])
        rows.append(DominationRow(x, f_values, g_values, in_tree, failures, violating, pointwise))
    passed = all(
        not row.violating_pairs and (not enforce_pointwise or not row.pointwise_failures)
        for row in rows
    )
    return DominationReport(passed, n_reals, enforce_pointwise, tuple(rows))


def rand_hpt(rng: random.Random, horizon: int, skip_chance=0.45) -> HorizonPerfectTree:
    """Random horizon tree that never skips splitting twice in a row."""
    nodes = set()

    def grow(t, must_split):
        nodes.add(t)
        if len(t) == horizon:
            return
        if not must_split and rng.random() < skip_chance:
            grow(t + (rng.randrange(2),), True)
        else:
            grow(t + (0,), False)
            grow(t + (1,), False)

    grow((), False)
    return HorizonPerfectTree(horizon, frozenset(nodes))


def rand_rmap(rng: random.Random, depth: int, horizon: int) -> RMap:
    """Refinement map built by cutting below the two children of each stem."""
    trees = {(): rand_hpt(rng, horizon)}
    for level in range(depth):
        for s in itertools.product((0, 1), repeat=level):
            p = trees[s]
            t = naive_stem(p)
            for bit in (0, 1):
                trees[s + (bit,)] = p.below(t + (bit,))
    return RMap(depth, trees)


def rand_silver(rng: random.Random, horizon: int, min_splits: int = 1) -> SilverTree:
    """Random Silver representation with at least min_splits splitting levels."""
    count = rng.randint(min_splits, max(min_splits, horizon // 2))
    levels = frozenset(rng.sample(range(horizon), count))
    fixed = {l: rng.randrange(2) for l in range(horizon) if l not in levels}
    return SilverTree(horizon, levels, fixed)


def naive_sv_validate(p: SilverTree) -> bool:
    """The set-based Silver check: the fixed levels are the set of levels
    below the horizon less the split levels, built in full."""
    if p.horizon < 0:
        return False
    levels = set(range(p.horizon))
    if not p.split_levels <= levels:
        return False
    fixed = dict(p.fixed)
    if len(fixed) != len(p.fixed):
        return False
    if set(fixed) != levels - p.split_levels:
        return False
    return all(b in (0, 1) for b in fixed.values())


def naive_hpt_check(horizon: int, nodes) -> None:
    """The set-based checks of the horizon-tree constructor, which stores
    level masks instead.  Raises ValueError with the constructor's message
    for the first fault; nodes are visited shortest first, then by index
    (the word read as a number, least significant bit first)."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} is above the supported {MAX_HORIZON}")
    nodes = frozenset(map(tuple, nodes))
    if not nodes:
        raise ValueError("tree must contain the root")
    if any(len(t) > horizon or any(b not in (0, 1) for b in t) for t in nodes):
        raise ValueError("nodes must be binary words within the horizon")
    for t in sorted(nodes, key=lambda t: (len(t), t[::-1])):
        if t and t[:-1] not in nodes:
            raise ValueError(f"node {t!r} is missing its parent")
        if len(t) < horizon and not (t + (0,) in nodes or t + (1,) in nodes):
            raise ValueError(f"node {t!r} breaks the extendibility promise")


def naive_branching(nodes) -> frozenset:
    return frozenset(t for t in nodes if t + (0,) in nodes and t + (1,) in nodes)


def naive_stem(p: HorizonPerfectTree) -> tuple:
    """The shortest branching node, from the whole node set, or the one
    node at the horizon of a tree that never branches.  Every branching
    node extends the first one, so the shortest is unique."""
    branching = naive_branching(p.nodes)
    if branching:
        return min(branching, key=len)
    (path,) = [t for t in p.nodes if len(t) == p.horizon]
    return path


def naive_orders(p: HorizonPerfectTree) -> dict:
    """Each branching node with its number of branching proper prefixes,
    recounted over the whole tree."""
    branching = naive_branching(p.nodes)
    return {
        t: sum(1 for i in range(len(t)) if t[:i] in branching) for t in branching
    }


def naive_branching_nodes(p: HorizonPerfectTree, k: int) -> frozenset:
    return frozenset(t for t, order in naive_orders(p).items() if order == k)


def naive_leq_n(q: HorizonPerfectTree, p: HorizonPerfectTree, n: int) -> bool:
    """q is inside p and branches at every branching node of p of order
    at most n."""
    if not q.nodes <= p.nodes:
        return False
    q_branching = naive_branching(q.nodes)
    return all(
        t in q_branching for t, order in naive_orders(p).items() if order <= n
    )


def naive_gap(p: HorizonPerfectTree) -> int:
    """Splitting slack by a bottom-up scan: a node is good when it branches
    or has a good child; the shortest bad node sets the gap."""
    branching = naive_branching(p.nodes)
    good = set()
    for t in sorted(p.nodes, key=len, reverse=True):
        if t in branching or t + (0,) in good or t + (1,) in good:
            good.add(t)
    return p.horizon + 1 - min(len(t) for t in p.nodes if t not in good)


def naive_clause(c1, c2, iso1, iso2, u) -> str:
    """Clause a covering pair breaks on (u, zero), from the laws directly."""
    if u not in c1 or u not in c2:
        return "condition2"
    if c1 != c2:
        return "3c"
    if c1 == {u} and u in iso1 and u in iso2:
        return "3b"
    return "3a"


def naive_clause_counts(choices, iso_sets, u) -> dict:
    """Clause histogram of the sweep, one verdict per candidate."""
    counts = {}
    for trees1 in choices:
        for trees2 in choices:
            cover1 = [c for c in trees1 if u in c] or [frozenset()]
            cover2 = [c for c in trees2 if u in c] or [frozenset()]
            for iso1 in iso_sets:
                for iso2 in iso_sets:
                    clause = naive_clause(cover1[0], cover2[0], iso1, iso2, u)
                    counts[clause] = counts.get(clause, 0) + 1
    return counts


def naive_law1(wrapper: ShrinkWrapper) -> list:
    """Law-1 oracle: every word of every class against the growth allowance.

    A word of length w ranks 2**w - 1 plus its binary value, and its growth
    index adds the sequence index.  A tree obeys index i when level l holds
    at most i + l + 1 values; past level count - 2 that allowance reaches
    the branch count, so the unrolled levels below the count decide it.
    Returns (pair position, index, word, growth index) for the least-ranked
    breaking word of each class that has one, sorted.
    """
    out = []
    for (nt, n), fam in wrapper.families.items():
        for prefix, tree in fam.leaves:
            rows = [unroll(x, len(tree.branches)) for x in tree.branches]
            widths = [len({row[l] for row in rows}) for l in range(len(tree.branches))]
            broken = []
            for tail in itertools.product((0, 1), repeat=nt - len(prefix)):
                word = tuple(prefix) + tail
                index = (1 << nt) - 1 + int("".join(map(str, word)) or "0", 2) + n
                if any(width > index + l + 1 for l, width in enumerate(widths)):
                    broken.append((index, word))
            if broken:
                index, word = min(broken)
                out.append((nt, n, word, index))
    return sorted(out)


def _naive_member(x, branches) -> bool:
    return any(naive_equal(x, y) for y in branches)


def _naive_meets(c1, c2) -> bool:
    return any(_naive_member(x, c2) for x in c1)


def _naive_same(c1, c2) -> bool:
    return all(_naive_member(x, c2) for x in c1) and all(_naive_member(y, c1) for y in c2)


def naive_words(fam: TreeFamily) -> list:
    """(word, tree) for every word of the family's width, in lexicographic
    order; each word's tree is the one whose class prefix the word starts
    with."""
    return [
        (word, next(tree for prefix, tree in fam.leaves if word[: len(prefix)] == tuple(prefix)))
        for word in itertools.product((0, 1), repeat=fam.width)
    ]


def _naive_pair_reason(c1, c2, iso1, iso2, x1, x2):
    """Why two branch sets at one pair position break law 3, or None: they
    may be disjoint, one isolated singleton of both indices, or equal sets
    that pass through neither point or through two equal points."""
    if not _naive_meets(c1, c2):
        return None
    if not _naive_same(c1, c2):
        return "branch sets overlap without being equal or a shared isolated singleton"
    only = next(iter(c1))
    if len(c1) == 1 and _naive_member(only, iso1) and _naive_member(only, iso2):
        return None
    if (_naive_member(x1, c1) or _naive_member(x2, c2)) and not naive_equal(x1, x2):
        return "equal branch sets pass through one of the points but the points differ"
    return None


def _naive_sorted_report(rows: list) -> WrapperReport:
    # Rows by pair position, condition, index and words; a missing index or
    # word sorts first.
    rows = sorted(rows, key=lambda v: (v.ntilde, v.condition, v.n or 0, v.s1 or (), v.s2 or ()))
    return WrapperReport(not rows, tuple(rows))


def naive_verify_wrapper(wrapper: ShrinkWrapper, reals) -> WrapperReport:
    """The report of laws 1-3, word by word.  Law-1 rows come from
    :func:`naive_law1`.  Law 2 asks every word's tree for the point, and law
    3 classifies every word pair by naive membership; each breaking tree
    pair is reported at its lexicographically least word pair."""
    xs = tuple(reals)
    rows = [
        Violation("1", nt, n, word, None, f"tree exceeds the growth allowance at index {index}")
        for nt, n, word, index in naive_law1(wrapper)
    ]
    for nt in range(wrapper.scope.n_pairs):
        a, b = pair_of(nt)
        words = {n: naive_words(wrapper.families[(nt, n)]) for n in (a, b)}
        for n in (a, b):
            if not any(_naive_member(xs[n], tree.branches) for _, tree in words[n]):
                rows.append(Violation(
                    "2", nt, n, None, None, "no word's tree passes through the sequence point"
                ))
        reported = set()
        for (s1, t1), (s2, t2) in itertools.product(words[a], words[b]):
            reason = _naive_pair_reason(
                t1.branches, t2.branches, wrapper.isolated[a], wrapper.isolated[b], xs[a], xs[b]
            )
            if reason is not None and (t1, t2) not in reported:
                reported.add((t1, t2))
                rows.append(Violation("3", nt, None, s1, s2, reason))
    return _naive_sorted_report(rows)


def naive_condition4(wrapper: ShrinkWrapper) -> WrapperReport:
    """The report of law 4, word by word: any two distinct words of one
    index's family must select one isolated singleton of that index or
    disjoint branch sets.  Each breaking tree pair, or tree shared by two
    words, is reported at its lexicographically least word pair; a shared
    tree names its first word only."""
    rows = []
    for nt in range(wrapper.scope.n_pairs):
        for n in pair_of(nt):
            iso = wrapper.isolated[n]
            reported = set()
            for (s1, t1), (s2, t2) in itertools.combinations(naive_words(wrapper.families[(nt, n)]), 2):
                c1, c2 = t1.branches, t2.branches
                same = _naive_same(c1, c2)
                if same and len(c1) == 1 and _naive_member(next(iter(c1)), iso):
                    continue
                if not _naive_meets(c1, c2) or frozenset((t1, t2)) in reported:
                    continue
                reported.add(frozenset((t1, t2)))
                if same:
                    rows.append(Violation(
                        "4", nt, n, s1, None, "words sharing a tree need an isolated singleton"
                    ))
                else:
                    rows.append(Violation(
                        "4", nt, n, s1, s2, "distinct trees of one index overlap without being isolated"
                    ))
    return _naive_sorted_report(rows)


def naive_check_partition(table, width: int) -> None:
    """Prefix-partition check by comparing every pair of class prefixes."""
    prefixes = sorted(table)
    for i, p in enumerate(prefixes):
        for q in prefixes[i + 1:]:
            if p == q[: len(p)] or q == p[: len(q)]:
                raise ValueError(f"overlapping class prefixes {p!r} and {q!r}")
    total = sum(1 << (width - len(p)) for p in prefixes)
    if total != 1 << width:
        raise ValueError("class prefixes do not cover every word")


def _naive_bits(word: tuple):
    # Each letter equal to 0 or 1 becomes that int; None if another letter.
    if not all(b == 0 or b == 1 for b in word):
        return None
    return tuple(1 if b == 1 else 0 for b in word)


def _naive_reduce(table: dict) -> dict:
    # Merge sibling classes with equal trees, longest first, until none merge.
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


def naive_tree_family(width: int, leaves) -> tuple:
    """The reduced, sorted leaves a TreeFamily of this width stores, or its
    ValueError: letters checked one by one, then repeats, the partition by
    comparing every pair of prefixes, and sibling merges to a fixed point."""
    if width < 0:
        raise ValueError("width must be nonnegative")
    table = {}
    for prefix, tree in leaves:
        prefix = tuple(prefix)
        bits = _naive_bits(prefix)
        if bits is None or len(bits) > width:
            raise ValueError(f"bad class prefix {prefix!r} for width {width}")
        if bits in table:
            raise ValueError(f"duplicate class prefix {bits!r}")
        table[bits] = tree
    naive_check_partition(table, width)
    return tuple(sorted(_naive_reduce(table).items()))


def naive_from_assignments(width: int, default, overrides) -> tuple:
    """The leaves TreeFamily.from_assignments stores, or its ValueError:
    each override word checked letter by letter, the table split over int
    tuples one sibling per level, then :func:`naive_tree_family`."""
    table = {(): default}
    for word, tree in dict(overrides).items():
        word = tuple(word)
        if len(word) != width:
            raise ValueError("overrides must be full-length words")
        bits = _naive_bits(word)
        if bits is None:
            raise ValueError(f"override {word!r} is not a binary word")
        holder = next(p for p in table if bits[: len(p)] == p)
        held = table.pop(holder)
        for k in range(len(holder), width):
            table[bits[:k] + (1 - bits[k],)] = held
        table[bits] = tree
    return naive_tree_family(width, table.items())


def naive_draw_word(rng: random.Random, length: int) -> tuple:
    """The padded builder's word draw as first written: one
    ``randrange(2)`` per letter."""
    return tuple(rng.randrange(2) for _ in range(length))


def naive_shuffle(rng: random.Random, x: list) -> list:
    """The padded builder's pool shuffle as first written."""
    rng.shuffle(x)
    return x


def naive_choice(rng: random.Random, seq: list):
    """The padded builder's filler choice as first written."""
    return rng.choice(seq)


def naive_build_padded_wrapper(reals, decoys, seed: int) -> ShrinkWrapper:
    """The padded builder over the full scope as first written: words drawn
    by :func:`naive_draw_word`, the pool shuffled by :func:`naive_shuffle`,
    growth budgets from ``shape_code``, and filler candidates found by a
    membership test per pool value and per tree, then
    :func:`naive_choice`."""
    xs = tuple(reals)
    n_pairs = len(xs) * (len(xs) - 1) // 2
    scope = WrapperScope(len(xs), n_pairs)
    pool = sorted(set(decoys) - set(xs), key=naive_sort_key)
    if not pool:
        families = {
            (nt, n): TreeFamily.constant(nt, BranchTree.of(xs[n]))
            for nt in range(n_pairs) for n in pair_of(nt)
        }
        return ShrinkWrapper(scope, families, tuple(frozenset({x}) for x in xs))
    rng = random.Random(seed)
    fresh_value = 1 + max(max(x.prefix + x.period) for x in (*xs, *pool))
    families = {}
    isolated = [{x} for x in xs]

    def cone(t, x, level):
        return BranchTree(frozenset(
            b for b in t.branches if unroll(b, level + 1) == unroll(x, level + 1)
        ))

    for nt in range(n_pairs):
        a, b = pair_of(nt)
        word_a = naive_draw_word(rng, nt)
        word_b = naive_draw_word(rng, nt)
        budget_a = growth(shape_code(word_a, a), 0)
        budget_b = growth(shape_code(word_b, b), 0)
        if xs[a] == xs[b]:
            extra = naive_shuffle(rng, list(pool))
            tree_a = tree_b = BranchTree(
                frozenset({xs[a], *extra[: min(budget_a, budget_b) - 1]})
            )
        else:
            extra = naive_shuffle(rng, list(pool))
            tree_a = BranchTree(frozenset({xs[a], *extra[: budget_a - 1]}))
            naive_shuffle(rng, extra)
            tree_b = BranchTree(frozenset({xs[b], *extra[: budget_b - 1]}))
            if tree_a.branches & tree_b.branches:
                level = naive_first_diff(xs[a], xs[b])
                tree_a, tree_b = cone(tree_a, xs[a], level), cone(tree_b, xs[b], level)
        if nt == 0:
            families[(0, a)] = TreeFamily.constant(0, tree_a)
            families[(0, b)] = TreeFamily.constant(0, tree_b)
            continue
        candidates = [
            d for d in pool if d not in tree_a.branches and d not in tree_b.branches
        ]
        if candidates:
            filler = naive_choice(rng, candidates)
        else:
            filler = UPReal((), (fresh_value,))
            fresh_value += 1
        isolated[a].add(filler)
        isolated[b].add(filler)
        filler_tree = BranchTree.of(filler)
        families[(nt, a)] = TreeFamily.from_assignments(nt, filler_tree, {word_a: tree_a})
        families[(nt, b)] = TreeFamily.from_assignments(nt, filler_tree, {word_b: tree_b})
    return ShrinkWrapper(scope, families, tuple(frozenset(s) for s in isolated))


def rand_overrides(rng: random.Random, width: int, default: int) -> list:
    """Random (word, tree) overrides for a family of this width, valid or
    broken, as a list of pairs in the order given.

    Holds zero to four words, with trees drawn from three placeholders (so
    an override may equal ``default``).  Words come as tuples or bytes,
    with bits given as ``True`` or ``1.0``; a word may be given twice in
    two spellings, and now and then a word has the wrong length or a letter
    that is not a bit.
    """
    out = []
    for _ in range(rng.choice((0, 1, 1, 2, 3, 4))):
        word = tuple(rng.randrange(2) for _ in range(width))
        tree = default if rng.random() < 0.2 else rng.randrange(3)
        if rng.random() < 0.03:
            word = word[:-1] if word and rng.random() < 0.5 else word + (rng.randrange(2),)
        elif word and rng.random() < 0.04:
            letters = list(word)
            letters[rng.randrange(len(letters))] = rng.choice((2, -1, 256, 0.5, "1", None))
            word = tuple(letters)
        spellings = [word]
        if rng.random() < 0.15 and set(word) <= {0, 1}:
            spellings.append(bytes(word))
        for spelling in spellings:
            form = rng.randrange(6) if type(spelling) is tuple else 0
            if form == 1:
                spelling = tuple(bool(b) if b in (0, 1) else b for b in spelling)
            elif form == 2:
                spelling = tuple(float(b) if b in (0, 1) else b for b in spelling)
            elif form == 3 and set(spelling) <= {0, 1}:
                spelling = bytes(spelling)
            out.append((spelling, rng.randrange(3) if len(spellings) > 1 else tree))
    return out


def rand_prefix_table(rng: random.Random, width: int) -> dict:
    """Random class-prefix table for a width, valid or broken.

    Starts from a random prefix partition, then may drop a class (a gap),
    add an extension or a proper prefix of a class (an overlap), or add a
    random word.  The values are placeholders.
    """
    classes = [()]
    for _ in range(rng.randrange(2 * width + 1)):
        splittable = [p for p in classes if len(p) < width]
        if not splittable:
            break
        p = rng.choice(splittable)
        classes.remove(p)
        classes += [p + (0,), p + (1,)]
    table = dict.fromkeys(classes, 0)
    for _ in range(rng.choice((0, 0, 1, 2))):
        p = rng.choice(sorted(table) or [()])
        move = rng.randrange(4)
        if move == 0 and table:
            del table[p]
        elif move == 1 and len(p) < width:
            table[p + tuple(rng.randrange(2) for _ in range(rng.randint(1, width - len(p))))] = 0
        elif move == 2 and p:
            table[p[: rng.randrange(len(p))]] = 0
        else:
            table[tuple(rng.randrange(2) for _ in range(rng.randint(0, width)))] = 0
    return table


def rand_family_leaves(rng: random.Random, width: int) -> list:
    """Random (prefix, tree) leaves for a family of this width, valid or broken.

    Starts from :func:`rand_prefix_table`, so overlaps and gaps occur, and
    draws each tree from three placeholders, so equal siblings call for a
    merge.  Prefixes come as tuples, lists or bytes, with bits given as
    ``True`` or ``1.0``; now and then a leaf is repeated, a prefix runs past
    the width or a letter is not a bit.
    """
    leaves = [(prefix, rng.randrange(3)) for prefix in rand_prefix_table(rng, width)]
    if leaves and rng.random() < 0.15:
        leaves.append(rng.choice(leaves))
    if rng.random() < 0.1:
        leaves.append((tuple(rng.randrange(2) for _ in range(width + 1)), 0))
    rng.shuffle(leaves)
    out = []
    for prefix, tree in leaves:
        form = rng.randrange(12)
        if form == 1:
            prefix = list(prefix)
        elif form == 2:
            prefix = bytes(prefix)
        elif form == 3:
            prefix = tuple(bool(b) for b in prefix)
        elif form == 4:
            prefix = tuple(float(b) for b in prefix)
        elif form == 5 and prefix and rng.random() < 0.3:
            letters = list(prefix)
            letters[rng.randrange(len(letters))] = rng.choice((2, -1, 256, 0.5, "1", None))
            prefix = tuple(letters)
        out.append((prefix, tree))
    return out


def _naive_fail(path: str, message: str):
    raise CodecError(f"{path}: {message}")


def _naive_get(obj: dict, key: str, path: str):
    if key not in obj:
        _naive_fail(path, f"missing key {key!r}")
    return obj[key]


def _naive_obj(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _naive_fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _naive_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        _naive_fail(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _naive_int(obj, path: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        _naive_fail(path, f"expected an integer, got {obj!r}")
    return obj


def _naive_word(obj, path: str) -> tuple[int, ...]:
    if not isinstance(obj, str):
        _naive_fail(path, f"expected a string, got {type(obj).__name__}")
    if not set(obj) <= {"0", "1"}:
        _naive_fail(path, f"expected a bit string, got {obj!r}")
    return tuple(map(int, obj))


def _naive_real(obj, path: str) -> UPReal:
    obj = _naive_obj(obj, path)
    prefix = [
        _naive_int(v, f"{path}.prefix[{i}]")
        for i, v in enumerate(_naive_list(_naive_get(obj, "prefix", path), f"{path}.prefix"))
    ]
    period = [
        _naive_int(v, f"{path}.period[{i}]")
        for i, v in enumerate(_naive_list(_naive_get(obj, "period", path), f"{path}.period"))
    ]
    if not period:
        _naive_fail(f"{path}.period", "period must be nonempty")
    try:
        return UPReal(tuple(prefix), tuple(period))
    except ValueError as e:
        _naive_fail(path, str(e))


def _naive_tree(obj, path: str) -> BranchTree:
    obj = _naive_obj(obj, path)
    branches = _naive_list(_naive_get(obj, "branches", path), f"{path}.branches")
    if not branches:
        _naive_fail(f"{path}.branches", "a tree needs at least one branch")
    return BranchTree(
        frozenset(_naive_real(b, f"{path}.branches[{i}]") for i, b in enumerate(branches))
    )


def naive_dec_wrapper(obj, path: str = "$.payload") -> ShrinkWrapper:
    """Wrapper payload decoder that decodes and validates every entry's
    tree anew, building every element's path as it goes."""
    obj = _naive_obj(obj, path)
    scope_obj = _naive_obj(_naive_get(obj, "scope", path), f"{path}.scope")
    n = _naive_int(_naive_get(scope_obj, "N", f"{path}.scope"), f"{path}.scope.N")
    ntilde = _naive_int(_naive_get(scope_obj, "Ntilde", f"{path}.scope"), f"{path}.scope.Ntilde")
    try:
        scope = WrapperScope(n, ntilde)
    except ValueError as e:
        _naive_fail(f"{path}.scope", str(e))
    tables = {}
    for i, entry in enumerate(_naive_list(_naive_get(obj, "F", path), f"{path}.F")):
        epath = f"{path}.F[{i}]"
        entry = _naive_obj(entry, epath)
        nt = _naive_int(_naive_get(entry, "pair_index", epath), f"{epath}.pair_index")
        n = _naive_int(_naive_get(entry, "n", epath), f"{epath}.n")
        prefix = _naive_word(_naive_get(entry, "s", epath), f"{epath}.s")
        tree = _naive_tree(_naive_get(entry, "tree", epath), f"{epath}.tree")
        if prefix in tables.setdefault((nt, n), {}):
            _naive_fail(f"{epath}.s", f"duplicate leaf {''.join(map(str, prefix))!r}")
        tables[(nt, n)][prefix] = tree
    isolated = tuple(
        frozenset(
            _naive_real(x, f"{path}.I[{i}][{j}]")
            for j, x in enumerate(_naive_list(part, f"{path}.I[{i}]"))
        )
        for i, part in enumerate(_naive_list(_naive_get(obj, "I", path), f"{path}.I"))
    )
    try:
        families = {
            (nt, n): TreeFamily(nt, naive_tree_family(nt, table.items()))
            for (nt, n), table in tables.items()
        }
        wrapper = ShrinkWrapper(scope, families, isolated)
        wrapper.check_total()
    except ValueError as e:
        _naive_fail(path, str(e))
    return wrapper


def _naive_bool(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        _naive_fail(path, f"expected a boolean, got {obj!r}")
    return obj


def _naive_str(obj, path: str) -> str:
    if not isinstance(obj, str):
        _naive_fail(path, f"expected a string, got {type(obj).__name__}")
    return obj


def _naive_each(dec):
    return lambda obj, path: tuple(
        dec(v, f"{path}[{i}]") for i, v in enumerate(_naive_list(obj, path))
    )


def _naive_key(obj: dict, key: str, path: str, dec):
    return dec(_naive_get(obj, key, path), f"{path}.{key}")


def _naive_dec_opt(dec):
    return lambda obj, path: None if obj is None else dec(obj, path)


def _naive_pair(first, second):
    def dec(obj, path: str) -> tuple:
        items = _naive_list(obj, path)
        if len(items) != 2:
            _naive_fail(path, f"expected 2 elements, got {len(items)}")
        return first(items[0], f"{path}[0]"), second(items[1], f"{path}[1]")

    return dec


def _naive_silver(obj, path: str) -> SilverTree:
    obj = _naive_obj(obj, path)
    horizon = _naive_key(obj, "horizon", path, _naive_int)
    levels = frozenset(_naive_key(obj, "split_levels", path, _naive_each(_naive_int)))
    fixed = {}
    for key, bit in _naive_obj(_naive_get(obj, "fixed", path), f"{path}.fixed").items():
        kpath = f"{path}.fixed[{key!r}]"
        digits = key[1:] if key.startswith("-") else key
        if not (digits.isascii() and digits.isdigit()):
            _naive_fail(kpath, "level keys must be integers")
        if int(key) in fixed:
            _naive_fail(kpath, f"level {int(key)} is fixed twice")
        fixed[int(key)] = _naive_int(bit, kpath)
    return SilverTree(horizon, levels, fixed)


def _naive_hpt(obj, path: str) -> HorizonPerfectTree:
    obj = _naive_obj(obj, path)
    horizon = _naive_key(obj, "horizon", path, _naive_int)
    nodes = frozenset(_naive_key(obj, "nodes", path, _naive_each(_naive_word)))
    try:
        return HorizonPerfectTree(horizon, nodes)
    except ValueError as e:
        _naive_fail(path, str(e))


def _naive_rmap(obj, path: str) -> RMap:
    obj = _naive_obj(obj, path)
    depth = _naive_key(obj, "depth", path, _naive_int)
    trees = {}
    for i, entry in enumerate(_naive_list(_naive_get(obj, "trees", path), f"{path}.trees")):
        epath = f"{path}.trees[{i}]"
        entry = _naive_obj(entry, epath)
        word = _naive_key(entry, "s", epath, _naive_word)
        tree = _naive_key(entry, "tree", epath, _naive_hpt)
        if word in trees:
            _naive_fail(f"{epath}.s", f"duplicate word {''.join(map(str, word))!r}")
        trees[word] = tree
    try:
        return RMap(depth, trees)
    except ValueError as e:
        _naive_fail(path, str(e))


def _naive_violation(obj, path: str) -> Violation:
    obj = _naive_obj(obj, path)
    return Violation(
        _naive_key(obj, "condition", path, _naive_str),
        _naive_key(obj, "pair_index", path, _naive_int),
        _naive_key(obj, "n", path, _naive_dec_opt(_naive_int)),
        _naive_key(obj, "s1", path, _naive_dec_opt(_naive_word)),
        _naive_key(obj, "s2", path, _naive_dec_opt(_naive_word)),
        _naive_key(obj, "reason", path, _naive_str),
    )


def _naive_row(obj, path: str) -> DominationRow:
    obj = _naive_obj(obj, path)

    def get(key, dec):
        return _naive_key(obj, key, path, dec)

    ints = _naive_each(_naive_int)
    return DominationRow(
        get("x", _naive_real),
        get("f_values", ints),
        get("g_values", ints),
        get("in_tree", _naive_each(_naive_bool)),
        get("failure_set", ints),
        get("violating_pairs", _naive_each(_naive_pair(_naive_int, _naive_int))),
        get("pointwise_failures", ints),
    )


def _naive_report(obj, path: str):
    obj = _naive_obj(obj, path)
    rtype = _naive_key(obj, "report_type", path, _naive_str)

    def get(key, dec):
        return _naive_key(obj, key, path, dec)

    if rtype == "wrapper":
        return WrapperReport(
            get("passed", _naive_bool), get("violations", _naive_each(_naive_violation))
        )
    if rtype == "domination":
        return DominationReport(
            get("passed", _naive_bool),
            get("n_reals", _naive_int),
            get("pointwise_enforced", _naive_bool),
            get("rows", _naive_each(_naive_row)),
        )
    if rtype == "fusion":
        return FusionReport(
            get("passed", _naive_bool),
            get("failures", _naive_each(_naive_str)),
            get("chain", _naive_each(_naive_hpt)),
        )
    if rtype == "obstruction":
        return ObstructionReport(
            get("n", _naive_int),
            get("ntilde", _naive_int),
            get("r0", _naive_real),
            get("r1", _naive_real),
            get("u", _naive_real),
            get("clause", _naive_str),
            get("index", _naive_dec_opt(_naive_int)),
            get("s1", _naive_dec_opt(_naive_word)),
            get("s2", _naive_dec_opt(_naive_word)),
            get("tree1", _naive_dec_opt(_naive_tree)),
            get("tree2", _naive_dec_opt(_naive_tree)),
            get("reason", _naive_str),
        )
    if rtype == "brute":
        return BruteSummary(
            get("n", _naive_int),
            get("ntilde", _naive_int),
            get("u", _naive_real),
            get("total", _naive_int),
            get("histogram", _naive_each(_naive_pair(_naive_str, _naive_int))),
            get("survivors", _naive_int),
            get("vacuous", _naive_bool),
            get("s_uniform", _naive_bool),
            get("max_branches", _naive_int),
        )
    _naive_fail(f"{path}.report_type", f"unknown report type {rtype!r}")


def _naive_universe(obj, path: str) -> GroundUniverse:
    reals = frozenset(_naive_each(_naive_real)(obj, path))
    try:
        return GroundUniverse(reals)
    except ValueError as e:
        _naive_fail(path, str(e))


_NAIVE_PAYLOADS = {
    "reals": _naive_each(_naive_real),
    "trees": _naive_each(_naive_tree),
    "wrapper": naive_dec_wrapper,
    "silver-tree": _naive_silver,
    "ground-universe": _naive_universe,
    "rmap": _naive_rmap,
    "report": _naive_report,
}


def naive_decode(document):
    """A parsed artifact document decoded by hand-written walkers, one per
    kind and report type, each reading its keys in document order."""
    document = _naive_obj(document, "$")
    kind = _naive_key(document, "kind", "$", _naive_str)
    if kind not in _NAIVE_PAYLOADS:
        _naive_fail("$.kind", f"unknown kind {kind!r}")
    version = _naive_key(document, "version", "$", _naive_int)
    if version != 1:
        _naive_fail("$.version", f"unsupported version {version}")
    return _NAIVE_PAYLOADS[kind](_naive_get(document, "payload", "$"), "$.payload")


def _naive_word_text(s) -> str:
    return "".join(map(str, s))


def _naive_enc_real(r: UPReal) -> dict:
    return {"prefix": list(r.prefix), "period": list(r.period)}


def _naive_enc_tree(t: BranchTree) -> dict:
    return {"branches": [_naive_enc_real(b) for b in sorted(t.branches, key=naive_sort_key)]}


def _naive_enc_hpt(p: HorizonPerfectTree) -> dict:
    return {
        "horizon": p.horizon,
        "nodes": [_naive_word_text(t) for t in sorted(p.nodes, key=lambda t: (len(t), t))],
    }


def _naive_opt(value, enc):
    return None if value is None else enc(value)


def _naive_enc_report(report) -> dict:
    if isinstance(report, WrapperReport):
        return {
            "report_type": "wrapper",
            "passed": report.passed,
            "violations": [
                {
                    "condition": v.condition,
                    "pair_index": v.ntilde,
                    "n": v.n,
                    "s1": _naive_opt(v.s1, _naive_word_text),
                    "s2": _naive_opt(v.s2, _naive_word_text),
                    "reason": v.reason,
                }
                for v in report.violations
            ],
        }
    if isinstance(report, DominationReport):
        return {
            "report_type": "domination",
            "passed": report.passed,
            "n_reals": report.n_reals,
            "pointwise_enforced": report.pointwise_enforced,
            "rows": [
                {
                    "x": _naive_enc_real(row.x),
                    "f_values": list(row.f_values),
                    "g_values": list(row.g_values),
                    "in_tree": list(row.in_tree),
                    "failure_set": list(row.failure_set),
                    "violating_pairs": [list(p) for p in row.violating_pairs],
                    "pointwise_failures": list(row.pointwise_failures),
                }
                for row in report.rows
            ],
        }
    if isinstance(report, FusionReport):
        return {
            "report_type": "fusion",
            "passed": report.passed,
            "failures": list(report.failures),
            "chain": [_naive_enc_hpt(p) for p in report.chain],
        }
    if isinstance(report, ObstructionReport):
        return {
            "report_type": "obstruction",
            "n": report.n,
            "ntilde": report.ntilde,
            "r0": _naive_enc_real(report.r0),
            "r1": _naive_enc_real(report.r1),
            "u": _naive_enc_real(report.u),
            "clause": report.clause,
            "index": report.index,
            "s1": _naive_opt(report.s1, _naive_word_text),
            "s2": _naive_opt(report.s2, _naive_word_text),
            "tree1": _naive_opt(report.tree1, _naive_enc_tree),
            "tree2": _naive_opt(report.tree2, _naive_enc_tree),
            "reason": report.reason,
        }
    return {
        "report_type": "brute",
        "n": report.n,
        "ntilde": report.ntilde,
        "u": _naive_enc_real(report.u),
        "total": report.total,
        "histogram": [[clause, count] for clause, count in report.histogram],
        "survivors": report.survivors,
        "vacuous": report.vacuous,
        "s_uniform": report.s_uniform,
        "max_branches": report.max_branches,
    }


def _naive_payload(value, kind: str):
    if kind in ("reals", "trees"):
        return [(_naive_enc_real if kind == "reals" else _naive_enc_tree)(x) for x in value]
    if kind == "ground-universe":
        return [_naive_enc_real(x) for x in sorted(value.reals, key=naive_sort_key)]
    if kind == "wrapper":
        return {
            "scope": {"N": value.scope.n_reals, "Ntilde": value.scope.n_pairs},
            "F": [
                {
                    "pair_index": nt,
                    "n": n,
                    "s": _naive_word_text(prefix),
                    "tree": _naive_enc_tree(tree),
                }
                for (nt, n) in sorted(value.families)
                for prefix, tree in sorted(
                    value.families[(nt, n)].leaves, key=lambda leaf: (len(leaf[0]), leaf[0])
                )
            ],
            "I": [
                [_naive_enc_real(x) for x in sorted(part, key=naive_sort_key)]
                for part in value.isolated
            ],
        }
    if kind == "silver-tree":
        return {
            "horizon": value.horizon,
            "split_levels": sorted(value.split_levels),
            "fixed": {str(l): b for l, b in sorted(value.fixed)},
        }
    if kind == "rmap":
        return {
            "depth": value.depth,
            "trees": [
                {"s": _naive_word_text(s), "tree": _naive_enc_hpt(value.trees[s])}
                for s in sorted(value.trees, key=lambda s: (len(s), s))
            ],
        }
    return _naive_enc_report(value)


def _naive_check_json(value) -> None:
    """TypeError on anything outside the artifact value types: dicts with
    string keys, lists, strings, ints, booleans and None.  json.dumps would
    write a float or a tuple; an artifact holds neither."""
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            _naive_check_json(v)
    elif isinstance(value, list):
        for v in value:
            _naive_check_json(v)
    elif value is not None and not isinstance(value, (str, int)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def naive_encode(value, kind: str) -> bytes:
    """Artifact bytes from a document of plain dicts and lists, written by
    ``json.dumps(indent=2)``: the encoder's reference."""
    document = {"kind": kind, "version": 1, "payload": _naive_payload(value, kind)}
    _naive_check_json(document)
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")
