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
import random
from math import lcm

from shrinkwrap.codec import CodecError
from shrinkwrap.core import DEFAULT_CODERS, BranchTree, UPReal
from shrinkwrap.sacks import MAX_HORIZON, HorizonPerfectTree, RMap, stem_or_path
from shrinkwrap.silver import SilverTree
from shrinkwrap.wrapper import ShrinkWrapper, TreeFamily, WrapperScope


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
            t = stem_or_path(p)
            for bit in (0, 1):
                trees[s + (bit,)] = p.below(t + (bit,))
    return RMap(depth, trees)


def rand_silver(rng: random.Random, horizon: int, min_splits: int = 1) -> SilverTree:
    """Random Silver representation with at least min_splits splitting levels."""
    count = rng.randint(min_splits, max(min_splits, horizon // 2))
    levels = frozenset(rng.sample(range(horizon), count))
    fixed = {l: rng.randrange(2) for l in range(horizon) if l not in levels}
    return SilverTree(horizon, levels, fixed)


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
            (nt, n): TreeFamily(nt, tuple(sorted(table.items())))
            for (nt, n), table in tables.items()
        }
        wrapper = ShrinkWrapper(scope, families, isolated)
        wrapper.check_total(DEFAULT_CODERS)
    except ValueError as e:
        _naive_fail(path, str(e))
    return wrapper
