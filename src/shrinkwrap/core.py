"""Finitely represented points and trees.

An ultimately periodic real is an infinite sequence of naturals given by a
finite prefix followed by a finite period repeated forever.  Equality, first
difference, and membership questions about such sequences are all decidable
by scanning a computable bound, which is what makes every structure built on
top of them (branch-finite trees, wrappers, domination harnesses) fully
checkable on a desk.

The module also fixes the index coding used throughout the package: a
growth rule ``growth(i, l)``, a bijection between naturals and unordered
pairs of naturals, and a code for (binary word, natural) arguments.  These
three are pinned.  Law 1 and the padded budgets in :mod:`shrinkwrap.wrapper`
read shape codes off binary values; tests pin that they match :func:`shape_code`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Collection, Iterable, Optional, Union

# A node is a finite word over the naturals.
Node = tuple[int, ...]


#: Letters 0 and 1 become the digits "0" and "1", and any other byte "2",
#: which ``int(..., 2)`` rejects: a binary word's text in one translate.
BIT_DIGITS = bytes([48, 49] + [50] * 254)


def _check_word(values: Iterable[int], what: str) -> tuple[int, ...]:
    out = tuple(values)
    # Past a few letters two C passes decide the common case faster than
    # the loop, which also names the first bad entry; below, the loop wins.
    if len(out) > 16 and set(map(type, out)) <= {int} and min(out) >= 0:
        return out
    for v in out:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"{what} entries must be nonnegative integers, got {v!r}")
    return out


def _primitive_root(word: tuple[int, ...]) -> tuple[int, ...]:
    # The periods of a word that divide its length are the multiples of the
    # shortest one that divide it.  So, starting from the whole length,
    # divide by each prime factor while the shorter period still tiles the
    # word.  Once the word is p-periodic, q tiles it when q tiles its first
    # p letters: O(log n) slice comparisons in C, O(n) letters in all.
    n = len(word)
    p = rest = n
    q = 2
    while rest > 1:
        if q * q > rest:
            q = rest  # the last prime factor
        if rest % q == 0:
            while rest % q == 0:
                rest //= q
            while p % q == 0 and word[p // q : p] == word[: p - p // q]:
                p //= q
        q += 1
    return word[:p]


def _reduce(prefix: Node, period: Node) -> tuple[Node, Node]:
    # Replace the period by its primitive root, then roll the prefix back
    # while its last value matches the value the rotated period would
    # produce there.  Both steps preserve the denoted sequence.
    period = _primitive_root(period)
    p = len(period)
    cut = len(prefix)
    while cut and prefix[cut - 1] == period[(cut - 1 - len(prefix)) % p]:
        cut -= 1
    turn = p - (len(prefix) - cut) % p
    return prefix[:cut], period[turn:] + period[:turn]


@dataclass(frozen=True)
class UPReal:
    """An ultimately periodic sequence: ``prefix`` then ``period`` forever.

    The constructor validates the representation and reduces it to the
    unique minimal form: shortest period, then shortest prefix.  Every value
    is therefore canonical, and ``==`` and ``hash`` agree with equality of
    the sequences denoted.
    """

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        prefix = _check_word(self.prefix, "prefix")
        period = _check_word(self.period, "period")
        if not period:
            raise ValueError("period must be nonempty")
        prefix, period = _reduce(prefix, period)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    @classmethod
    def constant(cls, value: int) -> "UPReal":
        return cls((), (value,))

    def __getitem__(self, i: int) -> int:
        return up_eval(self, i)

    def initial_segment(self, length: int) -> Node:
        if length <= len(self.prefix):
            return self.prefix[:length] if length > 0 else ()
        copies = -(-(length - len(self.prefix)) // len(self.period))
        return self.prefix + (self.period * copies)[: length - len(self.prefix)]


ZERO = UPReal.constant(0)


def up_eval(x: UPReal, i: int) -> int:
    """Value of the sequence at position ``i``."""
    if i < 0:
        raise ValueError("position must be nonnegative")
    if i < len(x.prefix):
        return x.prefix[i]
    return x.period[(i - len(x.prefix)) % len(x.period)]


def up_scan_bound(x: UPReal, y: UPReal) -> int:
    """Positions below this bound decide whether ``x`` and ``y`` are equal.

    Past both prefixes the two sequences are periodic with periods ``p`` and
    ``q``.  If they agree on ``p + q - gcd(p, q)`` positions there, the
    agreeing word has both periods, hence period ``gcd(p, q)`` (Fine and
    Wilf, 1965), and the sequences agree everywhere.
    """
    p, q = len(x.period), len(y.period)
    return max(len(x.prefix), len(y.prefix)) + p + q - gcd(p, q)


def up_first_diff(x: UPReal, y: UPReal) -> Optional[int]:
    """Least position where the two sequences differ, or ``None`` if equal."""
    for i in range(up_scan_bound(x, y)):
        if up_eval(x, i) != up_eval(y, i):
            return i
    return None


def up_canonical(x: UPReal) -> UPReal:
    """Return ``x``: the :class:`UPReal` constructor already reduces every
    value to its unique minimal form.  Kept as public API."""
    return x


def up_window(values: Collection[UPReal]) -> int:
    """The largest prefix plus twice the largest period, 0 for no values:
    any two of the values have their :func:`up_scan_bound` below it, so
    distinct values differ within their initial segments of this length."""
    return max((len(x.prefix) for x in values), default=0) + 2 * max(
        (len(x.period) for x in values), default=0
    )


def up_sorted(values: Iterable[UPReal]) -> list[UPReal]:
    """The values in pointwise-lexicographic order, by keys that Python
    compares in C: initial segments of :func:`up_window` length, which
    differ exactly where the values do and order them by the first
    difference."""
    values = list(values)
    if len(values) < 2:
        return values
    length = up_window(values)
    return sorted(values, key=lambda x: x.initial_segment(length))


def up_extends(x: UPReal, t: Node) -> bool:
    """Does the sequence pass through the node ``t``?"""
    return x.initial_segment(len(t)) == tuple(t)


# ---------------------------------------------------------------------------
# Index coding.


def growth(i: int, l: int) -> int:
    """Width allowance at level ``l`` for growth index ``i``."""
    return i + l + 1


def pair_index(pair: Iterable[int]) -> int:
    """Position of an unordered pair of naturals in the fixed enumeration.

    Pairs {a, b} with a < b are ordered by (b, a); the index is
    b(b-1)/2 + a.  An element equal to an int, such as ``True`` or ``2.0``,
    is read as that int.
    """
    given = tuple(pair)
    try:
        items = {int(v) for v in given}
    except (TypeError, ValueError, OverflowError):
        items = None
    if items is None or items != set(given):
        raise ValueError(f"pair elements must equal naturals, got {list(given)!r}")
    if len(items) != 2:
        raise ValueError(f"need two distinct naturals, got {list(given)!r}")
    a, b = sorted(items)
    if a < 0:
        raise ValueError("pair elements must be nonnegative")
    return b * (b - 1) // 2 + a


def pair_of(nt: int) -> tuple[int, int]:
    """Inverse of :func:`pair_index`; returns the pair as (smaller, larger)."""
    if nt < 0:
        raise ValueError("pair position must be nonnegative")
    # With nt = b(b-1)/2 + a and 0 <= a < b, (2b-1)**2 <= 1 + 8nt < (2b+1)**2.
    b = (1 + isqrt(1 + 8 * nt)) // 2
    a = nt - b * (b - 1) // 2
    return (a, b)


def word_code(s: Node) -> int:
    """Rank of a binary word in the length-then-lexicographic enumeration."""
    value = 0
    for bit in s:
        if bit not in (0, 1):
            raise ValueError(f"binary word expected, got entry {bit!r}")
        value = 2 * value + bit
    return (1 << len(s)) - 1 + value


def shape_code(s: Node, n: int) -> int:
    """Growth index assigned to the argument pair (binary word, natural)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return word_code(s) + n


# ---------------------------------------------------------------------------
# Branch-finite trees.


@dataclass(frozen=True)
class BranchTree:
    """A leafless subtree of the finite words, given by its branch set.

    The branch set is a finite nonempty set of ultimately periodic reals;
    since every :class:`UPReal` is canonical, equal sequences are one
    branch.  The node set of the tree is the set of finite initial segments
    of the branches.  Prefix-closure and leaflessness hold by construction.
    """

    branches: frozenset[UPReal]

    def __post_init__(self):
        branches = frozenset(self.branches)
        if not branches:
            raise ValueError("branch set must be nonempty")
        object.__setattr__(self, "branches", branches)

    @classmethod
    def of(cls, *branches: UPReal) -> "BranchTree":
        return cls(frozenset(branches))

    def sorted_branches(self) -> list[UPReal]:
        return up_sorted(self.branches)

    def member(self, t: Node) -> bool:
        """Is ``t`` a node of the tree?"""
        return any(up_extends(x, t) for x in self.branches)

    def level_values(self, l: int) -> frozenset[int]:
        """Values the branches take at level ``l``."""
        return frozenset(up_eval(x, l) for x in self.branches)

    def obeys(self, i: int) -> bool:
        """Does every level's width stay within the growth allowance?

        Level widths never exceed the branch count, so scanning stops at the
        first level whose allowance reaches the branch count; the allowance
        never decreases in the level, so that bound is exact.
        """
        count = len(self.branches)
        l = 0
        while True:
            cap = growth(i, l)
            if cap >= count:
                return True
            if len(self.level_values(l)) > cap:
                return False
            l += 1

    def stem(self) -> Union[Node, UPReal]:
        """The minimal branching node, or the unique branch if there is none."""
        items = self.sorted_branches()
        if len(items) == 1:
            return items[0]
        pivot = items[0]
        depth = min(
            up_first_diff(pivot, other) for other in items[1:]  # all distinct
        )
        return pivot.initial_segment(depth)

    def restrict(self, t: Node) -> "BranchTree":
        """Subtree of branches passing through ``t``; error if none do."""
        kept = frozenset(x for x in self.branches if up_extends(x, t))
        if not kept:
            raise ValueError(f"no branch passes through {t!r}")
        return BranchTree(kept)


def bt_separation_level(t1: BranchTree, t2: BranchTree) -> Optional[int]:
    """Least level past every pairwise agreement, for disjoint branch sets.

    ``None`` when the branch sets meet.  Otherwise every branch of one tree
    has left every branch of the other strictly below the returned level,
    and the value is minimal with that property; the maximum over finitely
    many pairwise first differences exists because both branch sets are
    finite.
    """
    if t1.branches & t2.branches:
        return None
    return 1 + max(
        up_first_diff(x, y) for x in t1.branches for y in t2.branches
    )
