"""Core layer: sequences, index coding, branch-finite trees."""

from __future__ import annotations

import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    naive_canonical,
    naive_encode,
    naive_equal,
    naive_compare,
    naive_first_diff,
    naive_sort_key,
    rand_branch_tree,
    rand_raw_upreal,
    rand_upreal,
    unroll,
)
from shrinkwrap.core import (
    ZERO,
    BranchTree,
    UPReal,
    bt_separation_level,
    growth,
    pair_index,
    pair_of,
    shape_code,
    up_canonical,
    up_eval,
    up_extends,
    up_first_diff,
    up_scan_bound,
    up_sorted,
    word_code,
)
from shrinkwrap.codec import encode
from shrinkwrap.silver import GroundUniverse
from shrinkwrap.wrapper import ShrinkWrapper, WrapperScope, build_padded_wrapper


def R(prefix, period):
    return UPReal(tuple(prefix), tuple(period))


# Raw (prefix, period) pairs, as written; UPReal reduces them on construction.
raw_reprs = st.tuples(
    st.lists(st.integers(0, 3), max_size=6).map(tuple),
    st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple),
)
up_reprs = raw_reprs.map(lambda t: R(*t))


def pump(raw, reps, extend):
    """Another raw representation of the same sequence: the period repeated
    ``reps`` times, and ``extend`` of its values pushed into the prefix."""
    prefix, period = raw
    k = extend % (len(period) + 1)
    return prefix + period[:k], (period[k:] + period[:k]) * reps


class TestUPReal:
    def test_eval_unrolls_prefix_then_period(self):
        x = R([1, 0], [2, 1])
        assert [up_eval(x, i) for i in range(6)] == [1, 0, 2, 1, 2, 1]
        assert up_eval(x, 5) == 1

    def test_eval_rejects_negative_position(self):
        with pytest.raises(ValueError):
            up_eval(ZERO, -1)

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            R([0], [])

    def test_entries_checked_before_reduction(self):
        # Reduction would roll the bad prefix entry into the period.
        with pytest.raises(ValueError, match="prefix entries"):
            R([-1], [-1])
        with pytest.raises(ValueError, match="period entries"):
            R([], [0, True])

    @pytest.mark.parametrize("length", [0, 3, 16, 17, 40])
    @pytest.mark.parametrize("bad", [-1, True, False, 1.0, "1", None])
    def test_first_bad_entry_is_named_in_short_and_long_words(self, length, bad):
        for word in ((2,) * length + (bad,), (2,) * length + (bad, -2)):
            with pytest.raises(ValueError) as e:
                UPReal(word, (0,))
            assert str(e.value) == f"prefix entries must be nonnegative integers, got {bad!r}"
        assert UPReal((), (3,) * length + (4,)).period == (3,) * length + (4,)

    def test_first_diff_equal_sequences_none(self):
        # Different representations of 0,0,1,0,1,0,...
        x = R([0, 0], [1, 0])
        y = R([0], [0, 1])
        assert up_first_diff(x, y) is None

    def test_first_diff_pinned_value(self):
        assert up_first_diff(R([], [0]), R([0, 0, 1], [0])) == 2

    @given(raw_reprs, raw_reprs)
    def test_first_diff_matches_naive_scan(self, x, y):
        assert up_first_diff(UPReal(*x), UPReal(*y)) == naive_first_diff(x, y)

    def test_first_diff_random_against_oracle(self):
        rng = random.Random(1301)
        for _ in range(2000):
            x = rand_raw_upreal(rng)
            y = rand_raw_upreal(rng)
            assert up_first_diff(UPReal(*x), UPReal(*y)) == naive_first_diff(x, y)

    def test_scan_bound_is_fine_wilf(self):
        # Periods 010 and 01001 agree on 0100101 except at position 6, one
        # short of 3 + 5 - gcd(3, 5): the Fine-Wilf bound is attained.
        x, y = R([], [0, 1, 0]), R([], [0, 1, 0, 0, 1])
        assert up_scan_bound(x, y) == 7
        assert up_first_diff(x, y) == 6
        assert up_scan_bound(R([1], [0] * 3 + [1]), R([2, 2, 2], [1] * 5 + [0])) == 3 + 4 + 6 - 2

    def test_canonical_examples(self):
        assert R([0], [0, 0]).prefix == () and R([0], [0, 0]).period == (0,)
        assert R([], [1, 0, 1, 0]).period == (1, 0)
        assert R([1], [0]).prefix == (1,)
        assert R([2, 1, 0], [1, 0]).prefix == (2,)
        assert R([2, 1, 0], [1, 0]).period == (1, 0)
        assert R([1, 0, 1], [0, 1]).prefix == ()
        assert R([1, 0, 1], [0, 1]).period == (1, 0)

    @given(raw_reprs)
    def test_constructor_matches_oracle(self, raw):
        x = UPReal(*raw)
        assert (x.prefix, x.period) == naive_canonical(*raw)

    @given(raw_reprs)
    def test_canonical_preserves_values(self, raw):
        c = UPReal(*raw)
        bound = len(raw[0]) + len(raw[1]) + len(c.prefix) + len(c.period) + 4
        assert unroll(raw, bound) == unroll(c, bound)

    @given(up_reprs)
    def test_canonical_idempotent(self, c):
        again = UPReal(c.prefix, c.period)
        assert (again.prefix, again.period) == (c.prefix, c.period)
        assert up_canonical(c) is c

    @given(raw_reprs, st.integers(1, 3), st.integers(0, 3))
    def test_canonical_collapses_pumped_representations(self, raw, reps, extend):
        pumped = pump(raw, reps, extend)
        assert (UPReal(*pumped).prefix, UPReal(*pumped).period) == (
            UPReal(*raw).prefix, UPReal(*raw).period
        )

    @given(raw_reprs)
    def test_canonical_is_minimal(self, raw):
        # No representation with a shorter period, nor one with the same
        # period length and a shorter prefix, denotes the same sequence.
        c = UPReal(*raw)
        max_plen = len(c.prefix) + 2 * len(c.period) + 2
        values = unroll(c, max_plen + len(c.period))
        for dlen in range(1, len(c.period) + 1):
            for plen in range(max_plen + 1):
                if dlen == len(c.period) and plen >= len(c.prefix):
                    continue
                cand = (tuple(values[:plen]), tuple(values[plen:plen + dlen]))
                assert not naive_equal(cand, c)

    def test_compare_orders_by_first_difference(self):
        assert naive_compare(ZERO, R([1], [0])) == -1
        assert naive_compare(R([0, 2], [0]), R([0, 1], [0])) == 1
        assert naive_compare(R([0], [0]), ZERO) == 0
        assert up_sorted([R([1], [0]), ZERO]) == [ZERO, R([1], [0])]
        assert up_sorted([R([0, 1], [0]), R([0, 2], [0])]) == [R([0, 1], [0]), R([0, 2], [0])]


class TestSlicedSegments:
    """``initial_segment`` and ``up_extends`` slice ``prefix + period * k``;
    the oracles unroll the sequence or read it one position at a time."""

    def test_initial_segment_matches_unroll(self):
        rng = random.Random(8101)
        for _ in range(1500):
            x = rand_upreal(rng, max_prefix=8, max_period=7)
            p, q = len(x.prefix), len(x.period)
            lengths = {
                -(10 ** 6), -5, -1, 0, 1, p, p + 1, p + q, p + q + 1,
                rng.randrange(p + 1),  # inside the prefix
                p + rng.randrange(1, 60 * q),  # across many periods
                p + 50 * q + rng.randrange(q),
            }
            for length in lengths:
                segment = x.initial_segment(length)
                assert type(segment) is tuple
                assert segment == (tuple(unroll(x, length)) if length > 0 else ()), (x, length)

    def test_up_extends_matches_a_per_position_loop(self):
        def per_position(x, t):
            return all(up_eval(x, i) == t[i] for i in range(len(t)))

        rng = random.Random(8102)
        seen = set()
        for _ in range(3000):
            x = rand_upreal(rng, alphabet=3)
            node = list(unroll(x, rng.randrange(3 * (len(x.prefix) + len(x.period)) + 2)))
            if node and rng.random() < 0.5:
                node[rng.randrange(len(node))] = rng.randrange(3)
            form = rng.randrange(3)
            if form == 1:
                node = [float(v) if v == 1 else v for v in node]
            node = node if form == 2 else tuple(node)
            want = per_position(x, node)
            assert up_extends(x, node) is want, (x, node)
            seen.add((form, want))
        assert len(seen) == 6


class TestPrimitiveRoot:
    def test_roots_against_oracle_on_lengths_with_many_divisors(self):
        rng = random.Random(8103)
        for n in (12, 60, 360, 720):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            for _ in range(60):
                d = rng.choice(divisors)
                word = tuple(rng.randrange(rng.choice((2, 3))) for _ in range(d)) * (n // d)
                if rng.random() < 0.3:
                    letters = list(word)
                    letters[rng.randrange(n)] = rng.randrange(3)
                    word = tuple(letters)
                assert UPReal((), word).period == naive_canonical((), word)[1], (n, d)

    def test_long_period_with_one_odd_letter_is_fast(self):
        # 720,720 has 240 divisors; testing each by building the repetition
        # took over a second here, nearly all of it comparing zeros.
        word = (0,) * 720_719 + (1,)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            x = UPReal((), word)
            elapsed.append(time.perf_counter() - start)
        assert x.period == word
        assert min(elapsed) < 0.2, elapsed


class TestEquality:
    """Two representations of one sequence give one value everywhere."""

    @given(raw_reprs, st.integers(1, 3), st.integers(0, 3))
    def test_equal_sequences_equal_values_and_hashes(self, raw, reps, extend):
        x, y = UPReal(*raw), UPReal(*pump(raw, reps, extend))
        assert x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    @given(raw_reprs, raw_reprs)
    def test_equality_is_sequence_equality(self, a, b):
        assert (UPReal(*a) == UPReal(*b)) == naive_equal(a, b)

    @given(
        st.lists(st.tuples(raw_reprs, st.integers(1, 3), st.integers(0, 3)), min_size=1, max_size=4)
    )
    def test_containers_ignore_the_representation(self, items):
        reduced = [UPReal(*raw) for raw, _, _ in items]
        unreduced = [UPReal(*pump(raw, reps, extend)) for raw, reps, extend in items]
        assert BranchTree(frozenset(unreduced)) == BranchTree(frozenset(reduced))
        universe = GroundUniverse(frozenset({ZERO, *unreduced}))
        assert universe == GroundUniverse(frozenset({ZERO, *reduced}))
        assert all(x in universe for x in reduced)
        assert R([0, 0], [0, 0]) in universe
        scope = WrapperScope(len(items), 0)
        assert ShrinkWrapper(scope, {}, tuple(frozenset({x}) for x in unreduced)).isolated == (
            ShrinkWrapper(scope, {}, tuple(frozenset({x}) for x in reduced)).isolated
        )


class TestCoders:
    def test_growth_rule(self):
        assert growth(0, 0) == 1
        assert growth(2, 5) == 8

    def test_growth_preimage_of_three(self):
        pre = {(i, l) for i in range(10) for l in range(10) if growth(i, l) == 3}
        assert pre == {(0, 2), (1, 1), (2, 0)}

    def test_pair_examples(self):
        assert pair_of(0) == (0, 1)
        assert pair_index({2, 3}) == 5
        assert pair_index({4, 5}) == 14
        assert pair_index((1, 0)) == 0

    def test_pair_rejects_degenerate(self):
        with pytest.raises(ValueError):
            pair_index({3, 3})
        # a one-shot iterator is read once, so its message names both elements
        with pytest.raises(ValueError, match=r"^need two distinct naturals, got \[3, 3\]$"):
            pair_index(iter([3, 3]))

    def test_pair_elements_must_equal_naturals(self):
        assert pair_index(iter([1, 3])) == 4
        assert pair_index((True, 2.0)) == pair_index((1, 2)) == 2
        assert type(pair_index((0.0, 2.0))) is int
        for bad in [(0.5, 2), (2, 2.5), ("1", 2), (None, 2), (float("inf"), 2), (float("nan"), 2)]:
            with pytest.raises(ValueError, match="^pair elements must equal naturals"):
                pair_index(bad)
        with pytest.raises(ValueError, match="^pair elements must be nonnegative$"):
            pair_index((-1, 2))

    def test_pair_enumeration_order(self):
        # Pairs {a,b}, a<b, ordered lexicographically by (b, a).
        seen = [pair_of(nt) for nt in range(10)]
        assert seen == sorted(seen, key=lambda p: (p[1], p[0]))
        assert seen[0] == (0, 1)

    def test_pair_round_trip_window(self):
        for nt in range(3000):
            a, b = pair_of(nt)
            assert a < b
            assert pair_index((a, b)) == nt

    def test_pair_round_trip_on_big_ints(self):
        # The closed form, with no correction step, on the first and last
        # pair of each larger index b next to a power of two.
        for k in range(1, 301):
            for b in (2**k - 1, 2**k, 2**k + 1):
                for a in {0, b - 1}:
                    assert pair_of(pair_index((a, b))) == (a, b)

    def test_word_code_examples(self):
        assert word_code(()) == 0
        assert word_code((0,)) == 1
        assert word_code((1,)) == 2
        assert word_code((0, 0)) == 3

    def test_word_code_is_length_then_lex(self):
        words = [()]
        for length in range(1, 5):
            level = []
            for v in range(1 << length):
                bits = tuple((v >> (length - 1 - k)) & 1 for k in range(length))
                level.append(bits)
            words.extend(level)
        assert [word_code(w) for w in words] == list(range(len(words)))

    def test_shape_code_examples(self):
        assert shape_code((), 5) == 5
        assert shape_code((1,), 0) == 2

    def test_shape_code_preimage_of_two(self):
        pre = set()
        for length in range(4):
            for v in range(1 << length):
                s = tuple((v >> (length - 1 - k)) & 1 for k in range(length))
                for n in range(6):
                    if shape_code(s, n) == 2:
                        pre.add((s, n))
        assert pre == {((), 2), ((0,), 1), ((1,), 0)}

    def test_shape_code_class_minimum_is_the_all_zero_tail(self):
        # The class of width-4 words extending (1, 0) takes its least shape
        # code at (1, 0, 0, 0), the one word law 1 checks per class.
        alts = [shape_code((1, 0, b0, b1), 2) for b0 in (0, 1) for b1 in (0, 1)]
        assert shape_code((1, 0, 0, 0), 2) == min(alts)


class TestBranchTree:
    def test_branches_canonicalised_and_nonempty(self):
        t = BranchTree(frozenset({R([0], [0]), R([], [0])}))
        assert t.branches == frozenset({ZERO})
        with pytest.raises(ValueError):
            BranchTree(frozenset())

    def test_member_prefix_closed_and_leafless(self):
        rng = random.Random(7109)
        for _ in range(50):
            t = rand_branch_tree(rng)
            for x in t.branches:
                for depth in (0, 1, 3, 7):
                    node = x.initial_segment(depth)
                    assert t.member(node)
                    # prefix closure
                    assert all(t.member(node[:k]) for k in range(depth))
                    # leaflessness: some one-step extension stays inside
                    assert any(
                        t.member(node + (v,)) for v in t.level_values(depth)
                    )

    def test_member_rejects_outsiders(self):
        t = BranchTree.of(ZERO, R([1, 1], [0]))
        assert t.member((1, 1, 0))
        assert not t.member((1, 0))
        assert not t.member((2,))

    def test_branch_recovery_at_separating_depth(self):
        # Below a depth separating all branches, the level nodes biject
        # with the branch set.
        rng = random.Random(7110)
        for _ in range(50):
            t = rand_branch_tree(rng)
            branches = list(t.branches)
            if len(branches) == 1:
                depth = 1
            else:
                depth = 1 + max(
                    up_first_diff(a, b)
                    for i, a in enumerate(branches)
                    for b in branches[i + 1:]
                )
            nodes = {x.initial_segment(depth) for x in branches}
            assert len(nodes) == len(branches)
            assert all(t.member(node) for node in nodes)

    def test_level_values_example(self):
        t = BranchTree.of(ZERO, R([1], [0]))
        assert t.level_values(0) == frozenset({0, 1})
        assert t.level_values(1) == frozenset({0})

    def test_obeys_examples(self):
        two = BranchTree.of(ZERO, R([1], [0]))
        assert not two.obeys(0)  # width 2 at level 0 exceeds allowance 1
        assert two.obeys(1)

    def test_obeys_monotone_in_index(self):
        rng = random.Random(2202)
        for _ in range(100):
            t = rand_branch_tree(rng, max_branches=4)
            for i in range(5):
                if t.obeys(i):
                    assert t.obeys(i + 1)

    def test_stem_single_branch_returns_the_branch(self):
        x = R([1, 2], [0])
        assert BranchTree.of(x).stem() == x

    def test_stem_is_longest_common_prefix(self):
        t = BranchTree.of(R([0, 0, 1], [0]), R([0, 0, 2], [0]))
        assert t.stem() == (0, 0)
        t2 = BranchTree.of(ZERO, R([0, 1], [0]), R([1], [0]))
        assert t2.stem() == ()

    def test_restrict_keeps_extending_branches(self):
        a, b = R([0, 1], [0]), R([0, 2], [0])
        t = BranchTree.of(a, b)
        assert t.restrict((0, 1)).branches == frozenset({a})
        with pytest.raises(ValueError):
            t.restrict((3,))

    def test_restrict_oracle(self):
        rng = random.Random(2203)
        for _ in range(100):
            t = rand_branch_tree(rng)
            x = rng.choice(sorted(t.branches, key=lambda b: (b.prefix, b.period)))
            node = x.initial_segment(rng.randrange(5))
            got = t.restrict(node).branches
            expect = {b for b in t.branches if b.initial_segment(len(node)) == node}
            assert got == expect

    def test_separation_level_examples(self):
        assert bt_separation_level(BranchTree.of(ZERO), BranchTree.of(R([1], [0]))) == 1
        t1 = BranchTree.of(R([0, 0, 0, 1], [0]))
        t2 = BranchTree.of(R([0, 0, 0, 2], [0]))
        assert bt_separation_level(t1, t2) == 4
        assert bt_separation_level(t1, t1) is None

    def test_separation_level_is_minimal_and_sufficient(self):
        rng = random.Random(2204)
        for _ in range(200):
            t1 = rand_branch_tree(rng)
            t2 = rand_branch_tree(rng)
            level = bt_separation_level(t1, t2)
            if level is None:
                assert t1.branches & t2.branches
                continue
            # sufficient: at the level, every pair has already split
            for x in t1.branches:
                for y in t2.branches:
                    d = up_first_diff(x, y)
                    assert d is not None and d < level
            # minimal: some pair still agrees below level - 1
            assert any(
                up_first_diff(x, y) == level - 1
                for x in t1.branches
                for y in t2.branches
            )


def fine_wilf_pairs(rng: random.Random) -> list[tuple[UPReal, UPReal]]:
    """Distinct reals over {0, 1} with periods of 1-5 letters, alone and
    behind a shared random prefix, that agree on exactly
    ``up_scan_bound - 1`` positions: the most the Fine-Wilf bound allows."""
    periods = [w for k in range(1, 6) for w in itertools.product((0, 1), repeat=k)]
    out = []
    for p, q in itertools.combinations(periods, 2):
        stem = tuple(rng.randrange(3) for _ in range(rng.randrange(4)))
        for prefix in ((), stem):
            x, y = UPReal(prefix, p), UPReal(prefix, q)
            if x != y and naive_first_diff(x, y) == up_scan_bound(x, y) - 1:
                out.append((x, y))
    return out


def scaled(x: UPReal) -> UPReal:
    """The same real with every letter times 300: the order is kept, and
    letters of 256 and above appear."""
    return UPReal(tuple(300 * v for v in x.prefix), tuple(300 * v for v in x.period))


class TestKeyedSort:
    """``up_sorted`` sorts by initial segments; ``gen.naive_sort_key``, a
    comparison at the scanned first difference, is its oracle."""

    def test_matches_the_comparison_sort(self):
        rng = random.Random(2403)
        pairs = fine_wilf_pairs(rng)
        assert len(pairs) > 100
        assert {up_scan_bound(x, y) for x, y in pairs} >= set(range(1, 10))
        for trial in range(400):
            pool = [rand_upreal(rng, alphabet=rng.choice((2, 4))) for _ in range(rng.randrange(25))]
            if trial % 2:
                pool += [v for pair in rng.sample(pairs, rng.randint(1, 6)) for v in pair]
            if trial % 3 == 0:
                pool = [scaled(x) for x in pool] + pool[: rng.randrange(3)]
            rng.shuffle(pool)
            assert up_sorted(pool) == sorted(pool, key=naive_sort_key)
            assert up_sorted(frozenset(pool)) == sorted(frozenset(pool), key=naive_sort_key)

    def test_every_extremal_pair_in_both_orders(self):
        for x, y in fine_wilf_pairs(random.Random(2404)):
            want = sorted((x, y), key=naive_sort_key)
            assert up_sorted((x, y)) == up_sorted((y, x)) == want
            assert up_sorted((scaled(y), scaled(x))) == [scaled(v) for v in want]

    def test_none_and_one_value(self):
        assert up_sorted(()) == up_sorted(frozenset()) == []
        assert up_sorted(iter([R([1], [2])])) == [R([1], [2])]
        assert type(up_sorted((ZERO,))) is list

    def test_the_sort_calls_back_once_per_value(self):
        # A keyed sort runs each Python function at most once per value; a
        # comparison sort calls back once per comparison.
        rng = random.Random(2405)
        pool = list({rand_upreal(rng) for _ in range(300)})
        calls: dict = {}

        def profile(frame, event, arg):
            if event == "call":
                calls[frame.f_code] = calls.get(frame.f_code, 0) + 1

        for sort in (up_sorted, lambda values: sorted(values, key=naive_sort_key)):
            calls.clear()
            sys.setprofile(profile)
            try:
                got = sort(pool)
            finally:
                sys.setprofile(None)
            assert got == sorted(pool, key=naive_sort_key)
            if sort is up_sorted:
                assert max(calls.values()) <= len(pool) + 1
        assert calls[naive_compare.__code__] > 2 * len(pool)  # the counter sees a comparison sort
        xs, decoys = pool[:10], pool[10:30]
        data = encode(build_padded_wrapper(xs, decoys=decoys, seed=24))
        assert data == naive_encode(build_padded_wrapper(xs, decoys=decoys, seed=24), "wrapper")
