"""Wrapper layer: families, classification, verification, builders."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from gen import naive_check_partition, naive_equal, naive_first_diff, rand_prefix_table, rand_upreal
from shrinkwrap.core import ZERO, BranchTree, UPReal, up_first_diff
from shrinkwrap.wrapper import (
    ShrinkWrapper,
    TreeFamily,
    WrapperScope,
    _check_partition,
    build_padded_wrapper,
    build_wrapper,
    classify_pair,
    full_scope,
    separate_stems,
    verify_condition4,
    verify_wrapper,
)


def R(prefix, period=(0,)):
    return UPReal(tuple(prefix), tuple(period))


def T(*branches):
    return BranchTree(frozenset(branches))


def pair_wrapper(t1, t2, iso0=frozenset(), iso1=frozenset()):
    """Minimal wrapper: one pair position, constant families."""
    return ShrinkWrapper(
        WrapperScope(2, 1),
        {(0, 0): TreeFamily.constant(0, t1), (0, 1): TreeFamily.constant(0, t2)},
        (frozenset(iso0), frozenset(iso1)),
    )


class TestTreeFamily:
    def test_constant_family(self):
        fam = TreeFamily.constant(3, T(ZERO))
        assert fam.tree_at((0, 1, 0)) == T(ZERO)
        assert fam.tree_at((1, 1, 1)) == T(ZERO)
        assert len(fam.leaves) == 1

    def test_override_splits_minimally(self):
        special = T(R([1]))
        fam = TreeFamily.from_assignments(3, T(ZERO), {(0, 1, 0): special})
        assert fam.tree_at((0, 1, 0)) == special
        assert fam.tree_at((0, 1, 1)) == T(ZERO)
        assert fam.tree_at((1, 0, 0)) == T(ZERO)
        # path decomposition: one leaf per level plus the special word
        assert len(fam.leaves) == 4

    def test_reduction_merges_equal_siblings(self):
        fam = TreeFamily(2, (((0,), T(ZERO)), ((1, 0), T(ZERO)), ((1, 1), T(ZERO))))
        assert len(fam.leaves) == 1
        assert fam.leaves[0][0] == ()

    def test_reduction_gives_unique_form(self):
        special = T(R([1]))
        a = TreeFamily(1, (((0,), T(ZERO)), ((1,), special)))
        b = TreeFamily.from_assignments(1, T(ZERO), {(1,): special})
        assert a == b

    def test_partition_validated(self):
        with pytest.raises(ValueError):
            TreeFamily(2, (((0,), T(ZERO)),))  # does not cover (1,*)
        with pytest.raises(ValueError):
            TreeFamily(2, (((), T(ZERO)), ((1,), T(ZERO))))  # overlap

    @pytest.mark.parametrize("letter", [2, -1, 256, 0.5, 2.0, "1", None])
    def test_prefix_letters_must_be_bits(self, letter):
        with pytest.raises(ValueError, match="bad class prefix"):
            TreeFamily(1, (((0,), T(ZERO)), ((letter,), T(R([1])))))

    def test_partition_check_matches_pairwise_oracle(self):
        rng = random.Random(505)
        outcomes = Counter()

        def verdict(check, table, width):
            try:
                check(table, width)
            except ValueError as e:
                return str(e)
            return None

        for _ in range(3000):
            width = rng.randrange(7)
            table = rand_prefix_table(rng, width)
            expected = verdict(naive_check_partition, table, width)
            assert verdict(_check_partition, table, width) == expected, (width, sorted(table))
            # "overlapping class prefixes ..." or "class prefixes do not cover ..."
            outcomes["ok" if expected is None else expected.split()[0]] += 1
        assert set(outcomes) == {"ok", "overlapping", "class"}
        assert min(outcomes.values()) > 300, outcomes

    def test_distinct_trees_counts_words(self):
        special = T(R([1]))
        fam = TreeFamily.from_assignments(3, T(ZERO), {(0, 1, 0): special})
        counts = fam.distinct_trees()
        assert counts[special] == 1
        assert counts[T(ZERO)] == 7

    def test_representative_is_least_word(self):
        special = T(R([1]))
        fam = TreeFamily.from_assignments(2, T(ZERO), {(1, 0): special})
        assert fam.representative(special) == (1, 0)
        assert fam.representative(T(ZERO)) == (0, 0)


class TestClassifyPair:
    def test_shared_isolated_singleton_is_3b(self):
        x = R([2])
        w = pair_wrapper(T(x), T(x), iso0={x}, iso1={x})
        v = classify_pair(w, (x, x), 0, (), ())
        assert v.tag == "3b"
        assert v.witness == x

    def test_precedence_prefers_3b_over_3a(self):
        x = R([2])
        w = pair_wrapper(T(x), T(x), iso0={x}, iso1={x})
        assert classify_pair(w, (x, x), 0, (), ()).tag == "3b"
        # same trees, no isolation: falls through to 3a
        w2 = pair_wrapper(T(x), T(x))
        assert classify_pair(w2, (x, x), 0, (), ()).tag == "3a"

    def test_disjoint_is_3c_with_minimal_level(self):
        t1 = T(R([0, 0, 0, 1]))
        t2 = T(R([0, 0, 0, 2]))
        v = classify_pair(pair_wrapper(t1, t2), (R([0, 0, 0, 1]), R([0, 0, 0, 2])), 0, (), ())
        assert v.tag == "3c"
        assert v.separation_level == 4

    def test_equal_sets_through_distinct_points_violate(self):
        a, b = R([1]), R([2])
        t = T(a, b)
        v = classify_pair(pair_wrapper(t, t), (a, b), 0, (), ())
        assert v.tag == "violation"

    def test_equal_sets_avoiding_points_are_3a(self):
        a, b = R([1]), R([2])
        t = T(R([3]), R([4]))
        v = classify_pair(pair_wrapper(t, t), (a, b), 0, (), ())
        assert v.tag == "3a"

    def test_overlap_without_equality_violates(self):
        a, b, c = R([1]), R([2]), R([3])
        v = classify_pair(pair_wrapper(T(a, c), T(b, c)), (a, b), 0, (), ())
        assert v.tag == "violation"

    def test_scope_checked(self):
        x = R([2])
        w = pair_wrapper(T(x), T(x))
        with pytest.raises(ValueError):
            classify_pair(w, (x, x), 1, (0,), (0,))
        with pytest.raises(ValueError):
            classify_pair(w, (x,), 0, (), ())


def oracle_classify(c1, c2, iso1, iso2, x1, x2):
    """Recompute the verdict tag from the definitions by pairwise scans."""

    def set_eq(s, t):
        return all(any(naive_equal(a, b) for b in t) for a in s) and all(
            any(naive_equal(a, b) for b in s) for a in t
        )

    def meets(s, t):
        return any(naive_equal(a, b) for a in s for b in t)

    def member(x, s):
        return any(naive_equal(x, a) for a in s)

    if (
        set_eq(c1, c2)
        and len(c1) == 1
        and member(next(iter(c1)), iso1)
        and member(next(iter(c1)), iso2)
    ):
        return "3b", None
    if not meets(c1, c2):
        level = 1 + max(naive_first_diff(a, b) for a in c1 for b in c2)
        return "3c", level
    if set_eq(c1, c2) and not (
        (member(x1, c1) or member(x2, c2)) and not naive_equal(x1, x2)
    ):
        return "3a", None
    return "violation", None


class TestVerifyWrapper:
    def test_direct_build_passes_both_verifiers(self):
        rng = random.Random(48)
        for _ in range(10):
            xs = [rand_upreal(rng) for _ in range(5)]
            w = build_wrapper(xs)
            assert verify_wrapper(w, xs).passed
            assert verify_condition4(w).passed

    def test_duplicate_points_still_pass(self):
        x = R([1, 2])
        xs = [x, ZERO, x, x]
        w = build_wrapper(xs)
        assert verify_wrapper(w, xs).passed
        assert verify_condition4(w).passed

    def test_growth_violation_reported(self):
        xs = [ZERO, R([1])]
        w = build_wrapper(xs)
        # index 0 at pair position 0 allows only one branch at level 0
        fat = TreeFamily.constant(0, T(ZERO, R([2]), R([3])))
        bad = ShrinkWrapper(w.scope, {**w.families, (0, 0): fat}, w.isolated)
        report = verify_wrapper(bad, xs)
        assert not report.passed
        assert any(v.condition == "1" for v in report.violations)

    def test_coverage_violation_reported(self):
        xs = [ZERO, R([1])]
        w = build_wrapper(xs)
        stray = TreeFamily.constant(0, T(R([5])))
        bad = ShrinkWrapper(w.scope, {**w.families, (0, 1): stray}, w.isolated)
        report = verify_wrapper(bad, xs)
        assert any(v.condition == "2" for v in report.violations)

    def test_pair_violation_reported(self):
        a, b, c = R([1]), R([2]), R([3])
        w = pair_wrapper(T(a, c), T(b, c))
        report = verify_wrapper(w, (a, b))
        assert not report.passed
        assert any(v.condition == "3" for v in report.violations)

    def test_sequence_length_must_match_scope(self):
        xs = [ZERO, R([1])]
        w = build_wrapper(xs)
        with pytest.raises(ValueError):
            verify_wrapper(w, xs[:1])

    def test_condition4_rejects_constant_fat_family(self):
        # A two-branch tree shared by every word of a positive width.
        xs = [ZERO, R([1]), R([2])]
        w = build_wrapper(xs)
        fat = TreeFamily.constant(1, T(ZERO, R([3])))
        bad = ShrinkWrapper(w.scope, {**w.families, (1, 0): fat}, w.isolated)
        report = verify_condition4(bad)
        assert not report.passed
        assert all(v.condition == "4" for v in report.violations)
        # the main verifier does not require the fourth law
        assert not any(v.condition == "4" for v in verify_wrapper(bad, xs).violations)


class TestBuilders:
    def test_full_scope_covers_all_pairs(self):
        scope = full_scope(6)
        assert scope.n_pairs == 15
        assert scope.covers_all_pairs()

    def test_padded_with_empty_pool_is_direct_build(self):
        rng = random.Random(9)
        xs = [rand_upreal(rng) for _ in range(4)]
        assert build_padded_wrapper(xs, seed=3) == build_wrapper(xs)
        assert build_padded_wrapper(xs, decoys=xs, seed=3) == build_wrapper(xs)

    def test_padded_passes_verifiers_and_actually_pads(self):
        rng = random.Random(10)
        padded_seen = False
        for trial in range(20):
            xs = [rand_upreal(rng) for _ in range(5)]
            if trial % 2 == 0:
                xs[3] = xs[1]  # force duplicates half the time
            decoys = [rand_upreal(rng) for _ in range(6)]
            w = build_padded_wrapper(xs, decoys=decoys, seed=trial)
            assert verify_wrapper(w, xs).passed
            assert verify_condition4(w).passed
            if any(
                len(tree.branches) > 1
                for fam in w.families.values()
                for tree in fam.distinct_trees()
            ):
                padded_seen = True
        assert padded_seen

    def test_padded_deterministic_for_seed(self):
        rng = random.Random(11)
        xs = [rand_upreal(rng) for _ in range(4)]
        decoys = [rand_upreal(rng) for _ in range(5)]
        assert build_padded_wrapper(xs, decoys=decoys, seed=7) == build_padded_wrapper(
            xs, decoys=decoys, seed=7
        )

    def test_long_prefix_decoy_grows_separation_level(self):
        # The only decoy lands in index 1's tree (budget 2 vs 1 for index 0)
        # and agrees with the other index's point up to level 5, so the
        # minimal separation level of the padded pair climbs to 6.
        x0 = ZERO
        x1 = R([1])
        decoy = R([0, 0, 0, 0, 0, 1])
        w = build_padded_wrapper([x0, x1], decoys=[decoy], seed=0)
        assert verify_wrapper(w, [x0, x1]).passed
        assert decoy in w.tree(0, 1, ()).branches
        v = classify_pair(w, [x0, x1], 0, (), ())
        assert v.tag == "3c"
        assert up_first_diff(x0, decoy) == 5
        assert v.separation_level == 6


class TestSeparateStems:
    def test_least_differing_pair_drives_the_split(self):
        a, b = R([1]), R([2])
        t1 = T(ZERO, a)
        t2 = T(ZERO, b)
        r1, r2 = separate_stems(t1, t2)
        # least differing pair is (zero, b): cones below (0,) and (2,)
        assert r1.branches == frozenset({ZERO})
        assert r2.branches == frozenset({b})

    def test_results_sit_in_incomparable_cones(self):
        rng = random.Random(77)
        for _ in range(100):
            t1 = BranchTree(frozenset(rand_upreal(rng) for _ in range(rng.randrange(1, 4))))
            t2 = BranchTree(frozenset(rand_upreal(rng) for _ in range(rng.randrange(1, 4))))
            if t1.branches == t2.branches and len(t1.branches) == 1:
                continue
            r1, r2 = separate_stems(t1, t2)
            assert r1.branches <= t1.branches
            assert r2.branches <= t2.branches
            # below incomparable nodes every cross pair splits at one level
            diffs = {up_first_diff(x, y) for x in r1.branches for y in r2.branches}
            assert len(diffs) == 1

    def test_same_singleton_rejected(self):
        with pytest.raises(ValueError):
            separate_stems(T(ZERO), T(R([0], [0])))


class TestClassifyAgainstOracle:
    def test_random_tree_pairs(self):
        rng = random.Random(501)
        tags = set()
        for trial in range(300):
            pool = [rand_upreal(rng, alphabet=3) for _ in range(4)]
            c1 = frozenset(rng.sample(pool, rng.randrange(1, 3)))
            c2 = frozenset(rng.sample(pool, rng.randrange(1, 3)))
            x1, x2 = rng.choice(pool), rng.choice(pool)
            if trial % 3 == 0:
                iso1 = iso2 = frozenset(pool)
            else:
                iso1 = frozenset(rng.sample(pool, rng.randrange(0, 3)))
                iso2 = frozenset(rng.sample(pool, rng.randrange(0, 3)))
            w = ShrinkWrapper(
                WrapperScope(2, 1),
                {
                    (0, 0): TreeFamily.constant(0, BranchTree(c1)),
                    (0, 1): TreeFamily.constant(0, BranchTree(c2)),
                },
                (iso1, iso2),
            )
            got = classify_pair(w, (x1, x2), 0, (), ())
            want_tag, want_level = oracle_classify(c1, c2, iso1, iso2, x1, x2)
            assert got.tag == want_tag
            if want_tag == "3c":
                assert got.separation_level == want_level
            tags.add(got.tag)
        assert tags == {"3a", "3b", "3c", "violation"}
