"""Wrapper layer: families, classification, verification, builders."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from gen import (
    naive_build_padded_wrapper,
    naive_check_partition,
    naive_condition4,
    naive_draw_word,
    naive_equal,
    naive_first_diff,
    naive_from_assignments,
    naive_law1,
    naive_shuffle,
    naive_tree_family,
    naive_verify_wrapper,
    rand_branch_tree,
    rand_family_leaves,
    rand_overrides,
    rand_prefix_table,
    rand_upreal,
)
from shrinkwrap import core, wrapper
from shrinkwrap.codec import decode, encode
from shrinkwrap.core import ZERO, BranchTree, UPReal, pair_of, up_first_diff
from shrinkwrap.wrapper import (
    ShrinkWrapper,
    TreeFamily,
    Violation,
    WrapperReport,
    WrapperScope,
    build_padded_wrapper,
    build_wrapper,
    classify_pair,
    full_scope,
    verify_condition4,
    verify_wrapper,
)


def R(prefix, period=(0,)):
    return UPReal(tuple(prefix), tuple(period))


def T(*branches):
    return BranchTree(frozenset(branches))


def as_bytes(leaves) -> tuple:
    """An oracle's leaves with each int-tuple prefix in the bytes form
    TreeFamily stores."""
    return tuple((bytes(prefix), tree) for prefix, tree in leaves)


def pair_wrapper(t1, t2, iso0=frozenset(), iso1=frozenset()):
    """Minimal wrapper: one pair position, constant families."""
    return ShrinkWrapper(
        WrapperScope(2, 1),
        {(0, 0): TreeFamily.constant(0, t1), (0, 1): TreeFamily.constant(0, t2)},
        (frozenset(iso0), frozenset(iso1)),
    )


def word_counts(leaves, width: int) -> list:
    """(tree, number of words) in order of each tree's first class."""
    counts = {}
    for prefix, tree in leaves:
        counts[tree] = counts.get(tree, 0) + 2 ** (width - len(prefix))
    return list(counts.items())


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
        assert [prefix for prefix, _ in fam.leaves] == [
            b"\x00\x00", b"\x00\x01\x00", b"\x00\x01\x01", b"\x01"
        ]

    def test_reduction_merges_equal_siblings(self):
        fam = TreeFamily(2, (((0,), T(ZERO)), ((1, 0), T(ZERO)), ((1, 1), T(ZERO))))
        assert len(fam.leaves) == 1
        assert fam.leaves[0][0] == b""

    def test_reduction_gives_unique_form(self):
        special = T(R([1]))
        a = TreeFamily(1, (((0,), T(ZERO)), ((1,), special)))
        b = TreeFamily.from_assignments(1, T(ZERO), {(1,): special})
        assert a == b

    def test_merges_cascade_to_the_constant_family(self):
        # The 8 classes of width 3, all holding one tree, merge into the 4
        # of width 2, the 2 of width 1, then the root.
        leaves = [(word, T(ZERO)) for word in itertools.product((0, 1), repeat=3)]
        fam = TreeFamily(3, leaves[::-1])
        assert fam.leaves == ((b"", T(ZERO)),) == as_bytes(naive_tree_family(3, leaves))
        assert fam == TreeFamily.constant(3, T(ZERO))

    def test_merges_cascade_until_a_differing_sibling(self):
        a, b = T(ZERO), T(R([1]))
        leaves = [((0,), b), ((1, 0), a), ((1, 1, 0), a), ((1, 1, 1, 0), a), ((1, 1, 1, 1), a)]
        # The last class merges with 1110, then with 110 and 10 below the
        # classes already walked, and stops at 0, which holds another tree.
        want = ((b"\x00", b), (b"\x01", a))
        assert TreeFamily(4, leaves).leaves == want == as_bytes(naive_tree_family(4, leaves))

    def test_an_override_merges_back_into_a_split_sibling(self):
        # The first override splits off the sibling class 01, the second
        # lands in it, and the two words of 0 then hold one tree again.
        a, default = T(R([1])), T(ZERO)
        overrides = {(0, 0): a, (0, 1): a}
        fam = TreeFamily.from_assignments(2, default, overrides)
        want = ((b"\x00", a), (b"\x01", default))
        assert fam.leaves == want == as_bytes(naive_from_assignments(2, default, overrides))
        # Each word landing in a different earlier class, none merging.
        overrides = {(1, 1, 0): a, (0, 1, 1): T(R([2])), (1, 0, 0): T(R([3])), (0, 0, 0): a}
        fam = TreeFamily.from_assignments(3, default, overrides)
        assert fam.leaves == as_bytes(naive_from_assignments(3, default, overrides))
        assert len(fam.leaves) == 8

    def test_partition_validated(self):
        with pytest.raises(ValueError):
            TreeFamily(2, (((0,), T(ZERO)),))  # does not cover (1,*)
        with pytest.raises(ValueError):
            TreeFamily(2, (((), T(ZERO)), ((1,), T(ZERO))))  # overlap

    @pytest.mark.parametrize("one", [1, True, 1.0])
    def test_tree_at_takes_any_bit_that_equals_one(self, one):
        special = T(R([1]))
        fam = TreeFamily.from_assignments(2, T(ZERO), {(1, 0): special})
        assert fam.tree_at((one, 0)) == fam.tree_at([one, 0.0]) == special
        assert fam.tree_at((0, one)) == T(ZERO)
        with pytest.raises(ValueError, match="need a binary word of length 2"):
            fam.tree_at((2, 0))

    def test_words_handed_out_are_int_tuples(self):
        special = T(R([1]))
        fam = TreeFamily.from_assignments(3, T(ZERO), {(True, 0, 1.0): special})
        for word in (fam.representative(special), fam.representative(T(ZERO))):
            assert type(word) is tuple and {type(b) for b in word} == {int}
        assert fam.representative(special) == (1, 0, 1)
        assert fam.representative(T(ZERO)) == (0, 0, 0)
        with pytest.raises(ValueError, match="tree is not assigned"):
            fam.representative(T(R([2])))

    def test_distinct_trees_is_read_only(self):
        special = T(R([1]))
        fam = TreeFamily.from_assignments(2, T(ZERO), {(1, 1): special})
        counts = fam.distinct_trees()
        with pytest.raises(TypeError):
            counts[special] = 4
        with pytest.raises(TypeError):
            del counts[T(ZERO)]
        copy = dict(counts)
        copy[special] = 4
        assert fam.distinct_trees() == {T(ZERO): 3, special: 1}

    @pytest.mark.parametrize("leaves", [
        ((b"", T(ZERO), 1),),
        ((b"",),),
        (5,),
        ((b"\x00", T(ZERO)), (b"\x01",)),
        ((b"\x00", T(ZERO)), (b"\x01", T(ZERO), 2)),
    ])
    def test_a_leaf_that_is_not_a_pair_fails(self, leaves):
        with pytest.raises((TypeError, ValueError)):
            TreeFamily(1 if len(leaves) > 1 else 0, leaves)

    @pytest.mark.parametrize("letter", [
        2, -1, 256, 0.5, 2.0, "1", None,
        # Every prefix given as bytes: a byte 2, a byte 255, and a prefix
        # longer than the width.
        pytest.param(b"\x02", id="bytes-2"),
        pytest.param(b"\xff", id="bytes-255"),
        pytest.param(b"\x01\x00", id="bytes-too-long"),
    ])
    def test_prefix_letters_must_be_bits(self, letter):
        first, second = (b"\x00", letter) if type(letter) is bytes else ((0,), (letter,))
        with pytest.raises(ValueError, match="bad class prefix"):
            TreeFamily(1, ((first, T(ZERO)), (second, T(R([1])))))

    def test_partition_check_matches_pairwise_oracle(self):
        rng = random.Random(505)
        outcomes = Counter()

        def verdict(check, table, width):
            try:
                check(table, width)
            except ValueError as e:
                return str(e)
            return None

        def build(table, width):
            TreeFamily(width, tuple(table.items()))

        for _ in range(3000):
            width = rng.randrange(7)
            table = rand_prefix_table(rng, width)
            expected = verdict(naive_check_partition, table, width)
            assert verdict(build, table, width) == expected, (width, sorted(table))
            # "overlapping class prefixes ..." or "class prefixes do not cover ..."
            outcomes["ok" if expected is None else expected.split()[0]] += 1
        assert set(outcomes) == {"ok", "overlapping", "class"}
        assert min(outcomes.values()) > 300, outcomes

    def test_one_pass_build_matches_oracle(self):
        """The one sort and one neighbour pass against the letter-by-letter,
        pairwise, merge-to-a-fixed-point oracle: the same leaves, each prefix
        stored as bytes, or the same error.  Families whose prefixes are all
        bytes, as the codec gives them, reach every outcome too."""
        rng = random.Random(1111)
        outcomes, byte_outcomes = Counter(), Counter()

        def outcome(build):
            try:
                return "ok", repr(build())
            except ValueError as e:
                return "error", str(e)

        for _ in range(4000):
            width = rng.randrange(7)
            leaves = rand_family_leaves(rng, width)
            want = outcome(lambda: as_bytes(naive_tree_family(width, leaves)))
            assert outcome(lambda: TreeFamily(width, leaves).leaves) == want, (width, leaves)
            kind = want[1].split()[0] if want[0] == "error" else "ok"
            if kind == "ok" and len(naive_tree_family(width, leaves)) < len(leaves):
                kind = "merged"
            outcomes[kind] += 1
            if leaves and all(type(prefix) is bytes for prefix, _ in leaves):
                byte_outcomes[kind] += 1
        # ok, merged, and errors: bad, duplicate, overlapping, class (a gap)
        assert set(outcomes) == {"ok", "merged", "bad", "duplicate", "overlapping", "class"}
        assert min(outcomes.values()) > 100, outcomes
        assert set(byte_outcomes) == set(outcomes), byte_outcomes
        assert min(byte_outcomes.values()) > 20, byte_outcomes

    def test_from_assignments_matches_oracle(self):
        """Overrides split over bytes against the tuple split of the oracle:
        the same leaves, each prefix stored as bytes, or the same error."""
        rng = random.Random(1313)
        outcomes = Counter()

        def outcome(build):
            try:
                return "ok", repr(build())
            except ValueError as e:
                return "error", str(e)

        for _ in range(4000):
            width = rng.randrange(7)
            default = rng.randrange(3)
            pairs = rand_overrides(rng, width, default)
            overrides = dict(pairs)
            want = outcome(lambda: as_bytes(naive_from_assignments(width, default, overrides)))
            got = outcome(lambda: TreeFamily.from_assignments(width, default, overrides).leaves)
            assert got == want, (width, default, pairs)
            if want[0] == "error":
                outcomes[want[1].split()[0]] += 1
                continue
            words = [w for w, _ in pairs]
            outcomes["several" if len(overrides) > 1 else "one" if overrides else "none"] += 1
            outcomes["two spellings"] += len({tuple(map(int, w)) for w in words}) < len(words)
            outcomes["True or 1.0"] += any(type(b) in (bool, float) for w in words for b in w)
            outcomes["equal to default"] += default in overrides.values()
        # errors: "overrides must be ..." and "override ... is not a binary word"
        assert set(outcomes) >= {
            "none", "one", "several", "two spellings", "True or 1.0", "equal to default",
            "overrides", "override",
        }
        assert min(outcomes.values()) > 40, outcomes

    @pytest.mark.parametrize("word, message", [
        ((0, 2), "override (0, 2) is not a binary word"),
        ((0, -1), "override (0, -1) is not a binary word"),
        ((1, 0.5), "override (1, 0.5) is not a binary word"),
        (("0", "1"), "override ('0', '1') is not a binary word"),
        ((0, 1, 0), "overrides must be full-length words"),
        ((1,), "overrides must be full-length words"),
        (b"\x00\x02", "override (0, 2) is not a binary word"),
    ])
    def test_from_assignments_names_the_rejected_word(self, word, message):
        with pytest.raises(ValueError) as raised:
            TreeFamily.from_assignments(2, T(ZERO), {(1, 1): T(R([1])), word: T(R([2]))})
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            naive_from_assignments(2, T(ZERO), {(1, 1): T(R([1])), word: T(R([2]))})
        assert str(raised.value) == message
        # Alone, the word takes the closed form's path, with the same checks.
        for build in (TreeFamily.from_assignments, naive_from_assignments):
            with pytest.raises(ValueError) as raised:
                build(2, T(ZERO), {word: T(R([2]))})
            assert str(raised.value) == message

    def test_single_override_matches_the_table_path(self):
        """One override is built in closed form: the same leaves and
        distinct trees as the checking constructor over those leaves given
        in reverse, and as the tuple oracle."""
        rng = random.Random(2401)
        trees = [T(R([k])) for k in range(3)]
        spellings = {
            "bytes": bytes, "tuple": tuple,
            "True": lambda bits: tuple(map(bool, bits)),
            "1.0": lambda bits: tuple(map(float, bits)),
        }
        seen = Counter()
        for _ in range(1200):
            width = rng.randrange(13)
            default, tree = rng.choice(trees), rng.choice(trees)
            bits = [rng.randrange(2) for _ in range(width)]
            spelling = rng.choice(sorted(spellings))
            overrides = {spellings[spelling](bits): tree}
            got = TreeFamily.from_assignments(width, default, overrides)
            table = TreeFamily(width, got.leaves[::-1])
            naive = as_bytes(naive_from_assignments(width, default, overrides))
            assert got.leaves == table.leaves == naive
            assert got == table
            assert list(got.distinct_trees().items()) == word_counts(naive, width)
            assert list(table.distinct_trees().items()) == word_counts(naive, width)
            for t in got.distinct_trees():
                assert got.representative(t) == table.representative(t)
            seen[spelling] += 1
            seen["equal to default"] += tree == default
            seen[f"width {width}"] += 1
        assert len(seen) == 4 + 1 + 13 and min(seen.values()) > 40, seen

    def test_closed_form_walk_reads_the_shape(self, monkeypatch):
        """A single-override family's distinct trees, in order, and its
        representatives come from its word, tree and default: equal to the
        checking constructor's walk over the same leaves and to the tuple
        oracle, at widths up to 45, for a few tree hashes however wide."""
        rng = random.Random(2602)
        trees = [T(R([k])) for k in range(3)] + [T(R([1]), R([2, 1]))]
        seen = Counter()
        for trial in range(1200):
            width = rng.randrange(46)
            default, tree = rng.sample(trees, 2)
            shape = rng.choice(("random", "zeros", "ones"))
            bits = [rng.randrange(2) for _ in range(width)] if shape == "random" else [shape == "ones"] * width
            got = TreeFamily.from_assignments(width, default, {bytes(bits): tree})
            checked = TreeFamily(width, got.leaves)
            naive = naive_tree_family(width, [(tuple(p), t) for p, t in got.leaves])
            assert as_bytes(naive) == got.leaves
            want = word_counts(naive, width)
            assert list(got.distinct_trees().items()) == list(checked.distinct_trees().items()) == want
            for t, _ in want:
                least = min(p + (0,) * (width - len(p)) for p, held in naive if held == t)
                assert got.representative(t) == checked.representative(t) == least
            seen[shape] += 1
            seen["wide"] += width > 30
        assert min(seen.values()) > 100, seen
        hashes = []
        tree_hash = BranchTree.__hash__

        def counting(self):
            hashes.append(self)
            return tree_hash(self)

        wide = TreeFamily.from_assignments(45, trees[0], {bytes(45): trees[1]})
        with monkeypatch.context() as patch:
            patch.setattr(BranchTree, "__hash__", counting)
            counts = wide.distinct_trees()
            firsts = [wide.representative(t) for t in (trees[0], trees[1])]
        assert len(hashes) == 6  # two trees in each of two maps, and two lookups
        assert list(counts.items()) == [(trees[1], 1), (trees[0], 2**45 - 1)]
        assert firsts == [(0,) * 44 + (1,), (0,) * 45]

    def test_a_family_kept_as_its_shape_reads_as_its_leaves(self):
        """A single-override family works its leaves out on first read.
        Whichever is read first, leaves, ==, hash, repr, tree_at and
        representative equal the checking constructor's over the tuple
        oracle's leaves; distinct_trees and representative read the shape."""
        rng = random.Random(2912)
        trees = [T(R([k])) for k in range(3)] + [T(R([1]), R([2, 1]))]
        for trial in range(300):
            width = rng.randrange(1, 14)
            default, tree = rng.sample(trees, 2)
            word = tuple(rng.randrange(2) for _ in range(width))
            words = [word, *(tuple(rng.randrange(2) for _ in range(width)) for _ in range(3))]
            naive = as_bytes(naive_from_assignments(width, default, {word: tree}))
            checked = TreeFamily(width, naive)
            checks = {
                "leaves": lambda f: f.leaves,
                "==": lambda f: f == checked and checked == f,
                "hash": hash,
                "repr": repr,
                "tree_at": lambda f: [f.tree_at(s) for s in words],
                "representative": lambda f: [f.representative(t) for t in (default, tree)],
            }
            want = {name: check(checked) for name, check in checks.items()}
            assert want["leaves"] == naive
            for name in checks:
                fam = TreeFamily.from_assignments(width, default, {word: tree})
                assert "leaves" not in vars(fam)
                assert {n: checks[n](fam) for n in [name, *checks]} == want
            fam = TreeFamily.from_assignments(width, default, {word: tree})
            assert dict(fam.distinct_trees()) == {tree: 1, default: 2**width - 1}
            assert checks["representative"](fam) == want["representative"]
            assert "leaves" not in vars(fam)

    def test_decoded_wrappers_verify_as_the_oracles_do(self):
        rng = random.Random(2603)
        failed = 0
        for trial in range(12):
            xs = [rand_upreal(rng, alphabet=3) for _ in range(rng.randint(2, 4))]
            if trial % 3 == 1:
                xs[-1] = xs[0]
            decoys = [rand_upreal(rng, alphabet=3) for _ in range(rng.randrange(12))]
            w = decode(encode(build_padded_wrapper(xs, decoys=decoys, seed=trial)))
            # The points in another order, and no isolated points, break laws.
            bare = ShrinkWrapper(w.scope, w.families, tuple(frozenset() for _ in xs))
            for ws, points in ((w, xs), (w, xs[::-1]), (bare, xs)):
                report = verify_wrapper(ws, points)
                assert report == naive_verify_wrapper(ws, points)
                failed += not report.passed
            for ws in (w, bare):
                report = verify_condition4(ws)
                assert report == naive_condition4(ws)
                failed += not report.passed
        assert failed > 12

    def test_from_assignments_checks_the_width(self):
        with pytest.raises(ValueError) as raised:
            TreeFamily.from_assignments(-1, T(ZERO))
        assert str(raised.value) == "width must be nonnegative"

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

    def test_missing_family_named_apart_from_out_of_scope_index(self):
        x = R([2])
        t = TreeFamily.constant(0, T(x))
        # in scope but absent: (1, 0) of a partial wrapper, as check_total names it
        partial = ShrinkWrapper(
            WrapperScope(3, 3),
            {(0, 0): t, (0, 1): t, (2, 1): TreeFamily.constant(2, T(x))},
            (frozenset(),) * 3,
        )
        with pytest.raises(ValueError) as e:
            classify_pair(partial, (x, x, x), 1, (0,), (0,))
        assert str(e.value) == "missing family for pair position 1, index 0"
        with pytest.raises(ValueError) as e:
            partial.check_total()
        assert str(e.value) == "missing family for pair position 1, index 0"
        # pair position 1 names index 2, past the two reals of an over-wide scope
        wide = ShrinkWrapper(
            WrapperScope(2, 2),
            {(0, 0): t, (0, 1): t, (1, 0): TreeFamily.constant(1, T(x))},
            (frozenset(),) * 2,
        )
        with pytest.raises(ValueError) as e:
            classify_pair(wide, (x, x), 1, (0,), (0,))
        assert str(e.value) == "(1, 2) is outside the wrapper scope"

    def test_family_width_must_be_the_pair_position(self):
        t = TreeFamily.constant(0, T(R([2])))
        with pytest.raises(ValueError) as e:
            ShrinkWrapper(WrapperScope(3, 3), {(0, 0): t, (0, 1): t, (1, 0): t}, (frozenset(),) * 3)
        assert str(e.value) == "family at pair position 1 has width 0"


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

    def test_each_family_is_scanned_once(self, monkeypatch):
        rng = random.Random(45)
        xs = [rand_upreal(rng) for _ in range(6)]
        w = build_padded_wrapper(xs, decoys=[rand_upreal(rng) for _ in range(6)], seed=3)
        scanned = []
        distinct_trees = TreeFamily.distinct_trees

        def counting(self):
            scanned.append(self)
            return distinct_trees(self)

        monkeypatch.setattr(TreeFamily, "distinct_trees", counting)
        verify_wrapper(w, xs)
        assert len(scanned) == len(w.families)

    def test_law1_checks_each_distinct_tree_once(self, monkeypatch):
        rng = random.Random(2406)
        cases = []
        for seed in range(8):
            xs = [rand_upreal(rng) for _ in range(rng.randint(3, 7))]
            decoys = [rand_upreal(rng) for _ in range(rng.randrange(1, 13))]
            cases.append((build_padded_wrapper(xs, decoys=decoys, seed=seed), xs))
        checked = []
        obeys = BranchTree.obeys

        def counting(self, i):
            checked.append(self)
            return obeys(self, i)

        monkeypatch.setattr(BranchTree, "obeys", counting)
        for w, xs in cases:
            checked.clear()
            assert verify_wrapper(w, xs).passed
            families = w.families.values()
            assert len(checked) == sum(len(fam.distinct_trees()) for fam in families)
            assert len(checked) < sum(len(fam.leaves) for fam in families)

    def test_a_tree_breaking_law1_at_several_classes_reports_each(self):
        # Pair position 3 joins indices 0 and 3 at width 3.  The fat tree
        # has 12 values at level 0, so it obeys index i from i = 11 on:
        # words 000 and 010 (indices 7 and 9) break law 1, 100 (11) does not.
        xs = [ZERO, R([1]), R([2]), R([3])]
        w = build_wrapper(xs)
        fat = T(*(R([k]) for k in range(4, 16)))
        fam = TreeFamily(3, (
            ((0, 0, 0), fat), ((0, 0, 1), T(ZERO)), ((0, 1, 0), fat), ((0, 1, 1), T(ZERO)),
            ((1,), fat),
        ))
        bad = ShrinkWrapper(w.scope, {**w.families, (3, 0): fam}, w.isolated)
        report = verify_wrapper(bad, xs)
        assert report == naive_verify_wrapper(bad, xs)
        assert report == WrapperReport(False, (
            Violation("1", 3, 0, (0, 0, 0), None, "tree exceeds the growth allowance at index 7"),
            Violation("1", 3, 0, (0, 1, 0), None, "tree exceeds the growth allowance at index 9"),
        ))

    def test_verifiers_compute_no_separation_level(self, monkeypatch):
        # Distinct points: every padded tree is disjoint from the other
        # index's trees, so law 3 tags those pairs 3c; only classify_pair
        # reports their separation level.
        rng = random.Random(46)
        xs = [rand_upreal(rng) for _ in range(5)]
        assert len(set(xs)) == 5
        w = build_padded_wrapper(xs, decoys=[rand_upreal(rng) for _ in range(8)], seed=4)
        disjoint = [
            (nt, w.family(nt, a).representative(t1), w.family(nt, b).representative(t2), t1, t2)
            for nt, a, b in w.scope.pairs()
            for t1 in w.family(nt, a).distinct_trees()
            for t2 in w.family(nt, b).distinct_trees()
            if t1.branches.isdisjoint(t2.branches)
        ]
        # the pair with the most branches, at least one padded tree among them
        nt, s1, s2, t1, t2 = max(disjoint, key=lambda p: len(p[3].branches | p[4].branches))
        assert len(t1.branches | t2.branches) > 2
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return up_first_diff(x, y)

        monkeypatch.setattr(wrapper, "up_first_diff", counting)
        monkeypatch.setattr(core, "up_first_diff", counting)
        assert verify_wrapper(w, xs).passed
        assert verify_condition4(w).passed
        assert calls == []
        v = classify_pair(w, xs, nt, s1, s2)
        assert v.tag == "3c"
        assert calls
        assert v.separation_level == 1 + max(
            naive_first_diff(x, y) for x in t1.branches for y in t2.branches
        )

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

    def test_one_position_breaking_laws_1_to_3_reports_every_row(self):
        # Pair position 1 joins indices 0 and 2 at width 1.  Index 0's tree
        # at word 0 is too wide at level 0 and misses x0; index 2's at word 0
        # is too wide as well and overlaps it; both indices take {x2} at
        # word 1, an equal pair through x2, which differs from x0.
        xs = [ZERO, R([1]), R([2])]
        w = build_wrapper(xs)
        wide0 = T(R([3]), R([4]), R([5]))
        wide2 = T(R([3]), R([6]), R([7]), R([8]), R([9]))
        families = {
            **w.families,
            (1, 0): TreeFamily.from_assignments(1, wide0, {(1,): T(xs[2])}),
            (1, 2): TreeFamily.from_assignments(1, wide2, {(1,): T(xs[2])}),
        }
        report = verify_wrapper(ShrinkWrapper(w.scope, families, w.isolated), xs)
        assert report == WrapperReport(False, (
            Violation("1", 1, 0, (0,), None, "tree exceeds the growth allowance at index 1"),
            Violation("1", 1, 2, (0,), None, "tree exceeds the growth allowance at index 3"),
            Violation("2", 1, 0, None, None, "no word's tree passes through the sequence point"),
            Violation(
                "3", 1, None, (0,), (0,),
                "branch sets overlap without being equal or a shared isolated singleton",
            ),
            Violation(
                "3", 1, None, (1,), (1,),
                "equal branch sets pass through one of the points but the points differ",
            ),
        ))

    def test_one_index_breaking_both_condition4_messages_reports_every_row(self):
        # At pair position 2, width 2, index 1 gives words 00 and 01 one
        # two-branch tree, word 10 a tree overlapping it and word 11 a tree
        # apart from both.
        xs = [ZERO, R([1]), R([2])]
        w = build_wrapper(xs)
        fam = TreeFamily(2, (
            ((0,), T(ZERO, R([3]))), ((1, 0), T(R([3]), R([4]))), ((1, 1), T(R([5]))),
        ))
        report = verify_condition4(ShrinkWrapper(w.scope, {**w.families, (2, 1): fam}, w.isolated))
        assert report == WrapperReport(False, (
            Violation("4", 2, 1, (0, 0), None, "words sharing a tree need an isolated singleton"),
            Violation(
                "4", 2, 1, (0, 0), (1, 0),
                "distinct trees of one index overlap without being isolated",
            ),
        ))


def rand_law1_wrapper(rng: random.Random) -> tuple[ShrinkWrapper, list[UPReal]]:
    """A total wrapper of width at most 6 with random class partitions and
    trees of up to 10 branches over up to 8 letters, so that some break the
    growth allowance at low indices and some obey it."""
    n_reals = rng.randint(2, 5)
    scope = WrapperScope(n_reals, rng.randint(1, min(7, n_reals * (n_reals - 1) // 2)))
    families = {}
    for nt, a, b in scope.pairs():
        for n in (a, b):
            classes = [()]
            for _ in range(rng.randrange(nt + 1)):
                p = rng.choice([p for p in classes if len(p) < nt])
                classes.remove(p)
                classes += [p + (0,), p + (1,)]
            leaves = [
                (p, rand_branch_tree(rng, rng.choice((1, 3, 10)), rng.choice((2, 4, 8))))
                for p in classes
            ]
            families[(nt, n)] = TreeFamily(nt, tuple(leaves))
    xs = [rand_upreal(rng) for _ in range(n_reals)]
    return ShrinkWrapper(scope, families, tuple(frozenset() for _ in xs)), xs


class TestLaw1Oracle:
    def test_random_families_match_the_word_scan(self):
        rng = random.Random(1401)
        broken = obeying = 0
        for _ in range(150):
            w, xs = rand_law1_wrapper(rng)
            got = [
                (v.ntilde, v.n, v.s1, v.reason)
                for v in verify_wrapper(w, xs).violations
                if v.condition == "1"
            ]
            want = naive_law1(w)
            assert got == [
                (nt, n, word, f"tree exceeds the growth allowance at index {index}")
                for nt, n, word, index in want
            ]
            classes = sum(len(fam.leaves) for fam in w.families.values())
            broken += len(want)
            obeying += classes - len(want)
        assert broken >= 50 and obeying >= 50


def rand_shared_tree_wrapper(rng: random.Random) -> tuple[ShrinkWrapper, list[UPReal]]:
    """A total wrapper like :func:`rand_law1_wrapper` whose families draw
    their trees from three.  One has 2**width + r + a values at level 0, for
    the smaller index a and some 0 < r < 2**width, so it breaks law 1 at
    the words below r and obeys it from r on; it often spans several
    classes."""
    n_reals = rng.randint(2, 4)
    scope = WrapperScope(n_reals, rng.randint(1, min(5, n_reals * (n_reals - 1) // 2)))
    families = {}
    for nt, a, b in scope.pairs():
        wide = (1 << nt) + rng.randint(1, max(1, (1 << nt) - 1)) + a
        trees = [rand_branch_tree(rng, 1, 2), rand_branch_tree(rng, 3, 4), T(*(R([k]) for k in range(wide)))]
        for n in (a, b):
            classes = [()]
            for _ in range(rng.randrange(1 << nt)):
                p = rng.choice([p for p in classes if len(p) < nt])
                classes.remove(p)
                classes += [p + (0,), p + (1,)]
            picks = rng.choices(trees, (1, 1, 3), k=len(classes))
            families[(nt, n)] = TreeFamily(nt, tuple(zip(classes, picks)))
    xs = [rand_upreal(rng) for _ in range(n_reals)]
    return ShrinkWrapper(scope, families, tuple(frozenset() for _ in xs)), xs


class TestLaw1PerTree:
    def test_reports_match_the_word_by_word_oracle(self):
        rng = random.Random(2407)
        seen = Counter()
        for _ in range(200):
            w, xs = rand_shared_tree_wrapper(rng)
            report = verify_wrapper(w, xs)
            assert report == naive_verify_wrapper(w, xs)
            rows = Counter((v.ntilde, v.n) for v in report.violations if v.condition == "1")
            for (nt, n), fam in w.families.items():
                for tree in fam.distinct_trees():
                    # The growth index of each class's all-zero tail.
                    tails = [
                        (1 << nt) - 1 + int("".join(map(str, p)) or "0", 2) * 2 ** (nt - len(p)) + n
                        for p, t in fam.leaves if t == tree
                    ]
                    broken = sum(not tree.obeys(i) for i in tails)
                    seen["broken at several classes"] += broken >= 2
                    seen["broken at some classes only"] += 0 < broken < len(tails)
            seen["law-1 rows"] += sum(rows.values())
        assert min(seen.values()) >= 20, seen


class TestViolationWords:
    def test_every_violation_word_is_an_int_tuple(self):
        rng = random.Random(1903)
        seen = Counter()
        for _ in range(120):
            w, xs = rand_law1_wrapper(rng)
            for report in (verify_wrapper(w, xs), verify_condition4(w)):
                for v in report.violations:
                    for word in (v.s1, v.s2):
                        if word is not None:
                            assert type(word) is tuple, v
                            assert {type(b) for b in word} <= {int}, v
                            assert len(word) == v.ntilde, v
                            seen[v.condition] += 1
        assert set(seen) == {"1", "3", "4"} and min(seen.values()) > 20, seen


def rand_oracle_case(rng: random.Random) -> tuple[ShrinkWrapper, list[UPReal]]:
    """A direct or padded wrapper over at most 4 points, so every width is at
    most 5, often with some families, isolated sets or points replaced by
    random ones over a small pool, which breaks every law in both ways."""
    xs = [rand_upreal(rng, alphabet=3, max_prefix=3, max_period=2) for _ in range(rng.randint(2, 4))]
    decoys = [rand_upreal(rng, alphabet=3, max_prefix=3, max_period=2) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.25:
        w = build_wrapper(xs)
    else:
        w = build_padded_wrapper(xs, decoys=decoys, seed=rng.randrange(1000))
    pool = (xs + decoys)[:6]
    families, isolated = dict(w.families), list(w.isolated)
    # Replaced families share three trees, so equal tree pairs are common.
    trees = [T(*rng.sample(pool, rng.randint(1, min(4, len(pool))))) for _ in range(3)]
    for key in rng.sample(sorted(families), rng.randint(0, min(3, len(families)))):
        table = {(): None}
        for _ in range(rng.randrange(key[0] + 1)):
            p = rng.choice([p for p in table if len(p) < key[0]])
            del table[p]
            table.update({p + (0,): None, p + (1,): None})
        families[key] = TreeFamily(key[0], tuple((p, rng.choice(trees)) for p in table))
    for n in range(len(xs)):
        if rng.random() < 0.2:
            isolated[n] = frozenset(rng.sample(pool, rng.randrange(3)))
    points = list(xs)
    if rng.random() < 0.2:
        points[rng.randrange(len(xs))] = rng.choice(pool)
    return ShrinkWrapper(w.scope, families, tuple(isolated)), points


class TestVerifierOracle:
    def test_reports_match_the_word_by_word_oracle(self):
        rng = random.Random(2101)
        seen = Counter()
        for _ in range(200):
            w, xs = rand_oracle_case(rng)
            for got, want in (
                (verify_wrapper(w, xs), naive_verify_wrapper(w, xs)),
                (verify_condition4(w), naive_condition4(w)),
            ):
                assert got == want
                seen.update((v.condition, v.reason[:20]) for v in got.violations)
                seen["passed"] += got.passed
        assert len(seen) == 7 and min(seen.values()) >= 10, seen


class TestScopeClosedForms:
    def test_scopes_match_the_pair_enumeration(self):
        for n_reals in range(14):
            full = n_reals * (n_reals - 1) // 2
            every = {(a, b) for b in range(n_reals) for a in range(b)}
            smallest = None
            for n_pairs in range(full + 5):
                scope = WrapperScope(n_reals, n_pairs)
                named = [pair_of(nt) for nt in range(n_pairs)]
                covers = every <= set(named)
                assert scope.covers_all_pairs() == covers
                if covers and smallest is None:
                    smallest = n_pairs
                outside = [(nt, b) for nt, (_, b) in enumerate(named) if b >= n_reals]
                if outside:
                    nt, b = outside[0]
                    message = f"pair position {nt} names index {b} outside [0, {n_reals})"
                    with pytest.raises(ValueError) as e:
                        scope.validate()
                    assert str(e.value) == message
                else:
                    scope.validate()
            assert full_scope(n_reals) == WrapperScope(n_reals, smallest)

    def test_empty_and_single_index_scopes(self):
        for n_reals in (0, 1):
            assert full_scope(n_reals) == WrapperScope(n_reals, 0)
            with pytest.raises(ValueError) as e:
                WrapperScope(n_reals, 1).validate()
            assert str(e.value) == f"pair position 0 names index 1 outside [0, {n_reals})"


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

    def test_padded_passes_verifiers_and_actually_pads(self, monkeypatch):
        splits = []
        cone_cutter = wrapper._cone_cutter

        def counting(values):
            cone_split = cone_cutter(values)

            def split(*args):
                splits.append(args)
                return cone_split(*args)

            return split

        monkeypatch.setattr(wrapper, "_cone_cutter", counting)
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
        assert splits  # the collision path ran under both verifiers

    def test_padded_deterministic_for_seed(self):
        rng = random.Random(11)
        xs = [rand_upreal(rng) for _ in range(4)]
        decoys = [rand_upreal(rng) for _ in range(5)]
        assert build_padded_wrapper(xs, decoys=decoys, seed=7) == build_padded_wrapper(
            xs, decoys=decoys, seed=7
        )

    def test_draws_follow_the_random_stream(self):
        """Each word and pool permutation the builder draws equals what
        randrange(2) and shuffle draw from the same generator, and leaves it
        in the same state."""
        control = random.Random(1901)
        for seed in range(300):
            old, new = random.Random(seed), random.Random(seed)
            for _ in range(6):
                width = control.randrange(65)
                word = wrapper._draw_bits(new.getrandbits, 2 * width)
                assert word == bytes(naive_draw_word(old, width) + naive_draw_word(old, width))
                size = control.randrange(26)
                pool = list(range(size))
                mine = list(pool)
                wrapper._shuffle(new.getrandbits, mine)
                assert mine == naive_shuffle(old, pool)
                assert new.getstate() == old.getstate()

    def test_padded_build_matches_first_version(self):
        """The builder against its first version, which scans the pool by
        membership and draws through randrange, shuffle and choice: the
        same artifact bytes, over repeated points, pools small enough to
        leave no filler candidate and pools that leave choice two or more."""
        rng = random.Random(1902)
        seen = Counter()
        for trial in range(60):
            xs = [rand_upreal(rng, alphabet=3) for _ in range(rng.randrange(2, 8))]
            if trial % 3 == 0:
                xs[-1] = xs[0]
                seen["repeated point"] += 1
            decoys = [rand_upreal(rng, alphabet=3) for _ in range(rng.choice((1, 2, 6, 20)))]
            if trial % 4 == 0:
                decoys.append(xs[1])  # a decoy equal to a point leaves the pool
            seed = rng.randrange(1 << 31)
            got = build_padded_wrapper(xs, decoys=decoys, seed=seed)
            want = naive_build_padded_wrapper(xs, decoys, seed)
            assert encode(got) == encode(want), (trial, seed)
            values = max(max(x.prefix + x.period) for x in (*xs, *decoys))
            fillers = {y for part in got.isolated for y in part} - set(xs)
            seen["fresh filler"] += any(max(y.period) > values for y in fillers)
            seen["pool filler"] += any(y in decoys for y in fillers)
            # The filler is one candidate; a pool value free of every tree of
            # a pair position, the filler's included, makes a second.
            pool = set(decoys) - set(xs)
            seen["filler choice"] += any(
                pool.difference(*(
                    t.branches for n in pair_of(nt) for t in got.families[(nt, n)].distinct_trees()
                ))
                for nt in range(1, got.scope.n_pairs)
            )
        assert min(seen.values()) >= 10, seen

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
    """The stem separation ``build_padded_wrapper`` applies when two padded
    trees collide."""

    def test_results_sit_in_incomparable_cones(self):
        rng = random.Random(77)
        for _ in range(100):
            t1 = BranchTree(frozenset(rand_upreal(rng) for _ in range(rng.randrange(1, 4))))
            t2 = BranchTree(frozenset(rand_upreal(rng) for _ in range(rng.randrange(1, 4))))
            x, y = rng.choice(t1.sorted_branches()), rng.choice(t2.sorted_branches())
            if x == y:
                continue
            r1, r2 = wrapper._cone_cutter(t1.branches | t2.branches)(t1, t2, x, y)
            assert x in r1.branches <= t1.branches
            assert y in r2.branches <= t2.branches
            length = up_first_diff(x, y) + 1
            assert r1 == t1.restrict(x.initial_segment(length))
            assert r2 == t2.restrict(y.initial_segment(length))
            # below incomparable nodes every cross pair splits at one level
            diffs = {up_first_diff(u, v) for u in r1.branches for v in r2.branches}
            assert diffs == {up_first_diff(x, y)}


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
