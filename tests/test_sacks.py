"""Horizon trees, refinement maps, and the fusion chain machinery."""

from __future__ import annotations

import itertools
import random

import pytest

from gen import (
    naive_branching,
    naive_branching_nodes,
    naive_gap,
    naive_hpt_check,
    naive_leq_n,
    naive_orders,
    naive_stem,
    rand_hpt,
    rand_rmap,
)
from shrinkwrap.codec import decode, encode
from shrinkwrap.sacks import (
    MAX_HORIZON,
    FusionReport,
    HorizonPerfectTree,
    RMap,
    fusion_intersect,
    fusion_union,
    hpt_leq_n,
    stem_or_path,
    verify_fusion_helper,
)


def single_path(horizon, path=()):
    """Branchless tree following ``path`` then all zeros."""
    bits = tuple(path) + (0,) * (horizon - len(path))
    return HorizonPerfectTree(
        horizon, frozenset(bits[:l] for l in range(horizon + 1))
    )


def stem_then_full(horizon, stem):
    full = HorizonPerfectTree.full(horizon)
    return full.below(tuple(stem))


class TestHorizonPerfectTree:
    def test_full_tree_size(self):
        p = HorizonPerfectTree.full(3)
        assert len(p.nodes) == 15
        assert p.paths() == frozenset(itertools.product((0, 1), repeat=3))

    def test_prefix_closure_required(self):
        with pytest.raises(ValueError):
            HorizonPerfectTree(2, frozenset({(), (0, 1)}))

    def test_extendibility_required(self):
        # (1,) stops short of the horizon
        with pytest.raises(ValueError):
            HorizonPerfectTree(2, frozenset({(), (0,), (1,), (0, 0)}))

    @pytest.mark.parametrize(
        "horizon, nodes",
        [
            (2, set()),
            (2, {(), (0,), (0, 0), (1, 1)}),
            (2, {(), (0,), (1,), (0, 0), (0, 1)}),
            (2, {(), (0,), (2,), (0, 0), (2, 0)}),
            (1, {(), (0,), (1,), (1, 0)}),
            (-1, {()}),
            (MAX_HORIZON + 1, {()}),
        ],
        ids=[
            "empty", "missing-parent", "broken-promise", "non-binary",
            "past-horizon", "negative-horizon", "horizon-past-the-cap",
        ],
    )
    def test_malformed_trees_rejected(self, horizon, nodes):
        with pytest.raises(ValueError):
            HorizonPerfectTree(horizon, frozenset(nodes))

    def test_horizon_cap(self):
        # Masks take 2**horizon bits, so a large horizon is refused before
        # anything is allocated, however few nodes the tree has.
        message = f"horizon {10**9} is above the supported {MAX_HORIZON}"
        for build in (
            lambda: HorizonPerfectTree(10**9, {()}),
            lambda: HorizonPerfectTree(10**9, levels=(1,)),
            lambda: HorizonPerfectTree.full(10**9),
        ):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message
        p = single_path(MAX_HORIZON, (1,))
        assert p.gap() == MAX_HORIZON + 1 and len(p.nodes) == MAX_HORIZON + 1
        assert stem_or_path(p) == (1,) + (0,) * (MAX_HORIZON - 1)

    def test_binary_words_required(self):
        with pytest.raises(ValueError):
            HorizonPerfectTree(2, frozenset({(), (2,), (2, 0)}))
        with pytest.raises(ValueError):
            HorizonPerfectTree(1, frozenset({(), (0,), (0, 0)}))

    def test_below_keeps_comparables(self):
        p = HorizonPerfectTree.full(3)
        q = p.below((0, 1))
        assert q.nodes == frozenset(
            {(), (0,), (0, 1), (0, 1, 0), (0, 1, 1)}
        )
        with pytest.raises(ValueError):
            p.below((0, 1, 0, 1))

    def test_gap_of_full_tree_is_one(self):
        assert HorizonPerfectTree.full(4).gap() == 1

    def test_gap_of_branchless_tree_spans_the_horizon(self):
        assert single_path(3).gap() == 4

    def test_gap_sees_the_last_split(self):
        # splits at the root only; below that, single paths of length 2
        p = HorizonPerfectTree(
            3,
            frozenset(
                {(), (0,), (1,), (0, 0), (1, 1), (0, 0, 0), (1, 1, 0)}
            ),
        )
        assert p.gap() == 3


class TestStem:
    def test_full_tree_stems_at_the_root(self):
        p = HorizonPerfectTree.full(3)
        assert stem_or_path(p) == ()
        assert p.is_branching(())

    def test_fixed_prefix_then_full(self):
        p = stem_then_full(4, (0, 1))
        assert stem_or_path(p) == (0, 1)
        assert p.is_branching((0, 1))

    def test_branchless_tree_has_a_path_but_no_stem(self):
        p = single_path(3, (1, 0))
        assert stem_or_path(p) == (1, 0, 0)
        assert not p.is_branching((1, 0, 0))

    def test_matches_the_node_set_oracle(self):
        rng = random.Random(2601)
        for trial in range(300):
            horizon = rng.randrange(MAX_HORIZON // 2)
            p = rand_hpt(rng, horizon, skip_chance=rng.choice((0.45, 0.8, 0.95)))
            assert stem_or_path(p) == naive_stem(p)


def cut(p, nodes):
    """p without the subtree below the 1-child of each given branching node."""
    gone = {t + (1,) for t in nodes}
    lengths = {len(t) for t in gone}
    return HorizonPerfectTree(
        p.horizon, frozenset(s for s in p.nodes if not any(s[:i] in gone for i in lengths))
    )


def order_of(p, t):
    """The number of branching proper initial segments of t, read through
    hpt_leq_n: the least n at which losing one of t's splits breaks it."""
    q = cut(p, [t])
    return next(n for n in range(len(t) + 1) if not hpt_leq_n(q, p, n))


class TestBranchingNodes:
    def test_full_depth_three(self):
        p = HorizonPerfectTree.full(3)
        orders = {t: order_of(p, t) for t in p.branching_nodes()}
        assert orders == {
            (): 0, (0,): 1, (1,): 1, **dict.fromkeys(itertools.product((0, 1), repeat=2), 2)
        }

    def test_stem_tree(self):
        p = stem_then_full(3, (0,))
        assert order_of(p, (0,)) == 0
        assert not p.is_branching(())

    def test_orders_partition_the_branching_nodes(self):
        rng = random.Random(5)
        for _ in range(20):
            p = rand_hpt(rng, 8)
            orders = naive_orders(p)
            assert {t: order_of(p, t) for t in p.branching_nodes()} == orders
            for k in range(9):
                # keeping every split of order k passes at k, whatever goes below
                deeper = [t for t, order in orders.items() if order == k + 1]
                assert hpt_leq_n(cut(p, deeper), p, k)


class TestLeqN:
    def test_reflexive(self):
        rng = random.Random(6)
        for _ in range(10):
            p = rand_hpt(rng, 6)
            assert hpt_leq_n(p, p, rng.randrange(5))

    def test_cutting_the_root_split_breaks_order_zero(self):
        p = HorizonPerfectTree.full(3)
        q = p.below((0,))
        assert not hpt_leq_n(q, p, 0)

    def test_thinning_deeper_levels_breaks_higher_orders_only(self):
        p = HorizonPerfectTree.full(3)
        q = HorizonPerfectTree(
            3, frozenset(t for t in p.nodes if t[:2] != (0, 0))
        )
        assert hpt_leq_n(q, p, 0)
        assert not hpt_leq_n(q, p, 1)  # (0,) no longer splits

    def test_non_subset_fails(self):
        p = HorizonPerfectTree.full(2).below((0,))
        q = HorizonPerfectTree.full(2)
        assert not hpt_leq_n(q, p, 0)

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hpt_leq_n(HorizonPerfectTree.full(2), HorizonPerfectTree.full(3), 0)


def single_random_path(rng, horizon):
    return single_path(horizon, [rng.randrange(2) for _ in range(horizon)])


def pruned(rng, p):
    """A subtree of p keeping one child of some branching nodes."""
    nodes = set()
    stack = [()]
    while stack:
        t = stack.pop()
        nodes.add(t)
        kids = p.children(t)
        if len(kids) == 2 and rng.random() < 0.3:
            kids = (rng.choice(kids),)
        stack.extend(kids)
    return HorizonPerfectTree(p.horizon, frozenset(nodes))


class TestAgainstWholeTreeRecounts:
    """The bounded walks and the prefix-closure gap against the old
    whole-tree recounts, kept in ``gen`` as oracles."""

    def test_random_trees(self):
        rng = random.Random(41)
        for _ in range(1000):
            horizon = rng.randrange(9)
            shape = rng.randrange(4)
            if shape == 0:
                p = single_random_path(rng, horizon)
            else:
                p = rand_hpt(rng, horizon, skip_chance=rng.choice((0.0, 0.45, 0.9)))
            if shape == 3:
                p = p.below(rng.choice(sorted(p.nodes)))
            assert p.gap() == naive_gap(p)
            others = (
                p,
                p.below(rng.choice(sorted(p.nodes))),
                pruned(rng, p),
                single_random_path(rng, horizon),
                rand_hpt(rng, horizon),
            )
            for n in range(-1, 6):
                for q in others:
                    assert hpt_leq_n(q, p, n) == naive_leq_n(q, p, n)

    def test_negative_orders_see_nothing(self):
        p = HorizonPerfectTree.full(3)
        assert hpt_leq_n(p.below((0,)), p, -1)
        assert not hpt_leq_n(p, p.below((0,)), -1)


def corrupted(rng, horizon, nodes):
    """A valid node set, or one with a fault of a kind chosen at random."""
    nodes = set(nodes)
    kind = rng.randrange(7)
    inner = sorted(t for t in nodes if len(t) < horizon)
    if kind == 1 and len(nodes) > 1:  # a node's parent dropped
        nodes.discard(rng.choice(sorted(t for t in nodes if t))[:-1])
    elif kind == 2 and inner:  # both children of an inner node dropped
        t = rng.choice(inner)
        nodes -= {t + (0,), t + (1,)}
    elif kind == 3:  # a word past the horizon
        nodes.add(rng.choice(sorted(t for t in nodes if len(t) == horizon)) + (rng.randrange(2),))
    elif kind == 4 and len(nodes) > 1:  # a bit 2 anywhere in one word
        t = rng.choice(sorted(t for t in nodes if t))
        nodes.remove(t)
        i = rng.randrange(len(t))
        nodes.add(t[:i] + (2,) + t[i + 1:])
    elif kind == 5:
        nodes = set()
    elif kind == 6:  # bits written as bools or floats, which equal 0 and 1
        nodes = {tuple(map(rng.choice((bool, float)), t)) for t in nodes}
    return frozenset(nodes)


def verdict(build):
    try:
        return build()
    except ValueError as e:
        return str(e)


class TestConstructorAgainstOracle:
    """The level-mask constructor and set operations against the set-based
    checks kept in ``gen`` and plain frozenset operations."""

    def test_node_sets_and_level_masks(self):
        rng = random.Random(81)
        accepted = rejected = 0
        for _ in range(2400):
            horizon = rng.randrange(7)
            nodes = corrupted(rng, horizon, rand_hpt(rng, horizon, rng.random()).nodes)
            expected = verdict(lambda: naive_hpt_check(horizon, nodes))
            got = verdict(lambda: HorizonPerfectTree(horizon, nodes))
            if expected is None:
                assert isinstance(got, HorizonPerfectTree)
                assert got.nodes == nodes
                accepted += 1
            else:
                assert got == expected
                rejected += 1
            if all(len(t) <= horizon and set(t) <= {0, 1} for t in nodes):
                # the same masks handed over directly get the same checks
                masks = level_masks(horizon, nodes)
                got = verdict(lambda: HorizonPerfectTree(horizon, levels=masks))
                assert got == expected if expected else got.nodes == nodes
        assert accepted > 500 and rejected > 1000

    @pytest.mark.parametrize(
        "nodes, message",
        [
            # (0, 1, 0) and (1, 0, 0) lack parents; indices 2 and 1
            ({(), (0,), (0, 0), (0, 0, 0), (0, 1, 0), (1, 0, 0)},
             "node (1, 0, 0) is missing its parent"),
            # (0, 1) has no child (index 2), (1, 1) no parent (index 3)
            ({(), (0,), (0, 0), (0, 0, 0), (0, 1), (1, 1), (1, 1, 0)},
             "node (0, 1) breaks the extendibility promise"),
            # (1, 0) has no parent (index 1), (0, 1) no child (index 2)
            ({(), (0,), (0, 0), (0, 0, 0), (0, 1), (1, 0), (1, 0, 0)},
             "node (1, 0) is missing its parent"),
            ({(), (0,), (0, 0), (0, 2)}, "nodes must be binary words within the horizon"),
        ],
    )
    def test_messages_name_the_shortest_then_lowest_fault(self, nodes, message):
        with pytest.raises(ValueError) as err:
            HorizonPerfectTree(3, nodes)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            naive_hpt_check(3, nodes)
        assert str(err.value) == message

    def test_operations_match_frozensets(self):
        rng = random.Random(82)
        for _ in range(300):
            horizon = rng.randrange(8)
            p = rand_hpt(rng, horizon, rng.random())
            q = rng.choice(
                (rand_hpt(rng, horizon), pruned(rng, p), p.below(rng.choice(sorted(p.nodes))))
            )
            union = fusion_union(RMap(1, {(): p, (0,): p, (1,): q}), 1)
            assert union.nodes == p.nodes | q.nodes
            assert hpt_leq_n(q, p, -1) == (q.nodes <= p.nodes)
            if naive_leq_n(q, p, 0):
                assert fusion_intersect([p, q]).nodes == p.nodes & q.nodes
            else:
                with pytest.raises(ValueError, match="link 0"):
                    fusion_intersect([p, q])
            assert p.branching_nodes() == naive_branching(p.nodes)
            assert p.gap() == naive_gap(p)
            assert p.paths() == frozenset(t for t in p.nodes if len(t) == horizon)
            t = rng.choice(sorted(p.nodes))
            cone = frozenset(u for u in p.nodes if u[: len(t)] == t or t[: len(u)] == u)
            assert p.below(t).nodes == cone
            for u in (t, t + (0,), t + (1,), t + (2,)):
                assert p.children(u) == tuple(v for v in (u + (0,), u + (1,)) if v in p.nodes)

    @pytest.mark.parametrize(
        "horizon, levels, message",
        [
            (2, (1, 3), "one level mask per length"),
            (2, (1, 3, 15, 255), "one level mask per length"),
            (1, (1, 0b111), "level 1 has bits past its 2 words"),
            (1, (1, -1), "level 1 has bits past its 2 words"),
            (0, (0,), "must contain the root"),
        ],
        ids=["too-few", "too-many", "bit-past-the-level", "negative", "no-root"],
    )
    def test_malformed_masks_rejected(self, horizon, levels, message):
        with pytest.raises(ValueError, match=message):
            HorizonPerfectTree(horizon, levels=levels)

    def test_nodes_is_read_only(self):
        p = HorizonPerfectTree.full(2)
        with pytest.raises(AttributeError):
            p.nodes = frozenset({()})
        assert p == HorizonPerfectTree(2, p.nodes) and hash(p) == hash(HorizonPerfectTree.full(2))


class TestRMap:
    def test_needs_every_word(self):
        full = HorizonPerfectTree.full(4)
        with pytest.raises(ValueError):
            RMap(1, {(): full, (0,): full})
        # the right count of words, with (2,) in place of (1,)
        with pytest.raises(ValueError) as e:
            RMap(1, {(): full, (0,): full, (2,): full})
        assert str(e.value) == "need exactly one tree per word up to the depth"

    @pytest.mark.parametrize("zero, one", [(False, True), (0.0, 1.0)])
    def test_words_equal_to_int_words_are_stored_as_them(self, zero, one):
        p = HorizonPerfectTree.full(2)
        ints = RMap(1, {(): p, (0,): p.below((0,)), (1,): p.below((1,))})
        other = RMap(1, {(): p, (zero,): p.below((0,)), (one,): p.below((1,))})
        assert {type(b) for word in other.trees for b in word} == {int}
        assert encode(other) == encode(ints)
        assert decode(encode(other), "rmap") == ints == other

    def test_needs_one_horizon(self):
        with pytest.raises(ValueError):
            RMap(1, {
                (): HorizonPerfectTree.full(3),
                (0,): HorizonPerfectTree.full(3),
                (1,): HorizonPerfectTree.full(4),
            })

    def test_lookup(self):
        rng = random.Random(7)
        rmap = rand_rmap(rng, 2, 8)
        assert rmap.at((0, 1)).nodes <= rmap.at((0,)).nodes
        with pytest.raises(ValueError):
            rmap.at((0, 1, 0))


class TestFusionUnion:
    def test_constant_map_returns_the_root_tree(self):
        full = HorizonPerfectTree.full(3)
        rmap = RMap(1, {(): full, (0,): full, (1,): full})
        assert fusion_union(rmap, 0) == full
        assert fusion_union(rmap, 1) == full

    def test_union_contains_both_stems(self):
        rng = random.Random(8)
        rmap = rand_rmap(rng, 1, 8)
        p1 = fusion_union(rmap, 1)
        assert stem_or_path(rmap.at((0,))) in p1.nodes
        assert stem_or_path(rmap.at((1,))) in p1.nodes

    def test_levels_shrink(self):
        rng = random.Random(9)
        for _ in range(10):
            rmap = rand_rmap(rng, 3, 10)
            unions = [fusion_union(rmap, n) for n in range(4)]
            for small, big in zip(unions[1:], unions):
                assert small.nodes <= big.nodes

    def test_level_bounds(self):
        rmap = rand_rmap(random.Random(10), 2, 8)
        with pytest.raises(ValueError):
            fusion_union(rmap, 3)
        with pytest.raises(ValueError):
            fusion_union(rmap, -1)


class TestVerifyFusionHelper:
    def test_generated_maps_pass(self):
        rng = random.Random(11)
        for _ in range(25):
            report = verify_fusion_helper(rand_rmap(rng, 4, 12))
            assert report.passed, report.failures
            assert len(report.chain) == 5

    def test_equal_successor_stems_reported(self):
        full = HorizonPerfectTree.full(4)
        sub = full.below((0,))
        rmap = RMap(1, {(): full, (0,): sub, (1,): sub})
        report = verify_fusion_helper(rmap)
        assert not report.passed
        assert any("stems" in f for f in report.failures)

    def test_non_monotone_reported(self):
        full = HorizonPerfectTree.full(4)
        rmap = RMap(1, {(): full.below((0,)), (0,): full.below((0, 0)), (1,): full})
        report = verify_fusion_helper(rmap)
        assert not report.passed
        assert any("refinement" in f for f in report.failures)

    def test_comparable_but_unequal_stems_reported(self):
        full = HorizonPerfectTree.full(4)
        rmap = RMap(
            1, {(): full, (0,): full.below((0,)), (1,): full.below((0, 1))}
        )
        report = verify_fusion_helper(rmap)
        assert not report.passed
        assert any("stems" in f for f in report.failures)


    def test_level_union_outside_the_root_reported(self):
        """The chain laws re-check what the refinement and stem laws give,
        so this message never fires alone: a child that leaves the root's
        tree is a refinement failure first."""
        full = HorizonPerfectTree.full(4)
        rmap = RMap(1, {(): full.below((0,)), (0,): full.below((0, 0)), (1,): full.below((1,))})
        assert verify_fusion_helper(rmap).failures == (
            "not a refinement of its parent at word (1,)",
            "level union 1 is not contained in level union 0",
        )

    def test_level_union_losing_early_branching_reported(self):
        """As above, this chain message comes only with a law failure: both
        children of (1,) lie under (0,), which (1,)'s tree excludes, so the
        level-2 union no longer branches at the root."""
        full = HorizonPerfectTree.full(4)
        rmap = RMap(2, {
            (): full,
            (0,): full.below((0,)),
            (1,): full.below((1,)),
            (0, 0): full.below((0, 0)),
            (0, 1): full.below((0, 1)),
            (1, 0): full.below((0, 0, 0)),
            (1, 1): full.below((0, 0, 1)),
        })
        assert verify_fusion_helper(rmap).failures == (
            "not a refinement of its parent at word (1, 0)",
            "not a refinement of its parent at word (1, 1)",
            "level union 2 does not keep the early branching of 1",
        )


def lcp(u, v):
    out = []
    for a, b in zip(u, v):
        if a != b:
            break
        out.append(a)
    return tuple(out)


class TestLargestCommonSegmentClaim:
    def test_branching_nodes_come_from_successor_stems(self):
        rng = random.Random(12)
        for _ in range(10):
            rmap = rand_rmap(rng, 4, 12)
            report = verify_fusion_helper(rmap)
            assert report.passed
            for n in range(1, rmap.depth + 1):
                p_n = report.chain[n]
                for k in range(n):
                    meets = {
                        lcp(
                            stem_or_path(rmap.at(s + (0,))),
                            stem_or_path(rmap.at(s + (1,))),
                        )
                        for s in itertools.product((0, 1), repeat=k)
                    }
                    for t in naive_branching_nodes(p_n, k):
                        assert t in meets


def level_masks(horizon, nodes):
    """One mask per length: bit sum(w[k] << k) is set for each node w."""
    levels = [0] * (horizon + 1)
    for t in nodes:
        levels[len(t)] |= 1 << sum(int(b) << k for k, b in enumerate(t))
    return tuple(levels)


def forged_tree(horizon, nodes):
    """A tree object that skipped the constructor's checks: its level
    masks are set straight from the node set."""
    p = object.__new__(HorizonPerfectTree)
    object.__setattr__(p, "horizon", horizon)
    object.__setattr__(p, "levels", level_masks(horizon, nodes))
    return p


def stored_splits(p):
    """The split masks the constructor left on p, or None if it left none."""
    return p.__dict__.get("splits")


class TestSplitMasks:
    """The branching-node masks a tree keeps, one per length, against the
    set-based branching nodes of ``gen``."""

    def expected(self, p):
        return level_masks(p.horizon, naive_branching(p.nodes))

    def test_every_construction_keeps_the_oracle_masks(self):
        rng = random.Random(171)
        kinds = set()
        for _ in range(150):
            horizon = rng.randrange(9)
            p = rand_hpt(rng, horizon, rng.random())
            q = pruned(rng, p)
            built = {
                "nodes": p,
                "levels": HorizonPerfectTree(horizon, levels=p.levels),
                "full": HorizonPerfectTree.full(horizon),
                "below": p.below(rng.choice(sorted(p.nodes))),
                "union": fusion_union(RMap(1, {(): p, (0,): p, (1,): q}), 1),
            }
            if hpt_leq_n(q, p, 0):
                built["intersect"] = fusion_intersect([p, q])
            rmap = rand_rmap(rng, 3, max(horizon, 6))
            report = verify_fusion_helper(rmap)
            built["rmap"] = rmap.at(rng.choice(sorted(rmap.trees)))
            built["chain"] = report.chain[-1]
            built["chain intersect"] = fusion_intersect(report.chain[1:])
            for kind, tree in built.items():
                stored = stored_splits(tree)
                assert stored == self.expected(tree), kind
                assert stored == type(tree).splits.func(tree), kind
                kinds.add(kind)
        assert len(kinds) == 9

    def test_forged_tree_computes_them_on_first_read(self):
        nodes = {(), (0,), (1,), (0, 0), (0, 1), (1, 1)}
        p = forged_tree(2, nodes)
        assert stored_splits(p) is None
        assert p.splits == (1, 1, 0) == self.expected(HorizonPerfectTree(2, nodes))
        assert stored_splits(p) == (1, 1, 0)


class TestBrokenTreeInAMap:
    def test_union_revalidates_every_tree(self):
        full = HorizonPerfectTree.full(2)
        # (1,) breaks the extendibility promise
        broken = forged_tree(2, {(), (0,), (1,), (0, 0), (0, 1)})
        rmap = RMap(1, {(): full, (0,): full.below((0,)), (1,): broken})
        assert fusion_union(rmap, 0) == full
        with pytest.raises(ValueError, match="extendibility"):
            fusion_union(rmap, 1)
        with pytest.raises(ValueError, match="extendibility"):
            verify_fusion_helper(rmap)


class TestFusionIntersect:
    def test_constant_chain(self):
        p = HorizonPerfectTree.full(3)
        assert fusion_intersect([p, p, p]) == p

    def test_helper_chains_collapse_to_the_last_link(self):
        rng = random.Random(13)
        for _ in range(10):
            report = verify_fusion_helper(rand_rmap(rng, 4, 12))
            assert report.passed
            tail = report.chain[1:]
            out = fusion_intersect(tail)
            assert out is tail[-1]
            for p in tail:
                assert out.nodes <= p.nodes
            assert out.gap() <= max(p.gap() for p in tail)

    def test_broken_chain_rejected(self):
        p = HorizonPerfectTree.full(3)
        with pytest.raises(ValueError):
            fusion_intersect([p, p.below((0,))])  # loses the root split

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            fusion_intersect([])
