"""Silver trees, subtree surgery, and the obstruction sweep."""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
import tracemalloc
from math import comb

import pytest

from gen import (
    naive_clause_counts,
    naive_sort_key,
    naive_sv_validate,
    rand_hpt,
    rand_silver,
    rand_upreal,
)
from shrinkwrap.codec import decode, encode
from shrinkwrap.core import ZERO, UPReal, up_eval, up_first_diff
from shrinkwrap.silver import (
    BruteSummary,
    GroundUniverse,
    SilverTree,
    _clause_counts,
    _violated_clause,
    adversarial_pair,
    adversarial_sequence,
    brute_obstruction,
    flatten,
    homogenize,
    obstruct,
    replace_below,
    sv_leftmost,
    sv_validate,
)
from shrinkwrap.wrapper import build_wrapper


def R(prefix, period=(0,)):
    return UPReal(tuple(prefix), tuple(period))


FULL3 = SilverTree(3, frozenset({0, 1, 2}), {})
P6 = SilverTree(6, frozenset({1, 3}), {0: 0, 2: 1, 4: 0, 5: 1})
U6 = R([0, 0, 1, 0, 0, 1])

G8 = GroundUniverse(frozenset({
    ZERO, R([1]), R([0, 1]), R([], (1,)),
    R([0], (1,)), R([1, 1]), R([0, 0, 1]), R([1, 0], (1,)),
}))
G4 = GroundUniverse(frozenset({ZERO, R([1]), R([0, 1]), R([], (1,))}))
G22 = GroundUniverse(frozenset(UPReal.constant(v) for v in range(22)))


class TestValidate:
    def test_full_splitting_is_silver(self):
        assert sv_validate(FULL3)

    def test_rigid_tree_is_silver(self):
        assert sv_validate(SilverTree(3, frozenset(), {0: 0, 1: 0, 2: 0}))

    def test_fixed_value_at_a_split_level(self):
        assert not sv_validate(SilverTree(3, frozenset({1}), {0: 0, 1: 0, 2: 0}))

    def test_missing_fixed_level(self):
        assert not sv_validate(SilverTree(3, frozenset({1}), {0: 0}))

    def test_value_outside_alphabet(self):
        assert not sv_validate(SilverTree(2, frozenset({1}), {0: 2}))

    def test_split_level_between_levels(self):
        # 0.5 is no level, so it cannot be a splitting one.
        assert not sv_validate(SilverTree(1, frozenset({0.5}), {0: 1}))
        assert not sv_validate(SilverTree(3, frozenset({0, 0.5}), {1: 0, 2: 1}))

    def test_split_level_past_horizon(self):
        assert not sv_validate(SilverTree(3, frozenset({3}), {0: 0, 1: 0, 2: 0}))

    def test_negative_horizon(self):
        assert not sv_validate(SilverTree(-1, frozenset(), {}))

    def test_huge_horizon_allocates_nothing(self):
        # A set of every level below the horizon would take 99 MB here.
        p = SilverTree(10**6, frozenset(), {})
        tracemalloc.start()
        try:
            assert not sv_validate(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def validate_cases():
    """Seeded representations, valid and broken one way each, with level
    keys of other types: 2.0 and True equal a level, 0.5 and "a" do not."""
    rng = random.Random(41)
    cases = [
        SilverTree(1, frozenset(), {"a": 0}),
        SilverTree(1, frozenset({0.5}), {0: 1}),
        SilverTree(2, frozenset({0.5}), {0: 1}),
        SilverTree(2, frozenset({1.0}), {0: 1}),
        SilverTree(2, frozenset(), {True: 1, 0: 0}),
        SilverTree(0, frozenset(), {}),
    ]
    for _ in range(300):
        p = rand_silver(rng, rng.randint(1, 9), min_splits=0)
        fixed, levels = dict(p.fixed), set(p.split_levels)
        move = rng.randrange(10)
        if move == 1 and fixed:
            del fixed[rng.choice(sorted(fixed))]
        elif move == 2 and levels:
            fixed[rng.choice(sorted(levels))] = 0
        elif move == 3:
            fixed[rng.choice([-1, p.horizon, p.horizon + 3])] = 1
        elif move == 4 and fixed:
            level = rng.choice(sorted(fixed))
            fixed[rng.choice([float(level), level + 0.5, level - 0.5])] = fixed.pop(level)
        elif move == 5:
            levels.add(rng.choice([-1, p.horizon, 0.5, p.horizon - 0.5]))
        elif move == 6 and fixed:
            fixed[rng.choice(sorted(fixed))] = 2
        elif move == 7:
            p = dataclasses.replace(p, horizon=p.horizon + rng.choice([-1, 1]))
        elif move == 8 and 1 in fixed:
            fixed[True] = fixed.pop(1)
        elif move == 9 and fixed and levels:
            # Right count, wrong levels: a split level fixed in place of another.
            del fixed[rng.choice(sorted(fixed))]
            fixed[rng.choice(sorted(levels))] = 0
        cases.append(SilverTree(p.horizon, frozenset(levels), fixed))
    return cases


def test_validate_matches_the_set_based_check():
    cases = validate_cases()
    assert [p for p in cases if sv_validate(p) != naive_sv_validate(p)] == []
    verdicts = [naive_sv_validate(p) for p in cases]
    assert 50 < sum(verdicts) < len(verdicts) - 50


def test_accepted_representations_work_everywhere():
    # Levels and bits given as floats or booleans that sv_validate accepts
    # are stored as ints, so every consumer of a valid tree can use it.
    cases = validate_cases() + [
        SilverTree(2, frozenset({1.0}), {0: 1}),
        SilverTree(2, frozenset({1}), {0.0: 1}),
        SilverTree(2, frozenset({1}), {0: 1.0}),
        SilverTree(2, frozenset({1}), {0: True}),
    ]
    for p in filter(sv_validate, cases):
        assert len(p.stem()) <= p.horizon
        assert sv_leftmost(p).period == (0,)
        if p.split_levels:
            assert homogenize(p, 0, lambda cone: cone) == p
        assert decode(encode(p), "silver-tree") == p


class TestStemAndNodes:
    def test_stem_stops_at_first_split(self):
        assert P6.stem() == (0,)
        assert FULL3.stem() == ()

    def test_stem_of_rigid_tree_is_the_fixed_word(self):
        p = SilverTree(3, frozenset(), {0: 1, 1: 0, 2: 1})
        assert p.stem() == (1, 0, 1)

    def test_stem_rejects_invalid_representation(self):
        with pytest.raises(ValueError):
            SilverTree(3, frozenset({1}), {0: 0}).stem()

    def test_nodes_within_counts_by_split_history(self):
        nodes = P6.nodes_within()
        assert len(nodes) == 1 + 1 + 2 + 2 + 4 + 4 + 4
        assert (0, 0, 1, 0) in nodes
        assert (1,) not in nodes

    def test_full_tree_nodes(self):
        p = SilverTree(2, frozenset({0, 1}), {})
        assert p.nodes_within() == frozenset(
            tuple(w) for k in range(3) for w in itertools.product((0, 1), repeat=k)
        )


class TestLeftmost:
    def test_full_splitting_leftmost_is_zero(self):
        assert sv_leftmost(FULL3, ()) == ZERO

    def test_two_level_example(self):
        p = SilverTree(2, frozenset({1}), {0: 1})
        lm = sv_leftmost(p, ())
        assert lm == UPReal((1, 0), (0,))
        assert lm.prefix == (1,) and lm.period == (0,)

    def test_node_pins_the_splits_it_crosses(self):
        p = SilverTree(2, frozenset({0, 1}), {})
        assert sv_leftmost(p, (1, 1)) == R([1, 1])

    def test_window_fixture_branches(self):
        assert sv_leftmost(P6, (0, 0)) == U6
        assert sv_leftmost(P6, (0, 1)) == R([0, 1, 1, 0, 0, 1])

    def test_node_contradicting_a_fixed_level(self):
        with pytest.raises(ValueError, match="contradicts"):
            sv_leftmost(P6, (1,))

    def test_node_past_the_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            sv_leftmost(SilverTree(2, frozenset({0, 1}), {}), (0, 0, 0))

    def test_invalid_representation(self):
        with pytest.raises(ValueError, match="valid"):
            sv_leftmost(SilverTree(2, frozenset({1}), {}), ())

    def test_stem_children_agree_except_at_the_stem_length(self):
        rng = random.Random(41)
        for _ in range(50):
            p = rand_silver(rng, 8)
            stem = p.stem()
            n = len(stem)
            r0 = sv_leftmost(p, stem + (0,))
            r1 = sv_leftmost(p, stem + (1,))
            assert up_eval(r0, n) == 0 and up_eval(r1, n) == 1
            assert up_first_diff(r0, r1) == n
            assert flatten(r0, n) == flatten(r1, n)
            # The staged pair: both sides of pair n are that flattened branch.
            assert adversarial_sequence(r0, n + 1)[2 * n] == flatten(r0, n)
            assert adversarial_sequence(r1, n + 1)[2 * n + 1] == flatten(r0, n)


class TestReplaceBelow:
    def test_copying_a_subtree_onto_itself(self):
        p = rand_hpt(random.Random(3), 5).nodes
        t = min(u for u in p if len(u) == 2)
        assert replace_below(p, t, t) == p

    def test_full_tree_is_symmetric(self):
        full = frozenset(
            tuple(w) for k in range(4) for w in itertools.product((0, 1), repeat=k)
        )
        assert replace_below(full, (0,), (1,)) == full

    def test_explicit_copy(self):
        p = frozenset({(), (0,), (1,), (0, 0), (0, 1), (1, 0)})
        out = replace_below(p, (0,), (1,))
        assert out == frozenset({(), (0,), (1,), (0, 0), (1, 0)})

    def test_nodes_must_lie_in_the_tree(self):
        p = frozenset({(), (0,), (1,)})
        with pytest.raises(ValueError, match="lie in the tree"):
            replace_below(p, (0, 0), (1,))

    def test_nodes_must_sit_at_one_level(self):
        p = frozenset({(), (0,), (1,), (1, 0)})
        with pytest.raises(ValueError, match="same level"):
            replace_below(p, (0,), (1, 0))

    def test_copy_makes_the_subtrees_equal_and_is_idempotent(self):
        rng = random.Random(19)
        for _ in range(25):
            p = rand_hpt(rng, 6).nodes
            by_len = {}
            for u in p:
                by_len.setdefault(len(u), []).append(u)
            length = rng.choice([k for k, v in by_len.items() if len(v) >= 2 and k])
            t, s = rng.sample(sorted(by_len[length]), 2)
            out = replace_below(p, t, s)
            assert {u[len(t):] for u in out if u[: len(t)] == t} == {
                u[len(s):] for u in out if u[: len(s)] == s
            }
            assert replace_below(out, t, s) == out


class TestHomogenize:
    def test_identity_shrinker_changes_nothing(self):
        for k in (0, 1):
            assert homogenize(P6, k, lambda cone: cone) == P6

    def test_fixing_a_free_level_above_the_split(self):
        shrinker = lambda cone: frozenset(
            u for u in cone if len(u) <= 3 or u[3] == 0
        )
        out = homogenize(P6, 0, shrinker)
        assert out == SilverTree(6, frozenset({1}), {0: 0, 2: 1, 3: 0, 4: 0, 5: 1})
        assert sv_validate(out)

    def test_fixing_the_split_level_itself(self):
        shrinker = lambda cone: frozenset(
            u for u in cone if len(u) <= 3 or u[3] == 1
        )
        out = homogenize(P6, 1, shrinker)
        assert out == SilverTree(6, frozenset({1}), {0: 0, 2: 1, 3: 1, 4: 0, 5: 1})

    def test_randomized_level_fixers_keep_silverness(self):
        rng = random.Random(23)
        for _ in range(40):
            p = rand_silver(rng, 7, min_splits=2)
            levels = p.sorted_split_levels()
            k = rng.randrange(len(levels))
            m = rng.choice([l for l in levels if l >= levels[k]])
            bit = rng.randrange(2)
            shrinker = lambda cone: frozenset(
                u for u in cone if len(u) <= m or u[m] == bit
            )
            out = homogenize(p, k, shrinker)
            assert sv_validate(out)
            assert out.split_levels == p.split_levels - {m}
            assert out.fixed_map()[m] == bit

    def test_shrinker_must_keep_the_root(self):
        with pytest.raises(ValueError, match="subtree"):
            homogenize(FULL3, 0, lambda cone: cone - {()})

    def test_shrinker_must_return_a_subset(self):
        with pytest.raises(ValueError, match="subtree"):
            homogenize(FULL3, 0, lambda cone: cone | {(0, 0, 0, 0)})

    def test_ragged_shrinker_is_rejected(self):
        with pytest.raises(ValueError, match="neither split nor uniformly fixed"):
            homogenize(FULL3, 0, lambda cone: cone - {(1, 1)})

    def test_shrinker_dropping_an_inner_node_leaves_stray_nodes(self):
        # The cone root's 0-child goes, but the nodes below it stay.
        with pytest.raises(ValueError) as e:
            homogenize(FULL3, 0, lambda cone: cone - {(0,)})
        assert str(e.value) == "node set carries stray nodes"

    def test_split_order_out_of_range(self):
        with pytest.raises(ValueError, match="order"):
            homogenize(P6, 2, lambda cone: cone)
        with pytest.raises(ValueError, match="order"):
            homogenize(SilverTree(2, frozenset(), {0: 0, 1: 0}), 0, lambda c: c)


class TestFlatten:
    def test_zero_stays_zero(self):
        assert flatten(ZERO, 3) == ZERO

    def test_all_ones_head_zeroed(self):
        out = flatten(R([], (1,)), 0)
        assert out.prefix == (0,) and out.period == (1,)

    def test_already_flat_window(self):
        assert flatten(U6, 1) == U6

    def test_prefix_swallowed_whole(self):
        assert flatten(R([0, 1]), 1) == ZERO
        assert flatten(R([1, 1, 1]), 1) == R([0, 0, 1])

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            r = R(
                [rng.randrange(2) for _ in range(rng.randrange(5))],
                [rng.randrange(2) for _ in range(rng.randrange(1, 4))],
            )
            n = rng.randrange(6)
            assert flatten(flatten(r, n), n) == flatten(r, n)

    def test_rejects_wide_alphabets(self):
        with pytest.raises(ValueError, match="binary"):
            flatten(R([2]), 0)

    def test_rejects_negative_positions(self):
        with pytest.raises(ValueError, match="nonnegative"):
            flatten(ZERO, -1)


class TestAdversarial:
    def test_zero_branch_gives_all_zeros(self):
        assert adversarial_sequence(ZERO, 3) == (ZERO,) * 6

    def test_all_ones_branch_loads_the_odd_side(self):
        assert adversarial_sequence(R([], (1,)), 2) == (
            ZERO, R([0], (1,)), ZERO, R([0, 0], (1,)),
        )

    def test_mixed_branch(self):
        r = R([0, 1])
        assert adversarial_sequence(r, 2) == (r, ZERO, ZERO, ZERO)

    def test_two_entries_per_position(self):
        assert len(adversarial_sequence(ZERO, 4)) == 8

    def test_pairs_tile_the_sequence(self):
        rng = random.Random(5)
        for _ in range(20):
            r = R([rng.randrange(2) for _ in range(4)], (rng.randrange(2),))
            xs = adversarial_sequence(r, 4)
            for n in range(4):
                assert (xs[2 * n], xs[2 * n + 1]) == adversarial_pair(r, n)

    def test_rejects_wide_alphabets(self):
        with pytest.raises(ValueError, match="binary"):
            adversarial_sequence(R([3]), 1)


class TestGroundUniverse:
    def test_zero_is_mandatory(self):
        with pytest.raises(ValueError, match="zero"):
            GroundUniverse(frozenset({R([1])}))

    def test_members_are_canonicalized(self):
        g = GroundUniverse(frozenset({UPReal((0, 0), (0,)), ZERO}))
        assert len(g) == 1

    def test_membership_is_by_value(self):
        assert UPReal((0, 0), (0,)) in G4
        assert U6 not in G8

    def test_iteration_is_sorted(self):
        elems = list(G8)
        assert elems == sorted(elems, key=naive_sort_key)


class TestViolatedClause:
    u = U6
    zero = frozenset()

    def test_uncovered_even_index(self):
        clause, index, _ = _violated_clause(
            frozenset({ZERO}), frozenset({self.u}), self.zero, self.zero, self.u
        )
        assert (clause, index) == ("condition2", 0)

    def test_uncovered_odd_index(self):
        clause, index, _ = _violated_clause(
            frozenset({self.u}), frozenset({ZERO}), self.zero, self.zero, self.u
        )
        assert (clause, index) == ("condition2", 1)

    def test_shared_isolated_singleton(self):
        iso = frozenset({self.u})
        clause, _, _ = _violated_clause(
            frozenset({self.u}), frozenset({self.u}), iso, iso, self.u
        )
        assert clause == "3b"

    def test_equal_singletons_without_isolation(self):
        clause, _, _ = _violated_clause(
            frozenset({self.u}), frozenset({self.u}), self.zero, self.zero, self.u
        )
        assert clause == "3a"

    def test_equal_fat_sets(self):
        c = frozenset({self.u, ZERO})
        clause, _, _ = _violated_clause(c, c, self.zero, self.zero, self.u)
        assert clause == "3a"

    def test_overlapping_unequal_sets(self):
        clause, _, _ = _violated_clause(
            frozenset({self.u, ZERO}),
            frozenset({self.u, R([1])}),
            self.zero,
            self.zero,
            self.u,
        )
        assert clause == "3c"


class TestObstruct:
    xs = (ZERO, R([1]), R([0, 1]), R([], (1,)))

    def test_built_wrapper_fails_coverage(self):
        w = build_wrapper(self.xs)
        report = obstruct(w, G8, P6)
        assert report.clause == "condition2" and report.index == 0
        assert report.n == 1 and report.ntilde == 5
        assert report.u == U6 and report.r0 == U6
        assert up_eval(report.r1, 1) == 1
        assert report.s1 is None and report.tree1 is None
        for tree in w.family(5, 2).distinct_trees():
            assert report.u not in tree.branches

    def test_branches_must_come_from_the_universe(self):
        w = build_wrapper((ZERO, U6, R([1]), R([0, 1])))
        with pytest.raises(ValueError, match="branch outside the universe"):
            obstruct(w, G8, P6)

    def test_isolated_sets_must_come_from_the_universe(self):
        w = build_wrapper(self.xs)
        iso = (frozenset({U6}),) + w.isolated[1:]
        with pytest.raises(ValueError, match="isolated set 0"):
            obstruct(dataclasses.replace(w, isolated=iso), G8, P6)

    def test_scope_must_reach_the_staged_pair(self):
        w = build_wrapper((ZERO, R([1])))
        with pytest.raises(ValueError, match="scope too small"):
            obstruct(w, G8, P6)

    def test_zero_flattened_branch_is_rejected(self):
        p = SilverTree(4, frozenset({0}), {1: 0, 2: 0, 3: 0})
        with pytest.raises(ValueError, match="zero sequence"):
            obstruct(build_wrapper(self.xs), G8, p)

    def test_split_free_window_is_rejected(self):
        p = SilverTree(3, frozenset(), {0: 1, 1: 0, 2: 0})
        with pytest.raises(ValueError, match="splitting level below the horizon"):
            obstruct(build_wrapper(self.xs), G8, p)

    def test_staged_branch_must_leave_the_universe(self):
        g = GroundUniverse(G8.reals | {U6})
        with pytest.raises(ValueError, match="lies in the ground universe"):
            obstruct(build_wrapper(self.xs), g, P6)


class TestBruteObstruction:
    def test_singleton_sweep_counts(self):
        summary = brute_obstruction(G4, P6, max_branches=1)
        assert summary.total == 4 * 4 * 5 * 5
        assert summary.histogram == (("condition2", 400),)
        assert summary.survivors == 0 and not summary.vacuous
        assert summary.n == 1 and summary.ntilde == 5 and summary.u == U6

    def test_two_tree_families_square_the_choices(self):
        summary = brute_obstruction(G4, P6, max_branches=1, s_uniform=False)
        assert summary.total == 16 * 16 * 5 * 5
        assert summary.histogram == (("condition2", 6400),)
        assert summary.survivors == 0

    def test_width_zero_position_ignores_the_uniformity_flag(self):
        p = SilverTree(4, frozenset({0}), {1: 0, 2: 1, 3: 0})
        uniform = brute_obstruction(G4, p, max_branches=1)
        free = brute_obstruction(G4, p, max_branches=1, s_uniform=False)
        assert uniform.ntilde == 0 and free.ntilde == 0
        assert uniform.total == free.total == 400
        assert uniform.histogram == free.histogram

    def test_empty_candidate_space_is_vacuous(self):
        summary = brute_obstruction(G4, P6, max_branches=0)
        assert summary.vacuous and summary.total == 0
        assert summary.histogram == () and summary.survivors == 0

    def test_negative_bound_is_refused(self):
        with pytest.raises(ValueError, match="^max_branches must be nonnegative, got -1$"):
            brute_obstruction(G4, P6, max_branches=-1)

    def test_oversized_sweeps_are_refused(self):
        with pytest.raises(ValueError, match="sweep cap"):
            brute_obstruction(G8, P6, max_branches=2, s_uniform=False)

    def test_closed_form_total_matches_the_listing(self):
        pool = sorted(G8.reals, key=naive_sort_key)
        for max_branches in range(5):
            sizes = range(max_branches + 1)
            isolated = [c for k in sizes for c in itertools.combinations(pool, k)]
            trees = isolated[1:]
            for s_uniform in (True, False):
                choices = len(trees) if s_uniform else len(trees) ** 2
                total = choices**2 * len(isolated) ** 2
                if total > 4_000_000:
                    with pytest.raises(ValueError, match=f"^{total} candidates exceed"):
                        brute_obstruction(G8, P6, max_branches, s_uniform)
                else:
                    assert brute_obstruction(G8, P6, max_branches, s_uniform).total == total

    def test_bound_past_the_universe_size_lists_nothing_more(self):
        start = time.perf_counter()
        huge = brute_obstruction(G4, P6, max_branches=10**9)
        assert time.perf_counter() - start < 0.5
        whole = brute_obstruction(G4, P6, max_branches=4)
        assert huge == dataclasses.replace(whole, max_branches=10**9)

    def test_cap_is_checked_before_listing(self):
        # 22 reals and up to 8 branches: about 10**21 candidates, counted
        # without listing a single subset.
        n_trees = sum(comb(22, k) for k in range(1, 9))
        total = n_trees**2 * (n_trees + 1) ** 2
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError) as e:
                brute_obstruction(G22, P6, max_branches=8)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == f"{total} candidates exceed the sweep cap of 4000000"
        assert elapsed < 0.5
        assert peak < 1 << 20

    def test_preconditions_checked_before_enumerating(self):
        g = GroundUniverse(G4.reals | {U6})
        with pytest.raises(ValueError, match="lies in the ground universe"):
            brute_obstruction(g, P6, max_branches=1)


class TestClauseCounts:
    """The class-weighted sweep against one verdict per candidate, on a
    pool holding u, so that every clause shows up."""

    POOL = (U6, ZERO, R([1]), R([0, 1]))

    def sets(self, max_branches, smallest):
        return [
            frozenset(c)
            for size in range(smallest, max_branches + 1)
            for c in itertools.combinations(self.POOL, size)
        ]

    def test_uniform_families(self):
        trees = self.sets(2, 1)
        counts = _clause_counts([(c,) for c in trees], self.sets(2, 0), U6)
        assert counts == naive_clause_counts([(c,) for c in trees], self.sets(2, 0), U6)
        assert set(counts) == {"condition2", "3a", "3b", "3c"}
        assert sum(counts.values()) == 10 * 10 * 11 * 11

    def test_two_tree_families(self):
        trees = self.sets(1, 1)
        choices = [(d, s) for d in trees for s in trees]
        counts = _clause_counts(choices, self.sets(1, 0), U6)
        assert counts == naive_clause_counts(choices, self.sets(1, 0), U6)
        assert set(counts) == {"condition2", "3a", "3b"}

    def test_isolated_sets_without_u(self):
        trees = self.sets(2, 1)
        isolated = [c for c in self.sets(2, 0) if U6 not in c]
        counts = _clause_counts([(c,) for c in trees], isolated, U6)
        assert counts == naive_clause_counts([(c,) for c in trees], isolated, U6)
        assert "3b" not in counts


def _subsets(pool, smallest, largest):
    return [
        frozenset(c)
        for size in range(smallest, largest + 1)
        for c in itertools.combinations(pool, size)
    ]


class TestCoverClasses:
    """Cover-class counts against one verdict per candidate, on seeded
    random pools of 3-5 reals that hold u."""

    def pool(self, rng):
        size = rng.randint(3, 5)
        u = rand_upreal(rng, alphabet=2)
        pool = {u}
        while len(pool) < size:
            pool.add(rand_upreal(rng, alphabet=2))
        return u, sorted(pool, key=naive_sort_key)

    def check(self, rng, choices, pool, u):
        """Against the oracle with a mixed isolated list, one without u and
        one where every set holds u."""
        picked = rng.sample(_subsets(pool, 0, 2), rng.randint(2, 8))
        for iso_sets in (
            picked,
            [c for c in picked if u not in c] or [frozenset()],
            [c for c in picked if u in c] or [frozenset({u})],
        ):
            counts = _clause_counts(choices, iso_sets, u)
            assert counts == naive_clause_counts(choices, iso_sets, u)
            assert sum(counts.values()) == len(choices) ** 2 * len(iso_sets) ** 2

    @pytest.mark.parametrize("seed", range(8))
    def test_uniform_choices(self, seed):
        rng = random.Random(seed)
        u, pool = self.pool(rng)
        trees = _subsets(pool, 1, 2)
        choices = [(c,) for c in rng.sample(trees, rng.randint(1, len(trees)))]
        self.check(rng, choices, pool, u)

    @pytest.mark.parametrize("seed", range(8))
    def test_default_special_choices(self, seed):
        rng = random.Random(100 + seed)
        u, pool = self.pool(rng)
        trees = _subsets(pool, 1, 2)
        pairs = [(d, s) for d in trees for s in trees]
        choices = rng.sample(pairs, rng.randint(1, min(len(pairs), 60)))
        self.check(rng, choices, pool, u)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_holder_decides(self, seed):
        rng = random.Random(200 + seed)
        u, pool = self.pool(rng)
        holders = [c for c in _subsets(pool, 1, 2) if u in c]
        first = rng.choice(holders)
        choices = [(first, s) for s in holders if s != first]
        self.check(rng, choices, pool, u)
        assert set(_clause_counts(choices, _subsets(pool, 0, 1), u)) <= {"3a", "3b"}

    def test_empty_choices(self):
        u, pool = self.pool(random.Random(300))
        assert _clause_counts([], _subsets(pool, 0, 1), u) == {}
        self.check(random.Random(301), [], pool, u)

    def test_classifies_each_cover_class_once(self, monkeypatch):
        """One verdict per pair of covered families would make
        covered**2 * 4 calls, here thousands; cover classes make at most
        covers**2 * 4."""
        rng = random.Random(400)
        u, pool = self.pool(rng)
        trees = _subsets(pool, 1, 2)
        choices = [(d, s) for d in trees for s in trees]
        iso_sets = _subsets(pool, 0, 1)
        calls = []

        def counting(*args):
            calls.append(args)
            return _violated_clause(*args)

        monkeypatch.setattr("shrinkwrap.silver._violated_clause", counting)
        counts = _clause_counts(choices, iso_sets, u)
        covers = len({next((c for c in trees if u in c), None) for trees in choices})
        covered = sum(1 for trees in choices if any(u in c for c in trees))
        assert len(calls) <= covers**2 * 4 < covered**2 * 4
        assert counts == naive_clause_counts(choices, iso_sets, u)
