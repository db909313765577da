"""Exit levels, the dominating rules, and the battery checker, all read
through ``check_domination``."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest

from gen import mutate_at_level, naive_check_domination, naive_encode, rand_upreal
from shrinkwrap import codec, core, domination
from shrinkwrap.cli import run
from shrinkwrap.core import ZERO, BranchTree, UPReal, up_first_diff
from shrinkwrap.domination import _WINDOW_CAP, check_domination, check_hypotheses_simple
from shrinkwrap.wrapper import (
    ShrinkWrapper,
    TreeFamily,
    WrapperScope,
    build_padded_wrapper,
    build_wrapper,
    verify_wrapper,
)


def R(prefix, period=(0,)):
    return UPReal(tuple(prefix), tuple(period))


def T(*branches):
    return BranchTree(frozenset(branches))


def index0_rows(tree, battery):
    """Tree-provider rows over one point.  The floor at index 0 is 0, so
    ``g_values[0]`` is the battery entry's exit level from the tree."""
    return check_domination([ZERO], battery, trees=[tree]).rows


def exit_levels(tree, battery):
    return [row.g_values[0] for row in index0_rows(tree, battery)]


def singleton_rows(xs, battery):
    """Tree-provider rows with one singleton tree per point."""
    return check_domination(xs, battery, trees=[T(x) for x in xs]).rows


class TestExitLevel:
    def test_branches_exit_at_zero(self):
        t = T(ZERO, R([1]))
        rows = index0_rows(t, [ZERO, R([1], [0])])
        assert [(row.g_values[0], row.in_tree[0]) for row in rows] == [(0, True), (0, True)]

    def test_frozen_examples(self):
        assert exit_levels(T(ZERO), [R([1])]) == [1]
        assert exit_levels(T(ZERO, R([0, 0, 1])), [R([0, 1])]) == [2]

    def test_zero_exactly_on_branches(self):
        rng = random.Random(21)
        for _ in range(200):
            t = BranchTree(frozenset(rand_upreal(rng) for _ in range(3)))
            x = rand_upreal(rng)
            (row,) = index0_rows(t, [x])
            assert (row.g_values[0] == 0) == row.in_tree[0] == (x in t.branches)

    def test_monotone_in_the_branch_set_off_the_paths(self):
        rng = random.Random(22)
        for _ in range(200):
            small = frozenset(rand_upreal(rng) for _ in range(2))
            big = small | frozenset(rand_upreal(rng) for _ in range(2))
            x = rand_upreal(rng)
            if x in big:
                continue
            assert exit_levels(BranchTree(small), [x]) <= exit_levels(BranchTree(big), [x])

    def test_first_diff_sits_one_below_singleton_exit(self):
        rng = random.Random(23)
        xs = [rand_upreal(rng) for _ in range(6)]
        battery = [rand_upreal(rng) for _ in range(200)]
        for xn in xs:
            for row in singleton_rows([xn], battery):
                if row.x != xn:
                    assert row.f_values[0] == row.g_values[0] - 1


class TestFx:
    def test_equal_point_gives_zero(self):
        (row,) = singleton_rows([R([1, 2])], [R([1, 2])])
        assert row.f_values == (0,)

    def test_frozen_examples(self):
        rows = singleton_rows([ZERO], [R([1]), R([0, 0, 0, 1])])
        assert [row.f_values for row in rows] == [(0,), (3,)]


def three_point_wrapper(families):
    """Scope over three points and their three pair positions."""
    return ShrinkWrapper(WrapperScope(3, 3), families, (frozenset(),) * 3)


THREE = (ZERO, R([1]), R([2]))


class TestBigT:
    """Covers, read off the ``in_tree`` rows of the wrapper provider."""

    def test_constant_families_give_their_tree(self):
        t = T(ZERO, R([1]))
        w = pair_wrapper_families(t, t)
        battery = [ZERO, R([1]), R([2]), R([0, 1])]
        report = check_domination([ZERO, R([1])], battery, wrapper=w)
        assert [row.in_tree for row in report.rows] == [
            (x in t.branches,) * 2 for x in battery
        ]

    def test_branch_sets_intersect_across_positions(self):
        a, b, c = ZERO, R([1]), R([2])
        fams = {
            (0, 0): TreeFamily.constant(0, T(a, b)),
            (0, 1): TreeFamily.constant(0, T(b)),
            (1, 0): TreeFamily.from_assignments(1, T(b), {(1,): T(c)}),
            (1, 2): TreeFamily.constant(1, T(c)),
            (2, 1): TreeFamily.constant(2, T(b)),
            (2, 2): TreeFamily.constant(2, T(c)),
        }
        w = three_point_wrapper(fams)
        report = check_domination(THREE, [a, b, c], wrapper=w)
        assert [row.in_tree[0] for row in report.rows] == [False, True, False]

    def test_direct_build_covers_its_point(self):
        rng = random.Random(31)
        xs = [rand_upreal(rng) for _ in range(4)]
        w = build_wrapper(xs)
        report = check_domination(xs, xs, wrapper=w)
        for n, row in enumerate(report.rows):
            assert row.in_tree[n]

    def test_index_without_pair_position_rejected(self):
        w = ShrinkWrapper(
            WrapperScope(3, 1),
            {
                (0, 0): TreeFamily.constant(0, T(ZERO)),
                (0, 1): TreeFamily.constant(0, T(R([1]))),
            },
            (frozenset(),) * 3,
        )
        with pytest.raises(ValueError) as e:
            check_domination(THREE, [ZERO], wrapper=w)
        assert str(e.value) == "no in-scope pair position involves index 2"

    def test_empty_intersection_rejected(self):
        a, b, c = ZERO, R([1]), R([2])
        fams = {
            (0, 0): TreeFamily.constant(0, T(a)),
            (0, 1): TreeFamily.constant(0, T(b)),
            (1, 0): TreeFamily.constant(1, T(c)),
            (1, 2): TreeFamily.constant(1, T(c)),
            (2, 1): TreeFamily.constant(2, T(b)),
            (2, 2): TreeFamily.constant(2, T(c)),
        }
        w = three_point_wrapper(fams)
        with pytest.raises(ValueError) as e:
            check_domination(THREE, [ZERO], wrapper=w)
        assert str(e.value) == "covering branch sets at index 0 have empty intersection"


def pair_wrapper_families(t1, t2):
    return ShrinkWrapper(
        WrapperScope(2, 1),
        {(0, 0): TreeFamily.constant(0, t1), (0, 1): TreeFamily.constant(0, t2)},
        (frozenset(), frozenset()),
    )


def resident_floor(wrapper, xs, n):
    """The dominating value at n of a probe inside n's cover: its exit
    level is 0, so the value is the larger of the separation bound and n."""
    (row,) = check_domination(xs, [xs[n]], wrapper=wrapper).rows
    assert row.in_tree[n]
    return row.g_values[n]


class TestSepBound:
    def test_vacuous_when_no_disjoint_pairs(self):
        x = R([1, 2])
        w = build_wrapper([x, x])
        assert resident_floor(w, [x, x], 0) == 0
        assert resident_floor(w, [x, x], 1) == 1

    def test_single_disjoint_pair(self):
        xs = [ZERO, R([1])]
        assert resident_floor(build_wrapper(xs), xs, 1) == 1
        xs = [ZERO, R([0, 0, 0, 1])]
        w = build_wrapper(xs)
        assert resident_floor(w, xs, 0) == 0  # the bound lands on the larger index
        assert resident_floor(w, xs, 1) == 4

    def test_max_over_positions(self):
        c = R([0, 0, 1])  # index 2's cover
        fams = {
            (0, 0): TreeFamily.constant(0, T(ZERO)),
            (0, 1): TreeFamily.constant(0, T(R([0, 0, 0, 0, 1]))),
            (1, 0): TreeFamily.constant(1, T(ZERO)),
            (1, 2): TreeFamily.constant(1, T(c)),
            (2, 1): TreeFamily.constant(2, T(R([0, 0, 0, 0, 1]))),
            (2, 2): TreeFamily.constant(2, T(c, R([0, 0, 0, 0, 2]))),
        }
        w = three_point_wrapper(fams)
        xs = [ZERO, R([0, 0, 0, 0, 1]), c]
        assert resident_floor(w, xs, 2) == 5  # levels 3 and 5 across the two positions


class TestDominatingValues:
    def test_g_full_on_a_resident_point(self):
        x = R([1, 2])
        w = build_wrapper([x, x])
        (row,) = check_domination([x, x], [x], wrapper=w).rows
        assert row.g_values == (0, 1)

    def test_g_full_is_the_stated_max(self):
        xs = [ZERO, R([1]), R([0, 0, 0, 0, 1])]
        w = build_wrapper(xs)
        battery = [*xs, R([3]), R([0, 0, 7])]
        report = check_domination(xs, battery, wrapper=w)
        want = naive_check_domination(xs, battery, wrapper=w)
        for row, want_row in zip(report.rows, want.rows, strict=True):
            assert row.g_values == want_row.g_values
            assert all(g >= n for n, g in enumerate(row.g_values))
        assert report.rows[0].g_values[2] == 5  # ZERO exits the far point's tree at level 5

    def test_g_simple_examples(self):
        xs = [ZERO, R([0, 0, 0, 1])]
        trees = [T(x) for x in xs]
        report = check_domination(xs, [ZERO, R([1])], trees=trees)
        assert [row.g_values for row in report.rows] == [(0, 4), (1, 1)]


class TestSimpleHypotheses:
    def test_distinct_singletons_pass(self):
        xs = [ZERO, R([1]), R([2])]
        assert check_hypotheses_simple(xs, [T(x) for x in xs])

    def test_equal_points_may_share_a_tree(self):
        x = R([1, 2])
        shared = T(x, R([3]))
        assert check_hypotheses_simple([x, x], [shared, shared])

    def test_overlap_between_distinct_points_fails(self):
        a, b, c = ZERO, R([1]), R([2])
        assert not check_hypotheses_simple([a, b], [T(a, c), T(b, c)])

    def test_point_outside_its_tree_fails(self):
        assert not check_hypotheses_simple([ZERO], [T(R([1]))])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_hypotheses_simple([ZERO], [T(ZERO), T(R([1]))])


def battery_for(wrapper, xs, rng, mutations=30):
    """Points, every branch the wrapper mentions, and random near-misses."""
    out = list(xs)
    for fam in wrapper.families.values():
        for tree in fam.distinct_trees():
            out.extend(tree.branches)
    for _ in range(mutations):
        x = rng.choice(xs)
        out.append(mutate_at_level(rng, x, rng.randrange(6)))
    return out


class TestCheckDomination:
    def test_built_wrappers_pass(self):
        rng = random.Random(41)
        for trial in range(8):
            xs = [rand_upreal(rng) for _ in range(5)]
            if trial % 2 == 0:
                xs[2] = xs[0]
            decoys = [rand_upreal(rng) for _ in range(4)] if trial % 3 else []
            w = build_padded_wrapper(xs, decoys=decoys, seed=trial)
            assert verify_wrapper(w, xs).passed
            report = check_domination(xs, battery_for(w, xs, rng), wrapper=w)
            assert report.passed
            assert report.pointwise_enforced
            for row in report.rows:
                assert row.failure_set == tuple(
                    n for n in range(5) if row.f_values[n] > row.g_values[n]
                )

    def test_constant_sequence_passes(self):
        rng = random.Random(42)
        x = R([1, 2], [3])
        xs = [x] * 4
        w = build_wrapper(xs)
        battery = [mutate_at_level(rng, x, l) for l in range(8)] + [x, ZERO]
        assert check_domination(xs, battery, wrapper=w).passed

    def test_simple_rule_passes_under_hypotheses(self):
        rng = random.Random(43)
        xs = [rand_upreal(rng) for _ in range(4)]
        xs[3] = xs[1]
        trees = [BranchTree.of(x) for x in xs]
        assert check_hypotheses_simple(xs, trees)
        battery = [rand_upreal(rng) for _ in range(40)] + xs
        report = check_domination(xs, battery, trees=trees)
        assert report.passed

    def test_hypothesis_breach_produces_violating_pair(self):
        a, b, c = ZERO, R([0, 1, 1]), R([0, 1])
        shared = T(a, b, c)
        assert not check_hypotheses_simple([a, b], [shared, shared])
        report = check_domination([a, b], [c], trees=[shared, shared])
        assert not report.passed
        (row,) = report.rows
        assert row.f_values == (1, 2)
        assert row.g_values == (0, 1)
        assert row.failure_set == (0, 1)
        assert row.violating_pairs == ((0, 1),)
        assert row.pointwise_failures == ()

    def test_corrupted_wrapper_produces_violating_pair(self):
        a, b, c = ZERO, R([0, 1, 1]), R([0, 1])
        w = pair_wrapper_families(T(a, b, c), T(a, b, c))
        assert not verify_wrapper(w, [a, b]).passed
        report = check_domination([a, b], [c], wrapper=w)
        assert not report.passed
        assert report.rows[0].violating_pairs == ((0, 1),)

    def test_uncovered_point_produces_pointwise_failure(self):
        a, b, d = ZERO, R([2]), R([1])
        w = pair_wrapper_families(T(d), T(b))  # index 0's point is not covered
        probe = R([0, 0, 0, 0, 3])
        report = check_domination([a, b], [probe], wrapper=w)
        assert not report.passed
        (row,) = report.rows
        assert row.f_values[0] == 4
        assert row.g_values[0] == 1
        assert row.pointwise_failures == (0,)
        assert row.violating_pairs == ()

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
        check_domination(xs, xs, wrapper=w)
        assert len(scanned) == len(w.families)

    def test_missing_family_error_names_the_pair_position(self):
        w = ShrinkWrapper(
            WrapperScope(3, 3),
            {
                (0, 0): TreeFamily.constant(0, T(ZERO)),
                (0, 1): TreeFamily.constant(0, T(R([1]))),
                (2, 1): TreeFamily.constant(2, T(R([1]))),
                (2, 2): TreeFamily.constant(2, T(R([2]))),
            },
            (frozenset(),) * 3,
        )
        with pytest.raises(ValueError) as e:
            check_domination(THREE, [ZERO], wrapper=w)
        assert str(e.value) == "missing family for pair position 1, index 0"

    def test_provider_arguments_validated(self):
        xs = [ZERO, R([1])]
        w = build_wrapper(xs)
        trees = [BranchTree.of(x) for x in xs]
        with pytest.raises(ValueError):
            check_domination(xs, [])
        with pytest.raises(ValueError):
            check_domination(xs, [], wrapper=w, trees=trees)
        with pytest.raises(ValueError):
            check_domination(xs + [ZERO], [], wrapper=w)
        with pytest.raises(ValueError):
            check_domination(xs, [], trees=trees[:1])


def assert_matches_oracle(xs, battery, **provider):
    report = check_domination(xs, battery, **provider)
    want = naive_check_domination(xs, battery, **provider)
    assert (report.passed, report.n_reals, report.pointwise_enforced) == (
        want.passed, want.n_reals, want.pointwise_enforced
    )
    assert len(report.rows) == len(want.rows)
    for got_row, want_row in zip(report.rows, want.rows):
        for field in dataclasses.fields(want_row):
            name = field.name
            assert getattr(got_row, name) == getattr(want_row, name), (name, want_row.x)
    return report


def oracle_points(rng, n, kind):
    """Sequences of one kind, with one or two forced duplicates."""

    def make():
        if kind == "wide":  # values >= 256, often more than 256 distinct: 2-byte symbols
            return rand_upreal(rng, alphabet=100_000, max_period=60)
        if kind == "huge":  # values far past a machine word
            x = rand_upreal(rng)
            return UPReal(tuple(2**80 + v for v in x.prefix), tuple(2**80 + v for v in x.period))
        if kind == "long":  # periods long enough that the windows are capped
            return rand_upreal(rng, alphabet=3, max_period=40)
        return rand_upreal(rng, alphabet=3)

    xs = [make() for _ in range(n)]
    for _ in range(rng.randint(1, 2)):
        xs[rng.randrange(n)] = rng.choice(xs)
    return xs


def past_cap(rng):
    """A level past the window cap.  The tests build sequences that long,
    so a cap too large to build one fails here instead of exhausting
    memory."""
    assert _WINDOW_CAP <= 1024, f"window cap {_WINDOW_CAP} is too large to test"
    return _WINDOW_CAP + rng.randrange(40)


def oracle_battery(rng, xs, branches, kind):
    """Points, branches, fresh sequences, near misses, and sequences that
    agree with a point or a branch past the window cap."""
    sources = list(xs) + sorted(branches, key=repr)
    out = sources + oracle_points(rng, 6, kind)
    for _ in range(12):
        out.append(mutate_at_level(rng, rng.choice(sources), rng.randrange(8)))
    for _ in range(0 if kind == "small" else 4):  # small keeps every window uncapped
        out.append(mutate_at_level(rng, rng.choice(sources), past_cap(rng)))
    out.append(rng.choice(out))  # a repeated probe
    return out


class TestCheckDominationOracle:
    KINDS = ("small", "wide", "huge", "long")

    def test_wrapper_provider(self):
        rng = random.Random(51)
        for trial in range(16):
            kind = self.KINDS[trial % 4]
            xs = oracle_points(rng, 4, kind)
            if trial % 5 == 2:  # point 0 follows point 3 for a while
                xs[0] = mutate_at_level(rng, xs[3], rng.randrange(1, 3))
            decoys = oracle_points(rng, 3, kind)
            scope = WrapperScope(4, 6 if trial % 3 else 4)  # full, or partial
            w = build_padded_wrapper(xs, scope=scope, decoys=decoys, seed=trial)
            if trial % 5 == 4:  # index 0 no longer covers its point
                away = mutate_at_level(rng, xs[0], 0)
                w = dataclasses.replace(w, families={
                    (nt, n): TreeFamily.constant(nt, T(away)) if n == 0 else fam
                    for (nt, n), fam in w.families.items()
                })
            if trial % 5 == 2:  # every tree shares one branch near point 3
                near = mutate_at_level(rng, xs[3], rng.randrange(5, 8))
                w = dataclasses.replace(w, families={
                    key: TreeFamily(fam.width, tuple(
                        (prefix, BranchTree(t.branches | {near})) for prefix, t in fam.leaves
                    ))
                    for key, fam in w.families.items()
                })
            branches = {
                b for fam in w.families.values() for t in fam.distinct_trees() for b in t.branches
            }
            assert_matches_oracle(xs, oracle_battery(rng, xs, branches, kind), wrapper=w)

    def test_tree_provider(self):
        rng = random.Random(52)
        for trial in range(16):
            kind = self.KINDS[trial % 4]
            xs = oracle_points(rng, 5, kind)
            pool = oracle_points(rng, 2, kind) + [
                mutate_at_level(rng, rng.choice(xs), rng.randrange(1, 9)) for _ in range(3)
            ]
            trees = []
            for x in xs:  # some trees miss their point, some share branches
                extra = rng.sample(pool, rng.randrange(3))
                keep = [x] if rng.random() < 0.8 or not extra else []
                trees.append(BranchTree(frozenset(keep + extra)))
            if trial % 3 == 0:  # points 0 and 4 share a branch that follows 4 longer
                xs[0] = mutate_at_level(rng, xs[4], rng.randrange(1, 3))
                near = mutate_at_level(rng, xs[4], rng.randrange(5, 8))
                trees[0] = BranchTree(frozenset({xs[0], near}))
                trees[4] = BranchTree(trees[4].branches | {near})
            branches = set().union(*(t.branches for t in trees))
            assert_matches_oracle(xs, oracle_battery(rng, xs, branches, kind), trees=trees)

    def test_empty_battery(self):
        xs = [ZERO, R([1]), ZERO]
        w = build_wrapper(xs)
        for provider in ({"wrapper": w}, {"trees": [T(x) for x in xs]}):
            report = assert_matches_oracle(xs, [], **provider)
            assert report.rows == () and report.passed

    def test_windows_past_the_cap_take_the_exact_scan(self, monkeypatch):
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return up_first_diff(x, y)

        monkeypatch.setattr(domination, "up_first_diff", counting)
        x = R([], tuple(range(100)))  # one period is already past the cap
        rng = random.Random(53)
        level = past_cap(rng)
        near = mutate_at_level(rng, x, level)
        xs = [x, ZERO]
        trees = [T(x), T(ZERO, near)]
        report = assert_matches_oracle(xs, [near, x], trees=trees)
        assert report.rows[0].f_values[0] == level
        assert (near, x) in calls  # probe near against point 0
        assert (x, near) in calls  # probe x leaving the cover of index 1

    def test_separation_bounds_come_from_the_windows(self, monkeypatch):
        # Padded wrappers whose sequences all differ within the window: the
        # bounds, like the rows, take no exact first-difference scan.
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return up_first_diff(x, y)

        rng = random.Random(54)
        for seed in range(6):
            xs = [rand_upreal(rng, alphabet=3) for _ in range(4 + seed % 3)]
            decoys = [rand_upreal(rng, alphabet=3) for _ in range(2 + 2 * seed)]
            w = build_padded_wrapper(xs, decoys=decoys, seed=seed)
            battery = battery_for(w, xs, rng)
            with monkeypatch.context() as patch:
                patch.setattr(domination, "up_first_diff", counting)
                patch.setattr(core, "up_first_diff", counting)
                report = check_domination(xs, battery, wrapper=w)
            assert calls == []
            assert report == naive_check_domination(xs, battery, wrapper=w)

    def test_separation_bound_past_the_cap_takes_the_exact_scan(self, monkeypatch):
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return up_first_diff(x, y)

        monkeypatch.setattr(domination, "up_first_diff", counting)
        x = R([], tuple(range(100)))
        rng = random.Random(55)
        level = past_cap(rng)
        y = mutate_at_level(rng, x, level)
        w = build_wrapper([x, y])  # disjoint singleton trees at pair position 0
        check_domination([x, y], [], wrapper=w)
        assert calls == [(x, y)]
        # y lies in its own tree, so only the bound lifts its value at index 1.
        (row,) = assert_matches_oracle([x, y], [y], wrapper=w).rows
        assert row.in_tree == (False, True)
        assert row.g_values[1] == level + 1

    def test_long_period_probe_stays_bounded(self):
        # One probe with a 200,000-long period holding a 4,001-bit value,
        # and a point that agrees with it past the window cap.
        period = (2**4000,) + tuple(range(1, 200_000))
        probe = UPReal((), period)
        xs = [ZERO, UPReal(period[:100], (0,)), R([1])]
        trees = [T(x) for x in xs]
        tracemalloc.start()
        try:
            report = check_domination(xs, [probe], trees=trees)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (row,) = report.rows
        (want,) = naive_check_domination(xs, [probe], trees=trees).rows
        assert row.f_values == want.f_values == (0, 100, 0)
        assert row.g_values == want.g_values
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def twin(x: UPReal) -> UPReal:
    """An equal sequence that is another object."""
    return UPReal(x.prefix + x.period, x.period)


def kernel_cases(kind: str, provider: str, seed: int):
    """Points, a provider and the sequences a battery is drawn from: its
    points, every branch of its trees, and near misses of both."""
    rng = random.Random(seed)
    values = "wide" if kind == "wide" else "long" if kind == "past the cap" else "small"
    xs = oracle_points(rng, 5, values)
    # On odd seeds index 0's trees miss its point, so probes near it fail.
    away = mutate_at_level(rng, xs[0], 0)
    if provider == "wrapper":
        w = build_padded_wrapper(xs, decoys=oracle_points(rng, 4, values), seed=seed)
        if seed % 2:
            w = dataclasses.replace(w, families={
                (nt, n): TreeFamily.constant(nt, T(away)) if n == 0 else fam
                for (nt, n), fam in w.families.items()
            })
        given = {"wrapper": w}
        branches = {b for fam in w.families.values() for t in fam.distinct_trees() for b in t.branches}
    else:
        pool = oracle_points(rng, 3, values)
        trees = [T(x, *rng.sample(pool, rng.randrange(3))) for x in xs]
        if seed % 2:
            trees[0] = T(away)
        given = {"trees": trees}
        branches = set().union(*(t.branches for t in trees))
    return rng, xs, given, sorted(branches, key=repr)


class TestDistinctProbeKernel:
    """The column kernel over distinct probes against the probe-by-probe
    oracle, with one row object per distinct probe and report bytes equal
    to the oracle encoder's."""

    BATTERIES = ("every probe repeated", "points and branches", "past the cap", "wide", "empty")

    def battery(self, kind, rng, xs, branches):
        if kind == "empty":
            return []
        near = [mutate_at_level(rng, xs[0], rng.randrange(2, 8)) for _ in range(3)]
        if kind == "points and branches":
            return list(xs) + branches + [twin(rng.choice(branches)) for _ in range(4)] + near
        if kind == "past the cap":
            sources = xs + branches
            return [mutate_at_level(rng, rng.choice(sources), past_cap(rng)) for _ in range(12)] + near
        probes = list(xs) + branches + near
        probes += [mutate_at_level(rng, rng.choice(xs), rng.randrange(8)) for _ in range(10)]
        if kind == "every probe repeated":
            probes += list(map(twin, probes)) + probes
            rng.shuffle(probes)
        return probes

    @pytest.mark.parametrize("provider", ("wrapper", "trees"))
    @pytest.mark.parametrize("kind", BATTERIES)
    def test_matches_the_oracle(self, kind, provider):
        failing = 0
        for seed in range(4):
            rng, xs, given, branches = kernel_cases(kind, provider, seed)
            battery = self.battery(kind, rng, xs, branches)
            report = assert_matches_oracle(xs, battery, **given)
            assert report == naive_check_domination(xs, battery, **given)
            assert codec.encode(report) == naive_encode(report, "report")
            rows = {}
            for x, row in zip(battery, report.rows):
                assert rows.setdefault(x, row) is row
            assert len(rows) == len(set(battery))
            if kind == "wide":
                assert max(v for x in battery for v in x.prefix + x.period) >= 256
            failing += not report.passed
        assert failing >= 2 or kind == "empty" and failing == 0


    def test_report_writes_each_row_object_once(self, monkeypatch):
        rng, xs, given, branches = kernel_cases("every probe repeated", "wrapper", 7)
        battery = self.battery("every probe repeated", rng, xs, branches)
        report = check_domination(xs, battery, **given)
        written = []
        write_many = codec._ROW.write_many

        def counting(rows, level):
            written.extend(rows)
            return write_many(rows, level)

        monkeypatch.setattr(codec._ROW, "write_many", counting)
        data = codec.encode(report)
        assert len(written) == len(set(battery)) < len(battery)
        assert data == naive_encode(report, "report")

class TestUnenforcedPointwise:
    """A failure at an index whose cover misses its point counts against
    the verdict only when the wrapper's scope covers every index pair."""

    XS = (ZERO, R([1]), R([2]))
    PROBE = R([0, 0, 0, 0, 3])  # follows index 0's point to level 4

    def broken(self, n_pairs):
        # A padded wrapper whose trees at index 0 hold only a branch that
        # leaves index 0's point at level 0.
        w = build_padded_wrapper(self.XS, scope=WrapperScope(3, n_pairs),
                                 decoys=[R([1, 1]), R([2, 5])], seed=7)
        away = R([5])
        return dataclasses.replace(w, families={
            **w.families,
            (0, 0): TreeFamily.constant(0, T(away)),
            (1, 0): TreeFamily.constant(1, T(away)),
        })

    def dominate(self, tmp_path, wrapper):
        reals, battery, wpath = (str(tmp_path / f) for f in ("xs.json", "b.json", "w.json"))
        codec.save(reals, self.XS, "reals")
        codec.save(battery, (self.PROBE,), "reals")
        codec.save(wpath, wrapper, "wrapper")
        return run(["dominate", "--reals", reals, "--wrapper", wpath,
                    "--battery", battery, "--out", str(tmp_path / "report.json")])

    def test_partial_scope_reports_but_does_not_enforce(self, tmp_path, capsys):
        w = self.broken(2)
        report = check_domination(self.XS, [self.PROBE], wrapper=w)
        (row,) = report.rows
        assert row.pointwise_failures == (0,) and row.violating_pairs == ()
        assert not report.pointwise_enforced
        assert report.passed
        assert self.dominate(tmp_path, w) == 0
        out = capsys.readouterr().out
        assert "pointwise" not in out and "PASS" in out

    def test_full_scope_twin_fails(self, tmp_path, capsys):
        w = self.broken(3)
        report = check_domination(self.XS, [self.PROBE], wrapper=w)
        assert report.rows[0].pointwise_failures == (0,)
        assert report.pointwise_enforced and not report.passed
        assert self.dominate(tmp_path, w) == 1
        assert "pointwise failures [0]" in capsys.readouterr().out
