"""Exit levels, the dominating rules, and the battery checker."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest

from gen import mutate_at_level, naive_check_domination, rand_upreal
from shrinkwrap import codec, domination
from shrinkwrap.cli import run
from shrinkwrap.core import ZERO, BranchTree, UPReal, up_first_diff
from shrinkwrap.domination import (
    _WINDOW_CAP,
    big_t,
    check_domination,
    check_hypotheses_simple,
    exit_level,
    fx,
    g_full,
    g_simple,
    sep_bound,
)
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


class TestExitLevel:
    def test_branches_exit_at_zero(self):
        t = T(ZERO, R([1]))
        assert exit_level(t, ZERO) == 0
        assert exit_level(t, R([1], [0])) == 0

    def test_frozen_examples(self):
        assert exit_level(T(ZERO), R([1])) == 1
        assert exit_level(T(ZERO, R([0, 0, 1])), R([0, 1])) == 2

    def test_zero_exactly_on_branches(self):
        rng = random.Random(21)
        for _ in range(200):
            t = BranchTree(frozenset(rand_upreal(rng) for _ in range(3)))
            x = rand_upreal(rng)
            assert (exit_level(t, x) == 0) == (x in t.branches)

    def test_monotone_in_the_branch_set_off_the_paths(self):
        rng = random.Random(22)
        for _ in range(200):
            small = frozenset(rand_upreal(rng) for _ in range(2))
            big = small | frozenset(rand_upreal(rng) for _ in range(2))
            x = rand_upreal(rng)
            if x in big:
                continue
            assert exit_level(BranchTree(small), x) <= exit_level(BranchTree(big), x)

    def test_first_diff_sits_one_below_singleton_exit(self):
        rng = random.Random(23)
        xs = [rand_upreal(rng) for _ in range(6)]
        for _ in range(200):
            x = rand_upreal(rng)
            for n, xn in enumerate(xs):
                if x == xn:
                    continue
                assert fx(xs, x, n) == exit_level(BranchTree.of(xn), x) - 1


class TestFx:
    def test_equal_point_gives_zero(self):
        xs = [R([1, 2])]
        assert fx(xs, R([1, 2]), 0) == 0

    def test_frozen_examples(self):
        xs = [ZERO]
        assert fx(xs, R([1]), 0) == 0
        assert fx(xs, R([0, 0, 0, 1]), 0) == 3

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            fx([ZERO], ZERO, 1)
        with pytest.raises(ValueError):
            fx([ZERO], ZERO, -1)


def three_point_wrapper(families):
    """Scope over three points and their three pair positions."""
    return ShrinkWrapper(WrapperScope(3, 3), families, (frozenset(),) * 3)


class TestBigT:
    def test_constant_families_give_their_tree(self):
        t = T(ZERO, R([1]))
        w = pair_wrapper_families(t, t)
        assert big_t(w, 0) == t
        assert big_t(w, 1) == t

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
        assert big_t(w, 0) == T(b)

    def test_direct_build_covers_its_point(self):
        rng = random.Random(31)
        xs = [rand_upreal(rng) for _ in range(4)]
        w = build_wrapper(xs)
        for n, x in enumerate(xs):
            assert x in big_t(w, n).branches

    def test_index_without_pair_position_rejected(self):
        w = ShrinkWrapper(
            WrapperScope(3, 1),
            {
                (0, 0): TreeFamily.constant(0, T(ZERO)),
                (0, 1): TreeFamily.constant(0, T(R([1]))),
            },
            (frozenset(),) * 3,
        )
        with pytest.raises(ValueError):
            big_t(w, 2)

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
        with pytest.raises(ValueError):
            big_t(w, 0)


def pair_wrapper_families(t1, t2):
    return ShrinkWrapper(
        WrapperScope(2, 1),
        {(0, 0): TreeFamily.constant(0, t1), (0, 1): TreeFamily.constant(0, t2)},
        (frozenset(), frozenset()),
    )


class TestSepBound:
    def test_vacuous_when_no_disjoint_pairs(self):
        x = R([1, 2])
        w = build_wrapper([x, x])
        assert sep_bound(w, 0) == 0
        assert sep_bound(w, 1) == 0

    def test_single_disjoint_pair(self):
        w = build_wrapper([ZERO, R([1])])
        assert sep_bound(w, 1) == 1

    def test_max_over_positions(self):
        fams = {
            (0, 0): TreeFamily.constant(0, T(ZERO)),
            (0, 1): TreeFamily.constant(0, T(R([9]))),
            (1, 0): TreeFamily.constant(1, T(ZERO)),
            (1, 2): TreeFamily.constant(1, T(R([1]))),
            (2, 1): TreeFamily.constant(2, T(R([0, 1]))),
            (2, 2): TreeFamily.constant(2, T(R([0, 2]))),
        }
        w = three_point_wrapper(fams)
        assert sep_bound(w, 2) == 2  # levels 1 and 2 across the two positions


class TestDominatingValues:
    def test_g_full_on_a_resident_point(self):
        x = R([1, 2])
        w = build_wrapper([x, x])
        assert g_full(w, x, 0) == 0
        assert g_full(w, x, 1) == 1

    def test_g_full_is_the_stated_max(self):
        xs = [ZERO, R([1]), R([0, 0, 0, 0, 1])]
        w = build_wrapper(xs)
        for n in range(3):
            for x in (*xs, R([3]), R([0, 0, 7])):
                want = max(
                    exit_level(big_t(w, n), x), sep_bound(w, n), n
                )
                assert g_full(w, x, n) == want
                assert g_full(w, x, n) >= n
        assert g_full(w, ZERO, 2) == 5  # exits the far point's tree at level 5

    def test_g_simple_examples(self):
        trees = [T(ZERO), T(R([0, 0, 0, 1]))]
        assert g_simple(trees, ZERO, 0) == 0
        assert g_simple(trees, R([1]), 1) == max(1, 1)
        assert g_simple(trees, ZERO, 1) == 4
        with pytest.raises(ValueError):
            g_simple(trees, ZERO, 2)


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

    def test_rows_match_the_per_index_definitions(self):
        rng = random.Random(44)
        for trial in range(6):
            xs = [rand_upreal(rng, alphabet=3) for _ in range(5)]
            if trial % 2:
                xs[3] = xs[1]
            decoys = [rand_upreal(rng, alphabet=3) for _ in range(2 + trial)]
            scope = WrapperScope(5, 10 if trial < 4 else 7)
            w = build_padded_wrapper(xs, scope=scope, decoys=decoys, seed=trial)
            report = check_domination(xs, battery_for(w, xs, rng), wrapper=w)
            for row in report.rows:
                x = row.x
                assert row.f_values == tuple(fx(xs, x, n) for n in range(5))
                assert row.g_values == tuple(g_full(w, x, n) for n in range(5))
                assert row.in_tree == tuple(x in big_t(w, n).branches for n in range(5))

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

    def test_missing_family_error_matches_big_t(self):
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
        with pytest.raises(ValueError) as direct:
            big_t(w, 0)
        with pytest.raises(ValueError) as batch:
            check_domination([ZERO, R([1]), R([2])], [ZERO], wrapper=w)
        assert str(batch.value) == str(direct.value)

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
        assert row.f_values == tuple(fx(xs, probe, n) for n in range(3)) == (0, 100, 0)
        assert row.g_values == tuple(g_simple(trees, probe, n) for n in range(3))
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


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
