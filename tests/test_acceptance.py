"""End-to-end acceptance battery.

Each test exercises one numbered acceptance check at its full advertised
scale and prints a single verdict line; wall-clock limits are asserted
where a check is timed.  Everything here goes through public entry points
only, with expected values recomputed by independent means (naive scans,
exhaustive window tallies, or closed-form counts frozen in the asserts).
"""

import itertools
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from gen import (
    mutate_at_level,
    naive_first_diff,
    naive_sort_key,
    rand_branch_tree,
    rand_rmap,
    rand_silver,
    rand_upreal,
)
from test_wrapper import oracle_classify

from shrinkwrap import codec
from shrinkwrap.cli import run
from shrinkwrap.core import (
    ZERO,
    BranchTree,
    UPReal,
    growth,
    pair_index,
    pair_of,
    shape_code,
    up_first_diff,
    word_code,
)
from shrinkwrap.domination import check_domination, check_hypotheses_simple
from shrinkwrap.sacks import HorizonPerfectTree, fusion_intersect, hpt_leq_n, verify_fusion_helper
from shrinkwrap.silver import (
    GroundUniverse,
    SilverTree,
    brute_obstruction,
    homogenize,
    obstruct,
    replace_below,
    sv_validate,
)
from shrinkwrap.wrapper import (
    ShrinkWrapper,
    TreeFamily,
    WrapperScope,
    build_padded_wrapper,
    build_wrapper,
    classify_pair,
    verify_condition4,
    verify_wrapper,
)


def R(prefix, period=(0,)):
    return UPReal(tuple(prefix), tuple(period))


def _emit(line: str) -> None:
    print(line)
    if sys.stdout is not sys.__stdout__:
        # surface the verdict even while pytest is capturing stdout
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(name: str, limit: float = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(f"acceptance {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = limit is None or elapsed < limit
    note = f" (limit {limit:.0f}s)" if limit is not None else ""
    status = "PASS" if within else "FAIL over time limit"
    _emit(f"acceptance {name}: {status} in {elapsed:.2f}s{note}")
    assert within, f"{name} took {elapsed:.2f}s, limit {limit:.0f}s"


# ---------------------------------------------------------------------------
# 1. first-difference against a naive scan


def test_01_first_difference_matches_naive_scan():
    rng = random.Random(101)
    with criterion("1/9 first-difference oracle", 5.0):
        for trial in range(10_000):
            x = rand_upreal(rng)
            y = x if trial % 20 == 0 else rand_upreal(rng)
            assert up_first_diff(x, y) == naive_first_diff(x, y)
            assert up_first_diff(y, x) == naive_first_diff(x, y)


# ---------------------------------------------------------------------------
# 2. coder laws: pairing bijective on a window, growth and shape finite-to-one


def test_02_coder_laws():
    with criterion("2/9 coder laws"):
        seen = set()
        for nt in range(10_000):
            a, b = pair_of(nt)
            assert 0 <= a < b
            assert pair_index((a, b)) == nt
            seen.add((a, b))
        assert len(seen) == 10_000

        # growth: tally the whole preimage window, then check nothing
        # outside the window can reach a target this small
        counts = Counter()
        for i in range(1001):
            row_prev = None
            for l in range(1001):
                v = growth(i, l)
                if v <= 1000:
                    counts[v] += 1
                if row_prev is not None:
                    assert v > row_prev
                if i:
                    assert v > growth(i - 1, l)
                row_prev = v
        for k in range(1001):
            assert growth(k, 1001) > 1000 and growth(1001, k) > 1000
        assert counts and max(counts.values()) <= 1000
        for t in range(1, 1001):
            assert counts[t] == t

        # shape: binary words up to length 10 carry exactly the codes 0..2046
        words = [w for l in range(11) for w in itertools.product((0, 1), repeat=l)]
        codes = [word_code(w) for w in words]
        assert sorted(codes) == list(range(2047))
        for l in range(11):
            assert word_code((0,) * (l + 1)) == word_code((1,) * l) + 1
        shape_counts = Counter()
        for w, c in zip(words, codes):
            if c > 999:
                continue
            for n in range(1000 - c):
                shape_counts[shape_code(w, n)] += 1
            assert shape_code(w, 1000 - c) > 999
        for t in range(1000):
            assert shape_counts[t] == t + 1


# ---------------------------------------------------------------------------
# 3. pair classification against the enumeration oracle


def _random_wrapper_6x15(rng):
    pool = [rand_upreal(rng, alphabet=3, max_prefix=8, max_period=8) for _ in range(4)]
    reals = [rand_upreal(rng, alphabet=3, max_prefix=8, max_period=8) for _ in range(6)]

    def pick_tree():
        return BranchTree(frozenset(rng.sample(pool, rng.randrange(1, 4))))

    families = {}
    for nt in range(15):
        for n in pair_of(nt):
            overrides = {}
            if nt and rng.random() < 0.4:
                word = tuple(rng.randrange(2) for _ in range(nt))
                overrides[word] = pick_tree()
            families[(nt, n)] = TreeFamily.from_assignments(nt, pick_tree(), overrides)
    if rng.random() < 0.4:
        isolated = tuple(frozenset(pool) for _ in range(6))
    else:
        isolated = tuple(
            frozenset(rng.sample(pool, rng.randrange(0, 4))) for _ in range(6)
        )
    return ShrinkWrapper(WrapperScope(6, 15), families, isolated), reals


def test_03_classifier_matches_enumeration_oracle():
    rng = random.Random(103)
    tags = set()
    with criterion("3/9 pair classification oracle", 10.0):
        for _ in range(200):
            w, reals = _random_wrapper_6x15(rng)
            for _ in range(3):
                nt = rng.randrange(15)
                n1, n2 = pair_of(nt)
                s1 = tuple(rng.randrange(2) for _ in range(nt))
                s2 = tuple(rng.randrange(2) for _ in range(nt))
                got = classify_pair(w, reals, nt, s1, s2)
                want_tag, want_level = oracle_classify(
                    w.tree(nt, n1, s1).branches,
                    w.tree(nt, n2, s2).branches,
                    w.isolated[n1],
                    w.isolated[n2],
                    reals[n1],
                    reals[n2],
                )
                assert got.tag == want_tag
                if want_tag == "3c":
                    assert got.separation_level == want_level
                tags.add(got.tag)
        assert tags == {"3a", "3b", "3c", "violation"}


# ---------------------------------------------------------------------------
# 4. both builders satisfy both verifiers


def _random_points(rng, trial):
    xs = [rand_upreal(rng) for _ in range(8)]
    if trial % 2 == 0:
        for _ in range(rng.randrange(1, 4)):
            i, j = rng.sample(range(8), 2)
            xs[i] = xs[j]
    return xs


def test_04_builders_pass_both_verifiers():
    rng = random.Random(104)
    with criterion("4/9 builder soundness", 10.0):
        for trial in range(200):
            xs = _random_points(rng, trial)
            decoys = [rand_upreal(rng) for _ in range(rng.randrange(0, 3))]
            for w in (
                build_wrapper(xs),
                build_padded_wrapper(xs, decoys=decoys, seed=trial),
            ):
                assert verify_wrapper(w, xs).passed
                assert verify_condition4(w).passed


# ---------------------------------------------------------------------------
# 5. the dominating rule survives a hostile battery


def _battery(rng, xs, branches):
    probes = list(xs) + sorted(branches, key=naive_sort_key)
    probes += [
        mutate_at_level(rng, rng.choice(xs), rng.randrange(12)) for _ in range(100)
    ]
    return probes


def test_05_domination_battery():
    rng = random.Random(105)
    with criterion("5/9 domination battery", 30.0):
        for trial in range(100):
            xs = _random_points(rng, trial)
            decoys = [rand_upreal(rng) for _ in range(rng.randrange(0, 3))]
            wrappers = (
                build_wrapper(xs),
                build_padded_wrapper(xs, decoys=decoys, seed=trial),
            )
            for w in wrappers:
                assert w.scope.covers_all_pairs()
                branches = {
                    b
                    for fam in w.families.values()
                    for t in fam.distinct_trees()
                    for b in t.branches
                }
                report = check_domination(xs, _battery(rng, xs, branches), wrapper=w)
                assert report.pointwise_enforced
                assert report.passed
                for row in report.rows:
                    assert row.violating_pairs == ()
                    assert row.pointwise_failures == ()

        # same, under the simple per-point rule
        for trial in range(50):
            xs = _random_points(rng, trial)
            taken = set(xs)
            trees = []
            for x in xs:
                extras = set()
                for _ in range(rng.randrange(0, 3)):
                    m = mutate_at_level(rng, x, rng.randrange(8))
                    if m not in taken:
                        extras.add(m)
                        taken.add(m)
                trees.append(BranchTree(frozenset({x}) | frozenset(extras)))
            assert check_hypotheses_simple(xs, trees)
            branches = {b for t in trees for b in t.branches}
            report = check_domination(xs, _battery(rng, xs, branches), trees=trees)
            assert report.pointwise_enforced
            assert report.passed
            for row in report.rows:
                assert row.violating_pairs == ()
                assert row.pointwise_failures == ()


# ---------------------------------------------------------------------------
# 6. refinement chains fuse cleanly at the horizon


def test_06_fusion_chains():
    rng = random.Random(106)
    with criterion("6/9 fusion chains", 10.0):
        for _ in range(100):
            rmap = rand_rmap(rng, 4, 12)
            report = verify_fusion_helper(rmap)
            assert report.passed and report.failures == ()
            chain = report.chain
            assert len(chain) == 5
            for n in range(1, len(chain) - 1):
                assert hpt_leq_n(chain[n + 1], chain[n], n - 1)
            fused = fusion_intersect(chain[1:])
            # re-running the constructor re-checks every structural law
            assert HorizonPerfectTree(fused.horizon, fused.nodes) == fused
            assert fused.horizon == 12
            assert fused.gap() <= max(p.gap() for p in chain[1:])
            for p in chain:
                assert fused.nodes <= p.nodes


# ---------------------------------------------------------------------------
# 7. the exhaustive obstruction sweep leaves no survivors


def test_07_brute_obstruction_sweep():
    universe = GroundUniverse(
        {
            ZERO,
            R([1]),
            R([0, 1]),
            R([], (1,)),
            R([0], (1,)),
            R([1, 1]),
            R([0, 0, 1]),
            R([1, 0], (1,)),
        }
    )
    window = SilverTree(6, frozenset({1, 3}), {0: 0, 2: 1, 4: 0, 5: 1})
    with criterion("7/9 obstruction sweep", 60.0):
        summary = brute_obstruction(universe, window, max_branches=2)
        # 36 candidate trees and 37 candidate isolated sets per slot
        assert summary.total == 36 * 36 * 37 * 37 == 1_774_224
        assert not summary.vacuous
        assert summary.survivors == 0
        assert summary.histogram == (("condition2", 1_774_224),)
        assert summary.u not in universe and summary.u != ZERO


# ---------------------------------------------------------------------------
# 8. subtree surgery laws


def _fix_level(m, bit):
    def shrink(cone):
        return frozenset(u for u in cone if len(u) <= m or u[m] == bit)

    return shrink


def test_08_subtree_surgery_laws():
    rng = random.Random(108)
    with criterion("8/9 subtree surgery laws", 5.0):
        from gen import rand_hpt

        for _ in range(100):
            nodes = rand_hpt(rng, rng.randrange(3, 8)).nodes
            by_length = {}
            for t in nodes:
                by_length.setdefault(len(t), []).append(t)
            length = rng.choice([l for l, ts in by_length.items() if ts])
            t = rng.choice(by_length[length])
            assert replace_below(nodes, t, t) == nodes
            s = rng.choice(by_length[length])
            copied = replace_below(nodes, t, s)
            below_t = {u[len(t) :] for u in copied if u[: len(t)] == t}
            below_s = {u[len(s) :] for u in copied if u[: len(s)] == s}
            assert below_t == below_s
            assert replace_below(copied, t, s) == copied
            assert replace_below(copied, s, t) == copied

        for _ in range(100):
            p = rand_silver(rng, rng.randrange(4, 9))
            levels = sorted(p.split_levels)
            k = rng.randrange(len(levels))
            same = homogenize(p, k, lambda cone: cone)
            assert sv_validate(same) and same == p
            m = rng.choice(levels[k:])
            thinned = homogenize(p, k, _fix_level(m, rng.randrange(2)))
            assert sv_validate(thinned)
            assert thinned.horizon == p.horizon
            assert thinned.split_levels <= p.split_levels


# ---------------------------------------------------------------------------
# 9. artifacts round-trip and builds are reproducible byte for byte


def _roundtrip(value, kind=None):
    assert codec.decode(codec.encode(value, kind)) == value
    assert codec.encode(codec.decode(codec.encode(value, kind)), kind) == codec.encode(
        value, kind
    )


def test_09_artifact_round_trip_and_reproducible_builds(tmp_path, monkeypatch):
    rng = random.Random(109)
    with criterion("9/9 artifact stability"):
        xs = tuple(rand_upreal(rng) for _ in range(6))
        _roundtrip(xs)
        _roundtrip(tuple(rand_branch_tree(rng) for _ in range(4)), kind="trees")
        wrapper = build_padded_wrapper(
            xs, decoys=[rand_upreal(rng) for _ in range(2)], seed=9
        )
        _roundtrip(wrapper)
        _roundtrip(rand_silver(rng, 8))
        universe = GroundUniverse(
            frozenset({ZERO} | {rand_upreal(rng, alphabet=2) for _ in range(7)})
        )
        _roundtrip(universe)
        _roundtrip(rand_rmap(rng, 3, 9))
        _roundtrip(verify_wrapper(wrapper, xs))
        _roundtrip(check_domination(xs, xs + (rand_upreal(rng),), wrapper=wrapper))
        _roundtrip(verify_fusion_helper(rand_rmap(rng, 3, 9)))
        obstruction_universe = GroundUniverse(
            {ZERO, R([1]), R([0, 1]), R([], (1,)), R([0], (1,)), R([1, 1]), R([0, 0, 1]), R([1, 0], (1,))}
        )
        window = SilverTree(6, frozenset({1, 3}), {0: 0, 2: 1, 4: 0, 5: 1})
        points = (ZERO, R([1]), R([0, 1]), R([], (1,)))
        _roundtrip(obstruct(build_wrapper(points), obstruction_universe, window))
        _roundtrip(brute_obstruction(obstruction_universe, window, max_branches=1))

        # two builds from the same seed must agree to the byte
        monkeypatch.setenv("SHRINKWRAP_SEED", "37")
        reals_path = str(tmp_path / "xs.json")
        decoys_path = str(tmp_path / "decoys.json")
        codec.save(reals_path, xs)
        codec.save(decoys_path, tuple(rand_upreal(rng) for _ in range(3)))
        outs = []
        for name in ("one.json", "two.json"):
            out = str(tmp_path / name)
            argv = [
                "build", "--reals", reals_path, "--decoys", decoys_path, "--out", out,
            ]
            assert run(argv) == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

        battery_path = str(tmp_path / "battery.json")
        codec.save(battery_path, xs + (rand_upreal(rng),))
        reports = []
        for name in ("r1.json", "r2.json"):
            out = str(tmp_path / name)
            argv = [
                "dominate", "--reals", reals_path, "--wrapper", str(tmp_path / "one.json"),
                "--battery", battery_path, "--out", out,
            ]
            assert run(argv) == 0
            reports.append(Path(out).read_bytes())
        assert reports[0] == reports[1]
