"""Seeded inputs, jobs and known answers for the three benchmark workloads.

Every job is rebuilt from (seed, workload, job index) just before it runs,
so a run never holds more than one job's inputs.  The generators here are
the benchmark's own; the expected verdict of each input follows from how it
was built, never from running a verifier on it.

Job kinds cycle in a fixed order per workload, so the mix of a run does not
depend on the seed; the seed only changes the values inside each input.

- ``build``: ``shrinkwrap build`` on 8-11 points, half the jobs with forced
  duplicate points, decoy pools of 0, 4, 10 or 20.  Every ninth job feeds a
  decoy file holding a sequence with an empty period, which must exit 2.
- ``check``: ``verify --cond4``, ``dominate --wrapper`` and ``dominate
  --trees`` on padded wrappers over 8-10 points with 2-12 decoys.  One
  verify job in four gets a wrapper whose two trees at one pair overlap
  without being equal (exit 1); one tree job in four gets a tree that misses
  its own point (exit 1).
- ``fusion-sweep``: ``verify_fusion_helper`` then ``fusion_intersect`` on
  depth-4 refinement maps at horizons 11-13, some with a child tree that does
  not refine its parent (``passed`` false); plus ``brute_obstruction`` over
  the 8-point universe of acceptance check 7, uniform with two branches and
  non-uniform with one.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from shrinkwrap import cli, codec, sacks, silver, wrapper
from shrinkwrap.core import BranchTree, UPReal
from shrinkwrap.sacks import HorizonPerfectTree, RMap
from shrinkwrap.silver import GroundUniverse, SilverTree
from shrinkwrap.wrapper import ShrinkWrapper, TreeFamily

# Jobs per cycle of kinds and sizes.  A run measures whole cycles, so its
# mix is the same for every seed.
CYCLE = {"build": 36, "check": 36, "fusion-sweep": 20}

# A real is handled here as a canonical (prefix, period) pair of tuples.
Real = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass
class Job:
    """One closed-loop request: a timed call and the untimed checks on it."""

    kind: str
    call: Callable[[], object]
    # True when the call's result matches the known answer of the input.
    check: Callable[[object], bool]
    # Output file whose bytes must repeat when the same job runs again.
    artifact: Optional[str] = None


# ---------------------------------------------------------------- reals


def canonical(prefix, period) -> Real:
    """Shortest period, then shortest prefix, for the sequence denoted."""
    prefix, period = list(prefix), tuple(period)
    n = len(period)
    root = next(d for d in range(1, n + 1) if n % d == 0 and period == period[:d] * (n // d))
    period = list(period[:root])
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period.insert(0, period.pop())
    return tuple(prefix), tuple(period)


def random_real(rng: random.Random, alphabet: int = 4) -> Real:
    prefix = [rng.randrange(alphabet) for _ in range(rng.randrange(7))]
    period = [rng.randrange(alphabet) for _ in range(rng.randint(1, 6))]
    return canonical(prefix, period)


def value_at(x: Real, i: int) -> int:
    prefix, period = x
    return prefix[i] if i < len(prefix) else period[(i - len(prefix)) % len(period)]


def mutate(x: Real, level: int, bump: int) -> Real:
    """The sequence equal to ``x`` except one larger value at ``level``."""
    prefix, period = x
    length = max(level + 1, len(prefix))
    values = [value_at(x, i) for i in range(length)]
    values[level] += bump
    phase = (length - len(prefix)) % len(period)
    return canonical(values, period[phase:] + period[:phase])


def random_points(rng: random.Random, n: int, duplicates: bool) -> list[Real]:
    """``n`` random points, with one to three copied onto others if asked.

    Copies never make every point equal, so some pair always differs.
    """
    while True:
        points = [random_real(rng) for _ in range(n)]
        if duplicates:
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n), 2)
                points[i] = points[j]
        if len(set(points)) >= 2:
            return points


def as_up(x: Real) -> UPReal:
    return UPReal(x[0], x[1])


def as_json(x: Real) -> dict:
    return {"prefix": list(x[0]), "period": list(x[1])}


# ---------------------------------------------------------------- CLI jobs


def _run_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return cli.run(argv)


def _save_reals(path: str, reals) -> None:
    codec.save(path, tuple(as_up(x) for x in reals), "reals")


def _read_payload(path: str, kind: str):
    with open(path, "rb") as fh:
        document = json.loads(fh.read())
    if document.get("kind") != kind:
        raise ValueError(f"{path}: expected a {kind!r} artifact")
    return document["payload"]


def _pair_positions(n: int):
    """(pair position, smaller index, larger index) for every pair below n."""
    for b in range(1, n):
        for a in range(b):
            yield b * (b - 1) // 2 + a, a, b


def _wrapper_artifact_ok(path: str, points: list[Real]) -> bool:
    """Structural check of a built wrapper, read as plain JSON.

    Full scope, a family for both indices of every pair, each point in its
    own isolated set, and some tree of every family through the point.
    """
    payload = _read_payload(path, "wrapper")
    n = len(points)
    if payload["scope"] != {"N": n, "Ntilde": n * (n - 1) // 2}:
        return False
    branches: dict[tuple[int, int], list] = {}
    for entry in payload["F"]:
        branches.setdefault((entry["pair_index"], entry["n"]), []).extend(
            entry["tree"]["branches"]
        )
    expected = {(nt, k) for nt, a, b in _pair_positions(n) for k in (a, b)}
    if set(branches) != expected:
        return False
    mine = [as_json(x) for x in points]
    if any(mine[k] not in payload["I"][k] for k in range(n)):
        return False
    return all(mine[k] in found for (_, k), found in branches.items())


def _build_job(rng: random.Random, i: int, work: str) -> Job:
    # Per cycle: 32 builds, one per (size, pool, duplicates), and 4 negatives.
    pos = i % CYCLE["build"]
    combo = pos - pos // 9
    n = 8 + combo % 4
    pool = (0, 4, 10, 20)[(combo // 4) % 4]
    points = random_points(rng, n, duplicates=combo >= 16)
    reals, decoys, out = (os.path.join(work, f) for f in ("reals.json", "decoys.json", "out.json"))
    _save_reals(reals, points)
    if os.path.exists(out):
        os.remove(out)
    os.environ["SHRINKWRAP_SEED"] = str(rng.randrange(1 << 31))
    argv = ["build", "--reals", reals, "--out", out]
    if pos % 9 == 8:
        # A decoy with an empty period is unusable input: exit 2, no output.
        bad = [as_json(random_real(rng)) for _ in range(3)] + [{"prefix": [1], "period": []}]
        with open(decoys, "w") as fh:
            json.dump({"kind": "reals", "version": codec.VERSION, "payload": bad}, fh)
        argv += ["--decoys", decoys]
        return Job("build-bad-decoy", lambda: _run_cli(argv),
                   lambda rc: rc == 2 and not os.path.exists(out))
    if pool:
        _save_reals(decoys, [random_real(rng) for _ in range(pool)])
        argv += ["--decoys", decoys]
    return Job("build", lambda: _run_cli(argv),
               lambda rc: rc == 0 and _wrapper_artifact_ok(out, points), artifact=out)


def _battery(rng: random.Random, points: list[Real], branches) -> list[Real]:
    """Points, every branch, then 200 probes each mutated at one level.

    The first probe follows point 0 past level 1, which the missing-point
    negative relies on.
    """
    probes = list(points) + sorted(branches)
    probes.append(mutate(points[0], rng.randint(2, 11), rng.randint(1, 3)))
    probes += [
        mutate(rng.choice(points), rng.randrange(12), rng.randint(1, 3)) for _ in range(199)
    ]
    return probes


def _padded(rng: random.Random, points: list[Real], decoys: int) -> ShrinkWrapper:
    return wrapper.build_padded_wrapper(
        [as_up(x) for x in points],
        decoys=[as_up(random_real(rng)) for _ in range(decoys)],
        seed=rng.randrange(1 << 31),
    )


def _overlapping(rng: random.Random, w: ShrinkWrapper, points: list[Real]) -> ShrinkWrapper:
    """Give one pair two trees that share a branch but differ elsewhere.

    Each tree holds its own (different) point plus one common extra branch,
    so the pair is neither equal, disjoint nor a shared singleton: law 3
    fails whatever the rest of the wrapper holds.
    """
    pairs = [(nt, a, b) for nt, a, b in _pair_positions(len(points)) if points[a] != points[b]]
    nt, a, b = rng.choice(pairs)
    common = random_real(rng)
    while common in (points[a], points[b]):
        common = random_real(rng)
    families = dict(w.families)
    for k in (a, b):
        tree = BranchTree(frozenset({as_up(points[k]), as_up(common)}))
        families[(nt, k)] = TreeFamily.constant(nt, tree)
    return ShrinkWrapper(w.scope, families, w.isolated)


def _point_trees(rng: random.Random, points: list[Real]) -> list[set[Real]]:
    """One tree per point: the point plus up to two fresh mutations of it.

    No extra branch is a point or sits in another tree, so two trees share
    a branch only when their points are equal: the simple rule holds.
    """
    taken = set(points)
    trees = []
    for x in points:
        tree = {x}
        for _ in range(rng.randrange(3)):
            m = mutate(x, rng.randrange(8), rng.randint(1, 3))
            if m not in taken:
                tree.add(m)
                taken.add(m)
        trees.append(tree)
    return trees


def _away_from(x: Real) -> Real:
    """A constant sequence that differs from ``x`` at level 0."""
    return canonical((), (value_at(x, 0) + 1,))


def _domination_ok(path: str, n_probes: int, passed: bool) -> bool:
    payload = _read_payload(path, "report")
    return payload["passed"] is passed and len(payload["rows"]) == n_probes


CHECK_KINDS = (
    "verify", "dominate-wrapper", "dominate-trees", "verify",
    "dominate-wrapper", "dominate-trees", "verify", "dominate-wrapper",
    "dominate-trees-miss", "verify-overlap", "dominate-wrapper", "dominate-trees",
)


def _check_job(rng: random.Random, i: int, work: str) -> Job:
    pos = i % CYCLE["check"]
    kind = CHECK_KINDS[pos % len(CHECK_KINDS)]
    block = pos // len(CHECK_KINDS)
    n = 8 + block
    points = random_points(rng, n, duplicates=(pos + block) % 2 == 1)
    reals, wpath, trees_path, battery, out = (
        os.path.join(work, f)
        for f in ("reals.json", "wrapper.json", "trees.json", "battery.json", "report.json")
    )
    _save_reals(reals, points)
    if os.path.exists(out):
        os.remove(out)

    if kind.startswith("dominate-trees"):
        trees = _point_trees(rng, points)
        miss = kind == "dominate-trees-miss"
        if miss:
            trees[0] = {_away_from(points[0])}
        codec.save(trees_path, tuple(BranchTree(frozenset(map(as_up, t))) for t in trees), "trees")
        probes = _battery(rng, points, set().union(*trees))
        _save_reals(battery, probes)
        argv = ["dominate", "--reals", reals, "--trees", trees_path, "--battery", battery,
                "--out", out]
        expected = 1 if miss else 0
        return Job(kind, lambda: _run_cli(argv),
                   lambda rc: rc == expected and _domination_ok(out, len(probes), not miss))

    w = _padded(rng, points, 2 + (pos * 7) % 11)
    if kind == "verify-overlap":
        w = _overlapping(rng, w, points)
    codec.save(wpath, w, "wrapper")
    if kind.startswith("verify"):
        argv = ["verify", "--wrapper", wpath, "--reals", reals, "--cond4"]
        expected = 1 if kind == "verify-overlap" else 0
        return Job(kind, lambda: _run_cli(argv), lambda rc: rc == expected)

    branches = {
        canonical(b.prefix, b.period)
        for fam in w.families.values()
        for tree in fam.distinct_trees()
        for b in tree.branches
    }
    probes = _battery(rng, points, branches)
    _save_reals(battery, probes)
    argv = ["dominate", "--reals", reals, "--wrapper", wpath, "--battery", battery,
            "--out", out]
    return Job(kind, lambda: _run_cli(argv),
               lambda rc: rc == 0 and _domination_ok(out, len(probes), True))


# ---------------------------------------------------------------- fusion


# Share of the nodes free to skip a split that do, at every level.
SKIP_SHARE = 0.45


def random_horizon_tree(rng: random.Random, horizon: int) -> frozenset:
    """Node set of a binary tree truncated at ``horizon``.

    Grown level by level.  A node that kept one child must split next, so
    the tree never goes two levels without a split; of the nodes free to
    skip, a fixed share (chosen at random) does, so the size of the tree
    depends on the horizon alone and only its shape on the seed.
    """
    nodes = {()}
    frontier = [((), True)]
    for _ in range(horizon):
        free = [k for k, (_, may_skip) in enumerate(frontier) if may_skip]
        skip = set(rng.sample(free, round(SKIP_SHARE * len(free))))
        grown = []
        for k, (t, _) in enumerate(frontier):
            if k in skip:
                grown.append((t + (rng.randrange(2),), False))
            else:
                grown += [(t + (0,), True), (t + (1,), True)]
        nodes.update(t for t, _ in grown)
        frontier = grown
    return frozenset(nodes)


def _first_split(nodes: frozenset, horizon: int) -> tuple[int, ...]:
    t = ()
    while len(t) < horizon and ((t + (0,)) in nodes) != ((t + (1,)) in nodes):
        t += (0,) if (t + (0,)) in nodes else (1,)
    return t


def random_rmap(rng: random.Random, depth: int, horizon: int) -> dict:
    """Word -> node set; each child keeps the cone below one side of its
    parent's first split, so children refine parents and their stems part."""
    trees = {(): random_horizon_tree(rng, horizon)}
    for level in range(depth):
        for s in itertools.product((0, 1), repeat=level):
            nodes = trees[s]
            stem = _first_split(nodes, horizon)
            for bit in (0, 1):
                cut = stem + (bit,)
                trees[s + (bit,)] = frozenset(
                    u for u in nodes if u[: len(cut)] == cut or cut[: len(u)] == u
                )
    return trees


def _full_tree(horizon: int) -> frozenset:
    return frozenset(
        w for length in range(horizon + 1) for w in itertools.product((0, 1), repeat=length)
    )


def _fusion_job(rng: random.Random, kind: str, horizon: int) -> Job:
    depth = 4
    trees = random_rmap(rng, depth, horizon)
    broken = kind == "fusion-broken"
    if broken:
        # The full tree is never inside a parent that was cut below a node.
        word = tuple(rng.randrange(2) for _ in range(depth))
        trees[word] = _full_tree(horizon)
    rmap = RMap(depth, {s: HorizonPerfectTree(horizon, nodes) for s, nodes in trees.items()})
    last = trees[(0,) * depth]

    def call():
        report = sacks.verify_fusion_helper(rmap)
        if not report.passed:
            return report, None
        return report, sacks.fusion_intersect(report.chain[1:])

    def check(result) -> bool:
        report, fused = result
        if broken:
            return not report.passed and fused is None
        return (
            report.passed
            and len(report.chain) == depth + 1
            and fused is not None
            and fused.horizon == horizon
            and fused.nodes <= report.chain[-1].nodes
            and report.chain[-1].nodes >= last
        )

    return Job(kind, call, check)


# The universe and Silver window of acceptance check 7; the staged sequence
# lies outside the universe, so no candidate survives.
_UNIVERSE = (
    ((), (0,)), ((1,), (0,)), ((0, 1), (0,)), ((), (1,)),
    ((0,), (1,)), ((1, 1), (0,)), ((0, 0, 1), (0,)), ((1, 0), (1,)),
)


def brute_total(size: int, max_branches: int, uniform: bool) -> int:
    """Closed-form candidate count of the sweep over a universe of ``size``."""
    trees = sum(comb(size, k) for k in range(1, max_branches + 1))
    isolated = sum(comb(size, k) for k in range(0, max_branches + 1))
    choices = trees if uniform else trees * trees
    return choices**2 * isolated**2


def _brute_job(kind: str) -> Job:
    uniform = kind == "brute-uniform"
    max_branches = 2 if uniform else 1
    universe = GroundUniverse(frozenset(as_up(x) for x in _UNIVERSE))
    window = SilverTree(6, frozenset({1, 3}), {0: 0, 2: 1, 4: 0, 5: 1})
    expected = brute_total(len(_UNIVERSE), max_branches, uniform)
    return Job(
        kind,
        lambda: silver.brute_obstruction(universe, window, max_branches=max_branches,
                                         s_uniform=uniform),
        lambda s: not s.vacuous and s.survivors == 0 and s.total == expected,
    )


# 20 jobs: 16 fusion, 2 broken fusion, 1 non-uniform and 1 uniform sweep.
# The uniform sweep is the slowest job, above p90, so p50 and p90 fall among
# fusion jobs of many sizes, away from any boundary between kinds.  A sweep
# always does the same work, so a larger share of sweeps would put p50 or
# p90 on a block of identical jobs, which jumps with a shared machine's speed.
FUSION_KINDS = (
    "fusion", "fusion", "fusion", "fusion", "brute-nonuniform",
    "fusion", "fusion", "fusion-broken", "fusion", "fusion",
    "fusion", "fusion", "fusion", "fusion", "brute-uniform",
    "fusion", "fusion", "fusion-broken", "fusion", "fusion",
)


def _fusion_sweep_job(rng: random.Random, i: int, work: str) -> Job:
    pos = i % CYCLE["fusion-sweep"]
    kind = FUSION_KINDS[pos]
    if kind.startswith("brute"):
        return _brute_job(kind)
    return _fusion_job(rng, kind, 11 + pos % 3)


_MAKERS = {"build": _build_job, "check": _check_job, "fusion-sweep": _fusion_sweep_job}


def make_job(workload: str, seed: int, index: int, work: str, stream: str = "job") -> Job:
    """Generate job ``index`` of ``workload`` for ``seed``; inputs go to ``work``."""
    rng = random.Random(f"{workload}/{stream}/{seed}/{index}")
    return _MAKERS[workload](rng, index, work)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
