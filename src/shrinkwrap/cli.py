"""Batch command line over the builders, verifiers, and sweep tools.

Exit codes are the contract: 0 means the requested check passed (or there
was nothing to report), 1 means the outcome is a reported failure (a
broken wrapper law, a dominated-rule violation, a named obstruction
clause), and 2 means the inputs could not be used.  Stdout ordering is
deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from shrinkwrap import codec
from shrinkwrap.codec import CodecError
from shrinkwrap.domination import check_domination
from shrinkwrap.sacks import verify_fusion_helper
from shrinkwrap.silver import brute_obstruction, obstruct
from shrinkwrap.wrapper import (
    build_padded_wrapper,
    build_wrapper,
    verify_condition4,
    verify_wrapper,
)


def _word(s) -> str:
    return "".join(str(b) for b in s) if s else "''"


def _real(x) -> str:
    prefix = ",".join(str(v) for v in x.prefix)
    period = ",".join(str(v) for v in x.period)
    return f"<{prefix};{period}>"


def _seed() -> int:
    raw = os.environ.get("SHRINKWRAP_SEED", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"SHRINKWRAP_SEED must be an unsigned integer, got {raw!r}")
    return int(raw)


def _cmd_verify(args) -> int:
    wrapper = codec.load(args.wrapper, "wrapper")
    reals = codec.load(args.reals, "reals")
    report = verify_wrapper(wrapper, reals)
    violations = list(report.violations)
    passed = report.passed
    if args.cond4:
        extra = verify_condition4(wrapper)
        violations.extend(extra.violations)
        passed = passed and extra.passed
    for v in violations:
        parts = [f"condition {v.condition}", f"pair {v.ntilde}"]
        if v.n is not None:
            parts.append(f"index {v.n}")
        if v.s1 is not None:
            parts.append(f"word {_word(v.s1)}")
        if v.s2 is not None:
            parts.append(f"word {_word(v.s2)}")
        print(f"{', '.join(parts)}: {v.reason}")
    print(
        f"wrapper over {wrapper.scope.n_reals} sequences, "
        f"{wrapper.scope.n_pairs} pair positions: "
        + ("PASS" if passed else f"FAIL ({len(violations)} violations)")
    )
    return 0 if passed else 1


def _cmd_build(args) -> int:
    reals = codec.load(args.reals, "reals")
    if args.decoys is not None:
        decoys = codec.load(args.decoys, "reals")
        wrapper = build_padded_wrapper(reals, decoys=decoys, seed=_seed())
    else:
        wrapper = build_wrapper(reals)
    codec.save(args.out, wrapper)
    print(
        f"wrote wrapper for {wrapper.scope.n_reals} sequences "
        f"({wrapper.scope.n_pairs} pair positions) to {args.out}"
    )
    return 0


def _cmd_dominate(args) -> int:
    reals = codec.load(args.reals, "reals")
    battery = codec.load(args.battery, "reals")
    if args.wrapper is not None:
        report = check_domination(
            reals, battery, wrapper=codec.load(args.wrapper, "wrapper")
        )
    else:
        report = check_domination(reals, battery, trees=codec.load(args.trees, "trees"))
    codec.save(args.out, report)
    for row in report.rows:
        bad_pointwise = row.pointwise_failures if report.pointwise_enforced else ()
        if row.violating_pairs or bad_pointwise:
            print(
                f"probe {_real(row.x)}: violating pairs {list(row.violating_pairs)}, "
                f"pointwise failures {list(bad_pointwise)}"
            )
    print(
        f"checked {len(report.rows)} probes against {report.n_reals} sequences: "
        + ("PASS" if report.passed else "FAIL")
    )
    return 0 if report.passed else 1


def _cmd_fusion(args) -> int:
    rmap = codec.load(args.rmap, "rmap")
    report = verify_fusion_helper(rmap)
    for line in report.failures:
        print(line)
    if not report.passed:
        print(f"fusion helper over depth {rmap.depth}: FAIL")
        return 1
    inter = report.chain[-1]  # fusion_intersect(chain[1:]) repeats the report's link checks
    print(
        f"fusion helper over depth {rmap.depth}: PASS; "
        f"intersection keeps gap {inter.gap()} within horizon {inter.horizon}"
    )
    return 0


def _cmd_silver_obstruct(args) -> int:
    universe = codec.load(args.universe, "ground-universe")
    tree = codec.load(args.tree, "silver-tree")
    if args.wrapper is not None:
        report = obstruct(codec.load(args.wrapper, "wrapper"), universe, tree)
        where = f" at index {2 * report.n + (report.index or 0)}" if report.index is not None else ""
        print(
            f"staged pair {2 * report.n}/{2 * report.n + 1} at pair position "
            f"{report.ntilde}; violated clause {report.clause}{where}"
        )
        print(report.reason)
        return 1
    if args.max_branches is None:
        raise ValueError("--brute needs --max-branches")
    summary = brute_obstruction(universe, tree, max_branches=args.max_branches)
    if summary.vacuous:
        print("no candidates within the bound; vacuous sweep")
        return 0
    hist = ", ".join(f"{clause}: {count}" for clause, count in summary.histogram)
    print(
        f"swept {summary.total} candidates at pair position {summary.ntilde}; "
        f"survivors {summary.survivors}"
    )
    print(f"violations by clause: {hist}")
    return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="shrinkwrap",
        description="Verify, build, and stress shrink wrappers from JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the wrapper laws against a sequence file")
    p.add_argument("--wrapper", required=True)
    p.add_argument("--reals", required=True)
    p.add_argument("--cond4", action="store_true", help="also check the cross-word law")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("build", help="build a wrapper for a sequence file")
    p.add_argument("--reals", required=True)
    p.add_argument("--decoys", help="pad with decoy branches drawn from this file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("dominate", help="run the dominating-rule battery check")
    p.add_argument("--reals", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--wrapper")
    source.add_argument("--trees")
    p.add_argument("--battery", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dominate)

    p = sub.add_parser("fusion", help="verify a refinement map and intersect its chain")
    p.add_argument("--rmap", required=True)
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser(
        "silver-obstruct",
        help="stage the adversarial pair and name the violated wrapper law",
    )
    p.add_argument("--universe", required=True)
    p.add_argument("--tree", required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--wrapper")
    target.add_argument("--brute", action="store_true")
    p.add_argument("--max-branches", type=int)
    p.set_defaults(func=_cmd_silver_obstruct)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (OSError, CodecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
