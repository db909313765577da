"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload build|check|fusion-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Set-up is measured in ``SETUP_PROBES`` fresh processes plus the measuring
process itself, and reported as their median.  With ``--trace 0`` the last
line carries the end-to-end metrics, with ``--trace 1`` the per-layer ones.
Exits 2, printing no result, when the program is missing, a job's outputs
are not reproducible, or the worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("build", "check", "fusion-sweep")

SETUP_PROBES = 6
# Per process, so that a whole run ends within 180 s.
PROBE_TIMEOUT = 5
WORKER_TIMEOUT = 140


class RunError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    """Start a worker, wait for it, and return its JSON result."""
    argv = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT if setup_only else WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} worker ran past its time limit") from None
    if proc.returncode != 0:
        raise RunError(f"{workload} worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The measuring worker between set-up probes; returns its result with
    ``setup_s`` replaced by the median over every process.

    Half the probes run before the worker and half after, so that set-up
    is sampled at two times of a shared machine's load.
    """
    probes = 0 if trace else SETUP_PROBES
    setups = [spawn(workload, seed, seconds, trace, True)["setup_s"] for _ in range(probes // 2)]
    result = spawn(workload, seed, seconds, trace, False)
    setups.append(result["setup_s"])
    setups += [spawn(workload, seed, seconds, trace, True)["setup_s"] for _ in range(probes - probes // 2)]
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def summary_line(result: dict, trace: int) -> dict:
    """The contract's result object: metrics with value and unit."""
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    if not trace:
        metrics["setup_s"] = {"value": result["setup_s"], "unit": "s"}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shrinkwrap" / "__init__.py").is_file():
        print(f"error: no shrinkwrap package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        # Workers remove their own job directories; drop the parent if empty.
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()
    line = summary_line(result, args.trace)
    print(
        f"{args.workload}: {result['attempted']} jobs, {result['failed']} failed "
        f"(failed_share {result['failed'] / result['attempted']:.4f}); "
        f"set-up samples {[round(s, 4) for s in result['setup_samples']]}; "
        f"calibration loop {[round(c, 1) for c in result['calibration_ms']]} ms"
        + (f"; {result['samples']} latencies, {result['beyond_p90']} beyond p90"
           if not args.trace else f"; {result['rounds']} traced rounds")
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
