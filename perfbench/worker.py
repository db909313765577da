"""The workload process: set up, then run closed-loop jobs and report.

Run by ``run.py``, one process per measurement, one thread, one client: the
next job starts when the previous verdict returns.  Prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --spawned-at T [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time includes interpreter start and the import.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# At least this many latencies, so ten lie beyond p90.
MIN_JOBS = 100
# Hard stop for the measuring loop, well inside a run's time limit.
MAX_SECONDS = 120.0


# A fixed pure-Python loop timed before and after the measurement; it is
# printed, not reported as a metric, to tell drift of a shared machine from
# a change in the program.
CALIBRATION_LOOPS = 1_000_000


def calibration_ms(loops: int = CALIBRATION_LOOPS) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i
    return 1e3 * (time.perf_counter() - start)


class BenchError(Exception):
    """The run cannot give numbers: wrong program, or not deterministic."""


def import_program():
    """Import ``shrinkwrap`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "shrinkwrap" / "__init__.py").is_file():
        raise BenchError(f"no shrinkwrap package under {SRC}")
    sys.path.insert(0, str(SRC))
    import shrinkwrap

    if Path(shrinkwrap.__file__).resolve().parent != (SRC / "shrinkwrap").resolve():
        raise BenchError(f"imported shrinkwrap from {shrinkwrap.__file__}, not {SRC}")


def run_job(job) -> tuple[float, bool]:
    """Time one job's call; then check its verdict, untimed.

    A full collection first gives every job the same collector state, so
    collections triggered by earlier jobs' garbage do not land in it.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        result = job.call()
    except Exception:  # an error is a failed job, not a stopped run
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    try:
        return elapsed, bool(job.check(result))
    except Exception:  # a malformed output is a wrong answer
        return elapsed, False


def _untraced(workloads, workload, seed, seconds, work):
    """Whole cycles of jobs 0, 1, 2, ... until ``seconds`` have passed and
    enough ran."""
    latencies, failed, digests = [], 0, {}
    cycle = workloads.CYCLE[workload]
    began = time.monotonic()
    i = 0
    while i % cycle or i < MIN_JOBS or time.monotonic() - began < seconds:
        if time.monotonic() - began > MAX_SECONDS:
            raise BenchError(f"{i} jobs did not finish within {MAX_SECONDS} s")
        job = workloads.make_job(workload, seed, i, work)
        elapsed, ok = run_job(job)
        latencies.append(elapsed)
        failed += not ok
        if ok and job.artifact:
            digests[i] = workloads.digest(job.artifact)
        i += 1
    # Run the last build again: it must write the same bytes.
    if digests:
        last = max(digests)
        job = workloads.make_job(workload, seed, last, work)
        _, ok = run_job(job)
        if not ok or workloads.digest(job.artifact) != digests[last]:
            raise BenchError("two runs of one build job wrote different artifacts")
    ms = sorted(1e3 * t for t in latencies)
    cuts = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "attempted": len(ms),
        "failed": failed,
        "metrics": {
            "jobs_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
            "job_ms_p50": (cuts[4], "ms"),
            "job_ms_p90": (cuts[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "samples": len(ms),
        "beyond_p90": sum(1 for t in ms if t > cuts[8]),
    }


def _round(workloads, workload, seed, work, tracer=None):
    """One cycle of jobs; returns (timed seconds, failed, digests)."""
    total, failed, digests = 0.0, 0, {}
    for i in range(workloads.CYCLE[workload]):
        job = workloads.make_job(workload, seed, i, work)
        if tracer:
            tracer.active = True
        try:
            elapsed, ok = run_job(job)
        finally:
            if tracer:
                tracer.active = False
        total += elapsed
        failed += not ok
        if ok and job.artifact:
            digests[i] = workloads.digest(job.artifact)
    return total, failed, digests


def _traced(workloads, tracer_mod, workload, seed, seconds, work):
    """Alternate plain and traced rounds of the same jobs.

    Per-layer numbers are means per job over the traced rounds; the ratio of
    traced to plain time is the tracing overhead.  Counts and build bytes
    must agree between rounds.
    """
    plain = traced = 0.0
    attempted = failed = rounds = 0
    tracer = tracer_mod.Tracer()
    first_counts = first_digests = None
    began = time.monotonic()
    while rounds < 2 or (time.monotonic() - began < min(seconds, MAX_SECONDS)):
        t, f, digests = _round(workloads, workload, seed, work)
        plain += t
        failed += f
        before = tracer.counts()
        tracer.install()
        try:
            t, f, traced_digests = _round(workloads, workload, seed, work, tracer)
        finally:
            tracer.uninstall()
        traced += t
        failed += f
        attempted += 2 * workloads.CYCLE[workload]
        after = tracer.counts()
        counts = {k: v - before.get(k, 0) for k, v in after.items()}
        if first_counts is None:
            first_counts, first_digests = counts, digests
        if counts != first_counts:
            changed = sorted(k for k in counts.keys() | first_counts.keys()
                             if counts.get(k) != first_counts.get(k))
            raise BenchError(f"traced rounds disagree on counts: {changed[:5]}")
        if digests != first_digests or traced_digests != first_digests:
            raise BenchError("repeated build jobs wrote different artifacts")
        rounds += 1
    metrics = tracer.metrics(rounds * workloads.CYCLE[workload])
    metrics["trace_overhead_share"] = (traced / plain - 1.0, "share")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": rounds,
        "counts": first_counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = Path(__file__).resolve().parent / ".work"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="job-", dir=scratch)
    try:
        import_program()
        import tracer as tracer_mod
        import workloads

        # The same warm-up input for every seed, so set-up time does not
        # depend on the seed.
        warmup = workloads.make_job(args.workload, 0, 0, work, stream="warmup")
        _, ok = run_job(warmup)
        setup_s = time.monotonic() - args.spawned_at
        if not ok:
            raise BenchError("the warm-up job failed")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        before = calibration_ms()
        if args.trace:
            result = _traced(workloads, tracer_mod, args.workload, args.seed, args.seconds, work)
        else:
            result = _untraced(workloads, args.workload, args.seed, args.seconds, work)
        result["setup_s"] = setup_s
        result["calibration_ms"] = [before, calibration_ms()]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
