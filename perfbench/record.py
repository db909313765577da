"""Record every metric of every workload, with the machine and headroom.

    python3 perfbench/record.py [--seed N] [--seconds S] [--out FILE]

Runs each workload once untraced and twice traced with one seed, checks
that the two traced runs counted exactly the same work, and prints every
end-to-end and per-layer metric by name and unit.  The JSON record (to
``--out``, else stdout) also holds the machine, the commit, the ``src/``
line count, a fixed pure-Python calibration loop (to tell drift of a
shared machine from a code change), each timed acceptance check's
elapsed/limit ratio, and the layer predictions from ``layers.json``.
Exits 2 on any failed job or disagreeing counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import subprocess
import sys

import run
import worker

CALIBRATION_LOOPS = 20_000_000
# A verdict line of tests/test_acceptance.py; pytest's progress dots may
# precede it on the same line.
VERDICT = re.compile(
    r"acceptance (\d+)/9 ([^:\n]+): (PASS|FAIL)[^\n]*? in ([\d.]+)s(?: \(limit (\d+)s\))?"
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (run.ROOT / "src").rglob("*.py")
    )


def acceptance_headroom() -> list[dict]:
    """Run the acceptance battery once; elapsed/limit of each timed check."""
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    rows = []
    for m in VERDICT.finditer(proc.stdout):
        number, name, status, elapsed, limit = m.groups()
        row = {"check": int(number), "name": name, "status": status, "elapsed_s": float(elapsed)}
        if limit:
            row["limit_s"] = float(limit)
            row["ratio"] = float(elapsed) / float(limit)
        rows.append(row)
    if proc.returncode != 0:
        rows.append({"error": f"pytest exited {proc.returncode}"})
    return rows


def _print_metrics(workload: str, title: str, metrics: dict) -> None:
    print(f"{workload} {title}:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")


def record_workload(workload: str, seed: int, seconds: float) -> dict:
    plain = run.measure(workload, seed, seconds, 0)
    traced = [run.measure(workload, seed, seconds, 1) for _ in range(2)]
    if traced[0]["counts"] != traced[1]["counts"]:
        raise run.RunError(f"{workload}: two traced runs with seed {seed} counted different work")
    end_to_end = dict(plain["metrics"])
    end_to_end["setup_s"] = (plain["setup_s"], "s")
    end_to_end["failed_share"] = (plain["failed"] / plain["attempted"], "share")
    end_to_end["samples"] = (plain["samples"], "count")
    per_layer = traced[0]["metrics"]
    _print_metrics(workload, "end to end", end_to_end)
    _print_metrics(workload, "per layer (traced, mean per job)", per_layer)
    failed = plain["failed"] + sum(t["failed"] for t in traced)
    if failed:
        raise run.RunError(f"{workload}: {failed} jobs failed")
    return {
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "trace_overhead_share_runs": [t["metrics"]["trace_overhead_share"][0] for t in traced],
        "counts": traced[0]["counts"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(run.HERE / "layers.json") as fh:
        layers = json.load(fh)
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
        },
        "commit": commit(),
        "src_lines": src_lines(),
        "calibration_s": worker.calibration_ms(CALIBRATION_LOOPS) / 1e3,
        "calibration_loops": CALIBRATION_LOOPS,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    print(json.dumps({k: record[k] for k in ("machine", "commit", "src_lines", "calibration_s")}))
    try:
        for workload in run.WORKLOADS:
            record["workloads"][workload] = record_workload(workload, args.seed, args.seconds)
    except run.RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            (run.HERE / ".work").rmdir()
    record["acceptance"] = acceptance_headroom()
    for row in record["acceptance"]:
        if "ratio" in row:
            print(f"acceptance {row['check']}/9 {row['name']}: {row['ratio']:.3f} of its limit")
    record["why"] = layers["workloads"]
    record["predictions"] = layers["predictions"]
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
