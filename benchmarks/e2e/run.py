"""End-to-end benchmark of the simulator and the live plane.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1 --out /tmp/b            # all five workloads
    python3 benchmarks/e2e/run.py --workload sim-paper --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --workload live-paced --seed 1 --trace   # layer metrics

Prints every metric by name with its unit, checks that the outputs are
correct, writes one JSON result per workload to ``--out`` (spans of a
traced run to ``--out/trace/``), and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Without ``--out`` it
keeps nothing: its scratch directory is removed at exit, so the tree is
left as it was.  Exits non-zero when a
check fails.  Metric names, units and bounds live in ``BENCHMARK.json``
at the repository root; see ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("sim-paper", "sim-scale", "sim-sweep", "live-paced", "live-saturate")
MIN_SECONDS = 3.0
#: Name prefix of the scratch directory a run without ``--out`` uses.
SCRATCH_PREFIX = ".bench-scratch-"


@dataclass(frozen=True)
class Context:
    """What every workload run receives."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    out: Path


def _labels(ctx: Context) -> dict:
    import numpy as np

    commit = None
    if (ctx.root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ctx.root, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


def run_one(ctx: Context, workload: str, declared: dict):
    """Run one workload; (result, {metric: {value, unit}})."""
    import live
    import sim

    module = sim if workload.startswith("sim-") else live
    result = module.run_workload(ctx, workload)
    if ctx.trace:
        unknown = set(result.layers) - set(declared["per_layer"])
        if unknown:
            raise RuntimeError(f"{workload} emitted undeclared layer metrics {sorted(unknown)}")
        # A layer the workload bypasses did no work in it: zero calls, zero time.
        values = {name: float(result.layers.get(name, 0.0)) for name in declared["per_layer"]}
        table = declared["per_layer"]
    else:
        if set(result.metrics) != set(declared["end_to_end"]):
            raise RuntimeError(
                f"{workload} emitted {sorted(result.metrics)}, "
                f"BENCHMARK.json declares {sorted(declared['end_to_end'])}"
            )
        values = {name: float(result.metrics[name]) for name in declared["end_to_end"]}
        table = declared["end_to_end"]
    metrics = {name: {"value": value, "unit": table[name]["unit"]} for name, value in values.items()}
    return result, metrics


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print(
            f"error: {ROOT} is not a checkout of the repository "
            "(src/repro or BENCHMARK.json is missing)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from results import load_declarations

    declared = load_declarations(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all five in turn)")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="measurement time per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result JSON, spans and scratch caches "
                        "(default: a scratch directory in the checkout, removed at exit)")
    args = parser.parse_args(argv)
    if not args.seconds >= MIN_SECONDS:
        # Each live run gives three servers a 0.5 s warm-up and timed load.
        parser.error(f"--seconds must be at least {MIN_SECONDS:g}")
    # SIGTERM unwinds like an exception, so every started server is stopped
    # and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        ctx = Context(ROOT, args.seed, args.seconds, bool(args.trace), args.out.resolve())
        return _run_all(ctx, workloads, declared)
    # Without --out the results are only printed; the worker caches and
    # spans still need a directory, and it stays inside the checkout.
    scratch = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=ROOT))
    try:
        ctx = Context(ROOT, args.seed, args.seconds, bool(args.trace), scratch)
        return _run_all(ctx, workloads, declared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_all(ctx: Context, workloads: list[str], declared: dict) -> int:
    """Run ``workloads`` in turn, print and write their results; the exit code."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        started = time.monotonic()
        try:
            result, metrics = run_one(ctx, workload, declared)
        except Exception:
            traceback.print_exc()
            print(f"error: workload {workload} failed", file=sys.stderr)
            return 1
        labels = {**_labels(ctx), **result.labels, "wall_s": time.monotonic() - started}
        for name, metric in metrics.items():
            print(f"{workload:<14} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
        for name, passed in result.checks:
            status = "skip" if passed is None else "ok  " if passed else "FAIL"
            print(f"{workload:<14} check {status} {name}")
        record = {
            "workload": workload,
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
            "checks": result.checks,
            "labels": labels,
        }
        directory = ctx.out / "trace" if ctx.trace else ctx.out
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{workload}-seed{ctx.seed}.json").write_text(
            json.dumps(record, indent=1, default=str) + "\n"
        )
        summary["correct"] = summary["correct"] and result.correct
        summary["attempted"] += result.attempted
        summary["failed"] += result.failed
        for name, metric in metrics.items():
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            summary["metrics"][key] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
