"""Compare two sets of end-to-end benchmark results.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py DIR_A DIR_B

``DIR_A`` holds the parent commit's results and ``DIR_B`` the change's:
the per-workload JSON files ``run.py --out DIR`` writes, one per seed.
Runs are paired by seed.  For each (metric, workload) pair this prints
each side's first quartile, median and third quartile, and a verdict:

``regression``
    B's median is worse than A's by more than the metric's bound in
    ``BENCHMARK.json``.
``unresolved``
    Either side's own quartile spread (as a share of its median) is wider
    than the bound, and not every run of B reads better than every run
    of A.
``gain``
    B wins at least nine tenths of the seed pairs (ties count for
    neither) and the medians differ by more than A's quartile spread.
``ok``
    None of the above: no regression beyond the bound.

Exits 1 when any pair regresses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from results import load_declarations, quartiles

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict:
    """{(workload, metric): {seed: value}} from one results directory."""
    runs: dict = {}
    for path in sorted(directory.glob("*-seed*.json")):
        record = json.loads(path.read_text())
        seed = record["labels"]["seed"]
        for name, metric in record["metrics"].items():
            runs.setdefault((record["workload"], name), {})[seed] = metric["value"]
    return runs


def verdict(a: dict, b: dict, better: str, bound: float) -> dict:
    """Compare one (metric, workload) pair; ``a``/``b`` map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    change = (qb[1] - qa[1]) / qa[1]
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) > 0)
    all_better = all(sign * (y - x) > 0 for x in a.values() for y in b.values())
    if sign * change < -bound:
        outcome = "regression"
    elif max(spread_a, spread_b) > bound and not all_better:
        outcome = "unresolved"
    elif seeds and wins >= WIN_SHARE * len(seeds) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        outcome = "gain"
    else:
        outcome = "ok"
    return {
        "a": qa, "b": qb, "change": change, "spread_a": spread_a,
        "spread_b": spread_b, "wins": wins, "pairs": len(seeds), "verdict": outcome,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path, help="results of the parent commit")
    parser.add_argument("dir_b", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    declared = load_declarations(ROOT / "BENCHMARK.json")["end_to_end"]
    runs_a, runs_b = load_runs(args.dir_a), load_runs(args.dir_b)
    print(
        f"{'workload':<14} {'metric':<12} {'A q1 / median / q3':>30} "
        f"{'B q1 / median / q3':>30} {'change':>8} {'spread A':>8} "
        f"{'spread B':>8} {'bound':>6} {'wins':>6}  verdict"
    )
    regressions = 0
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, name = key
        if name not in declared:
            continue
        metric = declared[name]
        row = verdict(runs_a[key], runs_b[key], metric["better"], metric["bound"])
        regressions += row["verdict"] == "regression"
        a = " / ".join(f"{v:.4g}" for v in row["a"])
        b = " / ".join(f"{v:.4g}" for v in row["b"])
        print(
            f"{workload:<14} {name:<12} {a:>30} {b:>30} {row['change']:>+8.1%} "
            f"{row['spread_a']:>8.1%} {row['spread_b']:>8.1%} {metric['bound']:>6.0%} "
            f"{row['wins']:>2}/{row['pairs']:<3}  {row['verdict']}"
        )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
