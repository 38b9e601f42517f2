"""Simulator workloads: sim-paper, sim-scale and sim-sweep.

The parent side (:func:`run_workload`) spawns one worker process at a
time, each with ``processes=1``, and times it from spawn to ready.  The
worker side (this file run as a script) drives the simulator only through
``ClusterSimulation(...).run()`` with the default ``engine="auto"`` and
``repro.experiments.runner.run_figure``, and prints one JSON report as
its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from results import WorkloadResult

HERE = Path(__file__).resolve().parent

#: The Fig. 2 cell: Basic LI, ρ=0.9, T=2, exponential service.
LOAD = 0.9
PERIOD = 2.0
#: (cluster size, arrivals per timed ``run()``).  At n=10 a phase holds
#: ~18 arrivals, so per-phase policy work dominates; at n=10,000 it holds
#: ~17,900 and the per-arrival kernel loop dominates.
CELLS = {"sim-paper": (10, 200_000), "sim-scale": (10_000, 500_000)}
#: Untimed warm-up, and the size of the small cell behind ``latency_ms``
#: and the auto-vs-event check.
WARMUP_JOBS = 20_000
#: The sweep exercises both event loops (single- and multi-dispatcher),
#: the batch kernel (fig2), the runner and the result cache.
SWEEP_FIGURES = (
    "ext-faults",
    "ext-overload-goodput",
    "ext-multidisp-herd",
    "ext-flashcrowd",
    "fig2",
)
SWEEP_JOBS = 1_000
WARM_PASSES = 8
#: Untraced and traced timed runs in a traced run (fixed, so counts repeat).
TRACE_RUNS = 3
#: Worker processes per untraced run; ``setup_s`` is their median.
SETUPS = 3
WORKER_TIMEOUT = 150.0


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _spawn(ctx, workload: str, mode: str, budget: float, spans: Path | None = None) -> dict:
    """Run one worker to completion; its report plus ``setup_s``."""
    command = [
        sys.executable, "-u", str(HERE / "sim.py"),
        "--workload", workload, "--seed", str(ctx.seed), "--mode", mode,
        "--budget", repr(budget), "--out", str(ctx.out),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ctx.root, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) exited {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def run_workload(ctx, workload: str):
    """One run of a simulator workload; returns a ``WorkloadResult``."""
    if ctx.trace:
        return _traced(ctx, workload)
    reports = [
        _spawn(ctx, workload, "check" if k == 0 else "measure", ctx.seconds / SETUPS)
        for k in range(SETUPS)
    ]
    result = WorkloadResult()
    result.metrics["setup_s"] = statistics.median(r["setup_s"] for r in reports)
    result.metrics["peak_rss_mb"] = max(r["rss_kib"] for r in reports) / 1024
    runs = [run for r in reports for run in r["runs"]]
    if workload == "sim-sweep":
        cells_jobs = runs[0]["cells"] * SWEEP_JOBS
        result.metrics["throughput"] = statistics.median(cells_jobs / run["wall"] for run in runs)
        warm = [w for r in reports for w in r["warm"]]
        result.metrics["latency_ms"] = statistics.median(warm) * 1e3
        result.check(
            "cold passes agree across processes",
            len({run["values"] for run in runs}) == 1,
        )
        result.check(
            "warm passes equal the cold pass, zero misses",
            all(r["warm_ok"] for r in reports),
        )
        result.attempted = len(runs) + len(warm)
        result.labels.update(cells=runs[0]["cells"], jobs=SWEEP_JOBS,
                             cold_passes=len(runs), warm_passes=len(warm))
    else:
        jobs = CELLS[workload][1]
        result.metrics["throughput"] = statistics.median(jobs / run["wall"] for run in runs)
        small = [s for r in reports for s in r["small"]]
        result.metrics["latency_ms"] = statistics.median(small) * 1e3
        check = reports[0]["check"]
        result.check("auto is bit-identical to event", check["auto"] == check["event"])
        result.check(
            "every repeat returns the identical result",
            len({json.dumps(run["fp"]) for run in runs}) == 1,
        )
        engines = {run["engine"] for run in runs}
        result.attempted = len(runs) + len(small)
        result.labels.update(engine_used=sorted(engines), jobs_per_run=jobs,
                             timed_runs=len(runs), small_cells=len(small))
    result.labels["setups"] = SETUPS
    return result


def _traced(ctx, workload: str) -> WorkloadResult:
    """Layer metrics, and the overhead of tracing, from one traced worker."""
    spans = ctx.out / "trace" / f"{workload}-seed{ctx.seed}.spans.json"
    report = _spawn(ctx, workload, "traced", ctx.seconds, spans=spans)
    traced, plain = report["runs"], report["plain"]
    result = WorkloadResult()
    result.layers.update(report["layers"])
    result.layers["trace.overhead"] = statistics.median(
        r["wall"] for r in traced
    ) / statistics.median(r["wall"] for r in plain)
    if workload == "sim-sweep":
        result.check(
            "traced sweep values are bit-identical to untraced",
            traced[0]["values"] == plain[0]["values"],
        )
    else:
        result.check(
            "traced results are bit-identical to untraced",
            [r["fp"] for r in traced] == [r["fp"] for r in plain],
        )
        result.check(
            "traced runs use the same engine as untraced",
            [r["engine"] for r in traced] == [r["engine"] for r in plain],
        )
        result.labels["engine_used"] = sorted({r["engine"] for r in traced})
    result.attempted = len(traced) + len(plain)
    result.labels.update(trace_runs=len(traced), spans=str(spans))
    return result


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _make_cell(num_servers: int, jobs: int, seed: int, engine: str = "auto"):
    from repro.cluster.simulation import ClusterSimulation
    from repro.core.li_basic import BasicLIPolicy
    from repro.staleness.periodic import PeriodicUpdate
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.service import exponential_service

    return ClusterSimulation(
        num_servers=num_servers,
        arrivals=PoissonArrivals(num_servers * LOAD),
        service=exponential_service(),
        policy=BasicLIPolicy(),
        staleness=PeriodicUpdate(period=PERIOD),
        total_jobs=jobs,
        seed=seed,
        engine=engine,
    )


def _fingerprint(result) -> list:
    """Everything a bit-identical run must reproduce."""
    return [
        result.mean_response_time,
        result.duration,
        result.jobs_measured,
        hashlib.sha256(result.dispatch_counts.tobytes()).hexdigest(),
    ]


def _timed_cell(num_servers: int, jobs: int, seed: int) -> dict:
    simulation = _make_cell(num_servers, jobs, seed)
    started = time.perf_counter()
    result = simulation.run()
    wall = time.perf_counter() - started
    return {"wall": wall, "fp": _fingerprint(result), "engine": simulation.engine_used}


def _sweep(seed: int, cache_dir: Path) -> tuple[str, int, int, int]:
    """One pass over the sweep figures: (values digest, cells, fresh runs, misses)."""
    from repro.experiments.runner import run_figure

    values, cells, fresh, misses = [], 0, 0, 0
    for figure in SWEEP_FIGURES:
        result = run_figure(
            figure, jobs=SWEEP_JOBS, seeds=1, base_seed=seed, processes=1,
            cache=cache_dir,
        )
        cells += len(result.cells)
        fresh += result.cache_info["fresh_runs"]
        misses += result.cache_info["misses"]
        values += [
            [figure, curve, x, list(cell.samples)]
            for (curve, x), cell in sorted(result.cells.items())
        ]
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    return digest, cells, fresh, misses


def _warm_up_sweep() -> None:
    """Import and exercise every module the sweep touches, one cell each."""
    from repro.experiments.registry import FIGURES
    from repro.experiments.runner import run_figure

    for figure in SWEEP_FIGURES:
        spec = FIGURES[figure]
        run_figure(
            figure, jobs=2_000, seeds=1, processes=1,
            x_values=spec.x_values[:1], curves=(spec.curves[0].label,),
        )


class SimLayers:
    """The simulator's layers, wrapped at their call sites while installed."""

    RUNS = ("cluster.run.event", "cluster.run.batch", "multidispatch.run")

    def __init__(self, tracer) -> None:
        import numpy as np

        import repro.ablation.runid as runid
        import repro.core.li_basic as li_basic
        import repro.experiments.registry  # noqa: F401  (imports every policy)
        from repro.ablation.cache import ResultCache
        from repro.cluster.metrics import ClusterMetrics
        from repro.cluster.server import Server
        from repro.cluster.simulation import ClusterSimulation
        from repro.core.li_basic import BasicLIPolicy
        from repro.core.policy import Policy
        from repro.multidispatch.simulation import MultiDispatchSimulation
        from repro.workloads.distributions import Distribution

        self.tracer = tracer
        self.counts: Counter = Counter()
        counts = self.counts

        def on_select_batch(args, selections) -> None:
            # The numpy round iterations a per-round vector kernel would
            # run for this phase: the busiest server's arrival count.
            policy = args[0]
            selections = np.asarray(selections)
            rounds = int(np.bincount(selections, minlength=policy.num_servers).max())
            counts["batch_jobs"] += selections.size
            counts["rounds"] += rounds
            counts["grid_cells"] += rounds * policy.num_servers

        def run_name(args, result) -> str:
            simulation = args[0]
            if simulation.dispatchers > 1:
                return "cluster.run.delegate"
            if simulation.engine_used in ("fast", "vector"):
                return "cluster.run.batch"
            return "cluster.run.event"

        def on_run(args, result) -> None:
            simulation = args[0]
            if getattr(simulation, "dispatchers", 1) == 1:
                counts["run_jobs"] += simulation.total_jobs

        self._targets = [
            (BasicLIPolicy, "select_batch", "core.select_batch", on_select_batch),
            (li_basic, "waterfill_probabilities", "core.waterfill"),
            (ClusterSimulation, "run", "cluster.run", on_run, run_name),
            (MultiDispatchSimulation, "run", "multidispatch.run", on_run),
            (Server, "assign", "cluster.server.assign"),
            (ClusterMetrics, "record", "cluster.metrics.record"),
            (runid, "resolve_simulation_spec", "ablation.resolve"),
            (runid, "run_id", "ablation.run_id"),
            (ResultCache, "get", "ablation.cache_get"),
        ]
        self._targets += [
            (klass, "select", "core.select")
            for klass in _subclasses(Policy) if "select" in vars(klass)
        ]
        self._targets += [
            (klass, "sample_array", "workloads.sample_array")
            for klass in _subclasses(Distribution) if "sample_array" in vars(klass)
        ]

    def install(self) -> None:
        for target in self._targets:
            self.tracer.patch(*target)

    def remove(self) -> None:
        self.tracer.restore()

    def snapshot(self) -> tuple[dict, Counter]:
        return self.tracer.snapshot(), Counter(self.counts)

    def metrics(self, since: tuple[dict, Counter] | None, per: int) -> dict:
        """Layer metrics accumulated since ``since``, divided by ``per``."""
        before, before_counts = since or ({}, Counter())
        totals = {
            key: [v - w for v, w in zip(value, before.get(key, (0, 0.0, 0.0)))]
            for key, value in self.tracer.totals.items()
        }
        counts = self.counts - before_counts

        def calls(name):
            return sum(v[0] for (n, _), v in totals.items() if n == name) / per

        def seconds(name, index=1):
            return sum(v[index] for (n, _), v in totals.items() if n == name) / per

        batch_calls = calls("core.select_batch")
        kernel_self = sum(seconds(name, 2) for name in self.RUNS)
        return {
            "core.select_batch.calls": batch_calls,
            "core.select_batch.jobs_per_call": (
                counts["batch_jobs"] / per / batch_calls if batch_calls else 0.0
            ),
            "core.select_batch.s": seconds("core.select_batch"),
            "core.waterfill.calls": calls("core.waterfill"),
            "core.waterfill.s": seconds("core.waterfill"),
            "engine.kernel_self.s": kernel_self,
            "engine.kernel_self.us_per_job": (
                kernel_self * per / counts["run_jobs"] * 1e6 if counts["run_jobs"] else 0.0
            ),
            "engine.rounds": counts["rounds"] / per,
            "engine.grid_cells": counts["grid_cells"] / per,
            "workloads.sample_array.s": seconds("workloads.sample_array"),
            "cluster.run.event.s": seconds("cluster.run.event"),
            "cluster.run.event.cells": calls("cluster.run.event"),
            "cluster.run.batch.s": seconds("cluster.run.batch"),
            "cluster.run.batch.cells": calls("cluster.run.batch"),
            "multidispatch.run.s": seconds("multidispatch.run"),
            "multidispatch.run.cells": calls("multidispatch.run"),
            "core.select.calls": calls("core.select"),
            "core.select.s": seconds("core.select"),
            "cluster.server.assign.calls": calls("cluster.server.assign"),
            "cluster.server.assign.s": seconds("cluster.server.assign"),
            "cluster.metrics.record.calls": calls("cluster.metrics.record"),
            "cluster.metrics.record.s": seconds("cluster.metrics.record"),
            "ablation.resolve.s": seconds("ablation.resolve"),
            "ablation.run_id.s": seconds("ablation.run_id"),
            "ablation.cache_get.s": seconds("ablation.cache_get"),
            "ablation.cache_get.calls": calls("ablation.cache_get"),
        }

    def top_level_run_seconds(self) -> float:
        """Σ run() spans not nested in another run() (a delegation counts once)."""
        runs = ("cluster.run", "multidispatch.run")
        return sum(
            value[1]
            for (name, parent), value in self.tracer.totals.items()
            if name.startswith(runs) and not (parent or "").startswith(runs)
        )


def _subclasses(klass) -> list:
    found, pending = [], [klass]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _worker(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one simulator benchmark worker")
    parser.add_argument("--workload", required=True, choices=(*CELLS, "sim-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("check", "measure", "traced"))
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    report: dict = {}
    if args.workload == "sim-sweep":
        _warm_up_sweep()
        report["ready"] = time.monotonic()
        _measure_sweep(args, report)
    else:
        num_servers, jobs = CELLS[args.workload]
        warm = _make_cell(num_servers, WARMUP_JOBS, args.seed).run()
        report["ready"] = time.monotonic()
        _measure_cell(args, num_servers, jobs, _fingerprint(warm), report)
    report["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


def _measure_cell(args, num_servers, jobs, warm_fp, report) -> None:
    if args.mode == "traced":
        # Untraced and traced runs alternate, so a slow stretch of the host
        # lands on both sides of the overhead ratio.
        from tracing import Tracer

        layers = SimLayers(Tracer())
        report["plain"], report["runs"] = [], []
        for _ in range(TRACE_RUNS):
            report["plain"].append(_timed_cell(num_servers, jobs, args.seed))
            layers.install()
            try:
                report["runs"].append(_timed_cell(num_servers, jobs, args.seed))
            finally:
                layers.remove()
        report["layers"] = layers.metrics(None, per=TRACE_RUNS)
        layers.tracer.write(args.spans)
        return
    deadline = report["ready"] + args.budget
    if args.mode == "check":
        event = _make_cell(num_servers, WARMUP_JOBS, args.seed, engine="event")
        report["check"] = {"auto": warm_fp, "event": _fingerprint(event.run())}
    # Small cells alternate with the timed runs, so a short burst of host
    # load cannot land on all of one kind.
    runs, small = [], []
    while len(runs) < 2 or time.monotonic() + runs[-1]["wall"] / 2 <= deadline:
        runs.append(_timed_cell(num_servers, jobs, args.seed))
        started = time.perf_counter()
        result = _make_cell(num_servers, WARMUP_JOBS, args.seed).run()
        small.append(time.perf_counter() - started)
        if _fingerprint(result) != warm_fp:
            raise RuntimeError("a repeated small cell changed its result")
    report.update(runs=runs, small=small)


def _cold_pass(args, tag: str) -> tuple[dict, Path, bool]:
    """A pass on a fresh cache: its run, the cache, and whether all missed."""
    cache_dir = args.out / "cache" / f"{os.getpid()}-{tag}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    began = time.perf_counter()
    values, cells, fresh, _ = _sweep(args.seed, cache_dir)
    run = {"wall": time.perf_counter() - began, "values": values, "cells": cells}
    return run, cache_dir, fresh == cells


def _warm_passes(args, cold: dict, cache_dir: Path) -> tuple[list[float], bool]:
    """WARM_PASSES passes served by the cache the cold pass filled."""
    walls, ok = [], True
    for _ in range(WARM_PASSES):
        began = time.perf_counter()
        values, _, fresh, misses = _sweep(args.seed, cache_dir)
        walls.append(time.perf_counter() - began)
        ok = ok and values == cold["values"] and fresh == misses == 0
    shutil.rmtree(cache_dir, ignore_errors=True)
    return walls, ok


def _measure_sweep(args, report) -> None:
    if args.mode == "traced":
        from tracing import Tracer

        plain, cache_dir, _ = _cold_pass(args, "plain")
        shutil.rmtree(cache_dir, ignore_errors=True)
        layers = SimLayers(Tracer())
        layers.install()
        try:
            cold, cache_dir, _ = _cold_pass(args, "traced")
            metrics = layers.metrics(None, per=1)
            metrics["experiments.runner_overhead.s"] = (
                cold["wall"] - layers.top_level_run_seconds()
            )
            since = layers.snapshot()
            _warm_passes(args, cold, cache_dir)
        finally:
            layers.remove()
        warm = layers.metrics(since, per=WARM_PASSES)
        for name in ("ablation.resolve.s", "ablation.run_id.s",
                     "ablation.cache_get.s", "ablation.cache_get.calls"):
            metrics[name] = warm[name]
        report.update(plain=[plain], runs=[cold], layers=metrics)
        layers.tracer.write(args.spans)
        return
    deadline = report["ready"] + args.budget
    runs, warm, warm_ok, round_s = [], [], True, 0.0
    while not runs or time.monotonic() + round_s / 2 <= deadline:
        started = time.monotonic()
        cold, cache_dir, all_missed = _cold_pass(args, str(len(runs)))
        walls, ok = _warm_passes(args, cold, cache_dir)
        runs.append(cold)
        warm += walls
        warm_ok = warm_ok and ok and all_missed
        round_s = time.monotonic() - started
    report.update(runs=runs, warm=warm, warm_ok=warm_ok)


if __name__ == "__main__":
    sys.exit(_worker())
