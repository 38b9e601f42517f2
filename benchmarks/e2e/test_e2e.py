"""Self-tests of the end-to-end benchmark, each workload at a tiny scale.

Run from the repository root with ``pytest benchmarks/e2e`` (about two
minutes: every workload spawns its own processes).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import sim
from loadgen import poisson_schedule
from results import load_declarations
from tracing import Tracer

ROOT = run.ROOT
DECLARED = load_declarations(ROOT / "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: An unusual seed, so a leftover server is recognisable by its command line.
SEED = 424242
SECONDS = 3.0


def _tree() -> dict:
    """Size and mtime of every file in the repository (.git and caches aside)."""
    skip = {".git", "__pycache__", ".pytest_cache"}
    files = {}
    for directory, subdirectories, names in os.walk(ROOT):
        subdirectories[:] = [d for d in subdirectories if d not in skip]
        for name in names:
            stat = (Path(directory) / name).stat()
            files[os.path.join(directory, name)] = (stat.st_size, stat.st_mtime_ns)
    return files


def _servers(seed: int) -> list[int]:
    """PIDs of live servers started with ``--seed seed``."""
    found = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            argv = (proc / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"serve" in argv and str(seed).encode() in argv:
            found.append(int(proc.name))
    return found


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    """One tiny untraced run of every workload: {workload: (result, metrics, clean)}."""
    runs = {}
    for workload in run.WORKLOADS:
        before = _tree()
        ctx = run.Context(ROOT, SEED, SECONDS, False, tmp_path_factory.mktemp(workload))
        result, metrics = run.run_one(ctx, workload, DECLARED)
        runs[workload] = (result, metrics, _tree() == before, _servers(SEED))
    return runs


def test_benchmark_json_follows_the_contract():
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(raw) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert raw["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in raw["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in raw["workloads"])
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in raw[key]]
    names += [w["name"] for w in raw["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(
        UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
        for key in ("end_to_end", "per_layer") for m in raw[key]
    )
    setup = DECLARED["end_to_end"]["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in raw["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_the_declared_metrics_and_passes_its_checks(untraced, workload):
    result, metrics, _, _ = untraced[workload]
    assert set(metrics) == set(DECLARED["end_to_end"])
    assert all(NAME.fullmatch(name) for name in metrics)
    assert all(metric["value"] > 0 for metric in metrics.values())
    assert result.correct, result.checks
    assert result.attempted >= 1 and result.failed == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_writes_nothing_under_the_repository(untraced, workload):
    assert untraced[workload][2]


def test_run_without_out_leaves_the_repository_as_it_was(capsys):
    # sim-sweep fills a result cache on disk, so it has the most to leave behind.
    before = _tree()
    argv = ["--workload", "sim-sweep", "--seed", str(SEED), "--seconds", str(SECONDS)]
    assert run.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]
    assert _tree() == before
    assert list(ROOT.glob(run.SCRATCH_PREFIX + "*")) == []


@pytest.mark.parametrize("workload", ["live-paced", "live-saturate"])
def test_no_server_outlives_a_live_workload(untraced, workload):
    assert untraced[workload][3] == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload, tmp_path):
    ctx = run.Context(ROOT, SEED, SECONDS, True, tmp_path)
    result, metrics = run.run_one(ctx, workload, DECLARED)
    assert set(metrics) == set(DECLARED["per_layer"])
    assert set(result.layers) <= set(DECLARED["per_layer"])
    assert metrics["trace.overhead"]["value"] > 0
    assert result.correct, result.checks
    assert (tmp_path / "trace" / f"{workload}-seed{SEED}.spans.json").is_file()
    assert _servers(SEED) == []


def test_same_seed_repeats_and_another_seed_changes_the_inputs():
    def fingerprint(seed: int) -> list:
        return sim._fingerprint(sim._make_cell(10, 5_000, seed).run())

    assert fingerprint(7) == fingerprint(7)
    assert fingerprint(7) != fingerprint(8)

    def schedule(seed: int) -> np.ndarray:
        return poisson_schedule(np.random.default_rng([seed, 0]), 1400.0, 1.0)

    assert np.array_equal(schedule(7), schedule(7))
    assert not np.array_equal(schedule(7)[:10], schedule(8)[:10])


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sim-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = {seed: 100.0 + seed for seed in range(1, 11)}
    assert compare.verdict(base, {s: 0.7 * v for s, v in base.items()}, "higher", 0.15)[
        "verdict"] == "regression"
    assert compare.verdict(base, {s: 1.2 * v for s, v in base.items()}, "higher", 0.15)[
        "verdict"] == "gain"
    assert compare.verdict(base, dict(base), "higher", 0.15)["verdict"] == "ok"
    noisy = {seed: 100.0 * (1 + (seed % 3)) for seed in range(1, 11)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.15)["verdict"] == "unresolved"


def test_compare_exits_nonzero_on_a_regression(tmp_path, capsys):
    for side, scale in (("a", 1.0), ("b", 2.0)):
        (tmp_path / side).mkdir()
        for seed in range(1, 6):
            record = {
                "workload": "sim-paper",
                "labels": {"seed": seed},
                "metrics": {"latency_ms": {"value": scale * (40 + seed / 10), "unit": "ms"}},
            }
            (tmp_path / side / f"sim-paper-seed{seed}.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "regression" in capsys.readouterr().out


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    child = tracer.wrap(lambda: time.sleep(0.02), "child")

    def body():
        time.sleep(0.01)
        child()

    tracer.wrap(body, "parent")()
    calls, total, own = tracer.totals[("parent", None)]
    child_calls, child_total, child_own = tracer.totals[("child", "parent")]
    assert calls == child_calls == 1
    assert own == pytest.approx(total - child_total)
    assert child_own == child_total


def test_restore_puts_back_what_was_patched():
    import repro.core.li_basic as li_basic

    original = li_basic.waterfill_probabilities
    tracer = Tracer()
    tracer.patch(li_basic, "waterfill_probabilities", "core.waterfill")
    assert li_basic.waterfill_probabilities is not original
    tracer.restore()
    assert li_basic.waterfill_probabilities is original
