"""The result of one workload run, and the statistics shared with compare.py."""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class WorkloadResult:
    """Metrics, correctness checks and labels of one workload run."""

    metrics: dict = field(default_factory=dict)  # end-to-end, tracing off
    layers: dict = field(default_factory=dict)  # per-layer, traced run
    checks: list = field(default_factory=list)  # [name, passed]; None: skipped
    attempted: int = 0
    failed: int = 0
    labels: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool | None) -> None:
        self.checks.append([name, None if passed is None else bool(passed)])

    @property
    def correct(self) -> bool:
        judged = [passed for _, passed in self.checks if passed is not None]
        return bool(judged) and all(judged)


def load_declarations(path: Path) -> dict:
    """BENCHMARK.json, with each metric list keyed by name."""
    declared = json.loads(path.read_text())
    for key in ("end_to_end", "per_layer"):
        declared[key] = {metric["name"]: metric for metric in declared[key]}
    return declared


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (numpy's linear interpolation); nan when empty."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else float("nan")
