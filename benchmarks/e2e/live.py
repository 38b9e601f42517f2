"""Live workloads: live-paced and live-saturate against ``repro serve``.

The server under test runs as its own process (``python -m repro serve``,
or ``serve_traced.py`` in a traced run).  Load comes from this process:
one asyncio thread and one connection to the dispatcher.  Each run
starts SETUPS fresh servers in turn and gives each an equal share of the
measurement, so ``setup_s`` is a median and one noisy stretch of the host
moves no metric far.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from loadgen import poisson_schedule, run_open_loop
from results import WorkloadResult, percentile

HERE = Path(__file__).resolve().parent

#: ``repro serve`` arguments per workload (basic-li on 4 backends).
SERVE_ARGS = {
    # Latency comes from queueing, backend timers and board staleness
    # while the server process is under half a core busy.
    "live-paced": dict(load=0.7, period=2.0, time_unit=0.002),
    # 0.2 ms services (the backends could serve 20k req/s) and a 10 ms
    # wall poll period: the serve process's own CPU sets the limit.
    "live-saturate": dict(load=0.25, period=50.0, time_unit=0.0002),
}
SERVERS = 4
SETUPS = 3
WARMUP_S = 0.5
#: Poisson open-loop rates (req/s) each server runs in turn, in equal
#: parts.  ``latency_ms`` is the median p50 and ``peak_rss_mb`` the peak
#: memory at the first rate; ``throughput`` is the median delivered rate
#: at the last.  live-paced is ρ=0.7 (4 servers × 0.7 / 2 ms).
#: The delivered rate stays at the offered rate until the server falls
#: behind, so live-saturate's last rate leaves headroom: a noisy host
#: slows the server without tipping it into a growing backlog, which
#: 5,000 and 6,000 req/s did.  The price is that throughput shows a
#: per-request CPU regression only once capacity falls below 4,000 req/s
#: (see README.md); latency_ms at 3,000 req/s shows smaller ones.
PLANS = {
    "live-paced": (1400.0, 1400.0),
    "live-saturate": (3000.0, 4000.0),
}
#: A rate is served within limits when its p99 (from the scheduled send)
#: is at most P99_LIMIT_MS, at most ERROR_LIMIT of requests fail, at least
#: DELIVERED_MIN of the offered rate is answered by P99_LIMIT_MS after the
#: last send, and the generator itself ran no more than LATE_P99_LIMIT_MS
#: late at p99.
P99_LIMIT_MS = 25.0
ERROR_LIMIT = 0.001
DELIVERED_MIN = 0.98
LATE_P99_LIMIT_MS = 2.0
#: How near the live-paced mean response time must land to the
#: simulator's prediction for the same cell.
PREDICTION_TOLERANCE = 0.5
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
MAX_SERVE_S = 170.0


class Serve:
    """One server-under-test process."""

    def __init__(self, ctx, workload: str, spans: Path | None = None) -> None:
        config = SERVE_ARGS[workload]
        serve_args = [
            "serve", "--policy", "basic-li", "--servers", str(SERVERS),
            "--load", repr(config["load"]), "--period", repr(config["period"]),
            "--time-unit", repr(config["time_unit"]), "--seed", str(ctx.seed),
            # A safety net: a server orphaned by a killed benchmark still exits.
            "--duration", repr(MAX_SERVE_S),
        ]
        if spans is None:
            self.command = [sys.executable, "-u", "-m", "repro", *serve_args]
        else:
            self.command = [
                sys.executable, "-u", str(HERE / "serve_traced.py"), str(spans),
                *serve_args,
            ]
        self.root = ctx.root
        self.proc: asyncio.subprocess.Process | None = None
        self.address: tuple[str, int] | None = None

    async def start(self) -> float:
        """Spawn the server; seconds until the dispatcher answered one request."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        spawned = time.monotonic()
        self.proc = await asyncio.create_subprocess_exec(
            *self.command, cwd=self.root, env=env, stdout=asyncio.subprocess.PIPE
        )
        self.address = await asyncio.wait_for(self._dispatcher_address(), START_TIMEOUT)
        probe = await run_open_loop(*self.address, np.zeros(1))
        if not probe.ok.all():
            raise RuntimeError("the dispatcher did not answer its first request")
        return time.monotonic() - spawned

    async def _dispatcher_address(self) -> tuple[str, int]:
        while True:
            line = (await self.proc.stdout.readline()).decode()
            if not line:
                raise RuntimeError("serve exited before listening")
            if line.startswith("dispatcher"):
                host, port = line.split()[-1].rsplit(":", 1)
                return host, int(port)

    def cpu_s(self) -> float:
        """CPU time of the server process so far (every thread, ns resolution)."""
        tasks = Path(f"/proc/{self.proc.pid}/task")
        return sum(
            int((task / "schedstat").read_text().split()[0]) for task in tasks.iterdir()
        ) / 1e9

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    async def stop(self) -> None:
        """SIGINT (the server drains and exits); kill if it does not."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            await asyncio.wait_for(self.proc.communicate(), STOP_TIMEOUT)
        except (asyncio.TimeoutError, TimeoutError):
            self.proc.kill()
            await self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"serve exited {self.proc.returncode}")


def run_workload(ctx, workload: str) -> WorkloadResult:
    """One run of a live workload; returns a ``WorkloadResult``."""
    if ctx.trace:
        return asyncio.run(_traced(ctx, workload))
    return asyncio.run(_measure(ctx, workload))


async def _open_rung(serve: Serve, rng, rate: float, seconds: float):
    """One timed open loop: (summary with latency, delivered rate and the
    server's CPU, per-request timings)."""
    cpu = serve.cpu_s()
    load = await run_open_loop(*serve.address, poisson_schedule(rng, rate, seconds))
    cpu = serve.cpu_s() - cpu
    latency = load.client_ms()
    span = load.scheduled[-1] - load.scheduled[0]
    in_time = load.ok & (load.received <= load.scheduled[-1] + P99_LIMIT_MS / 1e3)
    rung = {
        "rate_rps": rate,
        "requests": len(load.scheduled),
        "failed": load.failed(),
        "p50_ms": percentile(latency, 50),
        "p99_ms": percentile(latency, 99),
        "late_p99_ms": percentile(load.late_ms(), 99),
        "goodput_rps": np.count_nonzero(in_time) / span,
        "server_cpu_us_per_req": cpu / len(load.scheduled) * 1e6,
        "server_cpu_share": cpu / load.wall_s,
        "mean_rt_units": float(np.mean(load.server_latency[load.ok])),
    }
    rung["within_limits"] = bool(
        rung["p99_ms"] <= P99_LIMIT_MS
        and rung["failed"] <= ERROR_LIMIT * rung["requests"]
        and rung["goodput_rps"] >= DELIVERED_MIN * rate
        and rung["late_p99_ms"] <= LATE_P99_LIMIT_MS
    )
    return rung, load


async def _timed_server(ctx, workload: str, k: int, rates, seconds: float, spans=None):
    """Start server ``k``, warm it up, time one open loop per rate, stop it.

    Returns (setup_s, [(rung, load) per rate], peak RSS in MiB after the
    first rate).
    """
    serve = Serve(ctx, workload, spans)
    try:
        setup = await serve.start()
        rng = np.random.default_rng([ctx.seed, k])
        await run_open_loop(*serve.address, poisson_schedule(rng, rates[0], WARMUP_S))
        timed = [await _open_rung(serve, rng, rates[0], seconds)]
        rss = serve.peak_rss_mib()
        for rate in rates[1:]:
            timed.append(await _open_rung(serve, rng, rate, seconds))
    finally:
        await serve.stop()
    return setup, timed, rss


async def _measure(ctx, workload: str) -> WorkloadResult:
    plan = PLANS[workload]
    share = (ctx.seconds / SETUPS - WARMUP_S) / len(plan)
    setups, rungs, rss = [], [], 0.0
    for k in range(SETUPS):
        setup, timed, peak = await _timed_server(ctx, workload, k, plan, share)
        setups.append(setup)
        rungs += [rung for rung, _ in timed]
        rss = max(rss, peak)

    result = WorkloadResult()
    result.attempted = sum(r["requests"] for r in rungs)
    result.failed = sum(r["failed"] for r in rungs)
    result.metrics["setup_s"] = statistics.median(setups)
    result.metrics["throughput"] = statistics.median(
        r["goodput_rps"] for r in rungs if r["rate_rps"] == plan[-1]
    )
    result.metrics["latency_ms"] = statistics.median(
        r["p50_ms"] for r in rungs if r["rate_rps"] == plan[0]
    )
    result.metrics["peak_rss_mb"] = rss
    result.check("every request got a reply", result.failed == 0)
    result.labels.update(setups=SETUPS, rungs=rungs)
    if workload == "live-paced":
        result.check(
            "mean RT within ±50% of the simulator's prediction, at on-time rates",
            _near_prediction(ctx, rungs, result.labels),
        )
    return result


def _near_prediction(ctx, rungs: list, labels: dict) -> bool | None:
    """Dispatcher-measured mean RT against ``simulator_prediction``.

    Only rates whose generator kept to its schedule are judged: when the
    host is too busy for that, timer overshoot swamps the comparison, and
    the check is skipped (``None``) rather than failed.
    """
    from repro.live.harness import LiveSpec, simulator_prediction

    on_time = [r for r in rungs if r["late_p99_ms"] <= LATE_P99_LIMIT_MS]
    if not on_time:
        return None
    config = SERVE_ARGS["live-paced"]
    spec = LiveSpec(
        policy="basic-li", num_servers=SERVERS, load=config["load"],
        period=config["period"], seed=ctx.seed, time_unit=config["time_unit"],
    )
    predicted = simulator_prediction(spec)["mean_response_time"]
    weights = [r["requests"] for r in on_time]
    measured = float(np.average([r["mean_rt_units"] for r in on_time], weights=weights))
    labels.update(mean_rt_units=measured, predicted_rt_units=predicted,
                  on_time_rates=len(on_time))
    return abs(measured - predicted) <= PREDICTION_TOLERANCE * predicted


async def _traced(ctx, workload: str) -> WorkloadResult:
    """Untraced then traced server, each at the workload's last open-loop rate."""
    rate = PLANS[workload][-1]
    seconds = ctx.seconds / 2 - WARMUP_S
    spans = ctx.out / "trace" / f"{workload}-seed{ctx.seed}.spans.json"
    # Both servers get the same seed stream, so the same send schedule.
    _, [(plain, _)], _ = await _timed_server(ctx, workload, 0, (rate,), seconds)
    _, [(rung, load)], _ = await _timed_server(ctx, workload, 0, (rate,), seconds, spans)
    requests = rung["requests"]
    decision = json.loads(spans.read_text())["live"]
    time_unit = SERVE_ARGS[workload]["time_unit"]
    served_ms = load.server_latency[load.ok] * time_unit * 1e3
    wire_ms = (load.received[load.ok] - load.sent[load.ok]) * 1e3 - served_ms
    residence_ms = served_ms - decision["decision_us_mean"] / 1e3
    encode_us, decode_us = await _protocol_us()
    result = WorkloadResult()
    result.layers.update({
        "live.server.cpu_us_per_req": rung["server_cpu_us_per_req"],
        "live.server.cpu_share": rung["server_cpu_share"],
        "live.dispatcher.decision_us.mean": decision["decision_us_mean"],
        "live.dispatcher.decision_us.p99": decision["decision_us_p99"],
        "live.dispatcher.decision_us.calls": decision["decision_calls"],
        "live.protocol.encode_us": encode_us,
        "live.protocol.decode_us": decode_us,
        "live.backend.residence_ms.p50": percentile(residence_ms, 50),
        "live.backend.residence_ms.p99": percentile(residence_ms, 99),
        "live.board.polls": decision["polls"],
        "live.board.poll_period_ratio": decision["poll_period_ratio"],
        "live.board.view_age_mean": decision["view_age_mean"],
        "live.wire.client_ms.p50": percentile(wire_ms, 50),
        "live.wire.client_ms.p99": percentile(wire_ms, 99),
        "loadgen.late_p99_ms": percentile(load.late_ms(), 99),
        "loadgen.cpu_us_per_req": load.cpu_s / requests * 1e6,
        "trace.overhead": rung["server_cpu_us_per_req"] / plain["server_cpu_us_per_req"],
    })
    result.attempted = requests + plain["requests"]
    result.failed = rung["failed"] + plain["failed"]
    result.check("every request got a reply", result.failed == 0)
    result.check(
        "one board view per selection, so decision_us covers both",
        decision["paired"],
    )
    result.labels.update(
        rate_rps=rate, samples=requests, spans=str(spans),
        view_calls=decision["view_calls"], decision_calls=decision["decision_calls"],
    )
    return result


async def _protocol_us() -> tuple[float, float]:
    """Mean µs to encode / decode the req, work and done message shapes."""
    from repro.live.protocol import read_message, send_message

    shapes = [
        {"op": "req", "id": 123456, "client": 0},
        {"op": "work", "id": 123456},
        {"op": "done", "id": 123456, "ok": True, "server": 3, "latency": 2.718281828459045},
    ]
    repeats = 20_000

    class Sink:
        """The two members of a StreamWriter that send_message uses."""

        def __init__(self) -> None:
            self.lines: list[bytes] = []

        def is_closing(self) -> bool:
            return False

        def write(self, data: bytes) -> None:
            self.lines.append(data)

    sink = Sink()
    started = time.perf_counter()
    for _ in range(repeats):
        for shape in shapes:
            send_message(sink, shape)
    encode = (time.perf_counter() - started) / len(sink.lines) * 1e6

    reader = asyncio.StreamReader(limit=2**26)
    reader.feed_data(b"".join(sink.lines))
    reader.feed_eof()
    started = time.perf_counter()
    for _ in range(len(sink.lines)):
        await read_message(reader)
    decode = (time.perf_counter() - started) / len(sink.lines) * 1e6
    return encode, decode
