"""Open-loop request generator for the live workloads.

One asyncio thread, one connection to the dispatcher, requests encoded
and decoded with the public :mod:`repro.live.protocol` functions.

Unlike ``repro.live.loadgen.OpenLoopClient`` (which stamps a request
after its sleep and then reports the dispatcher's own ``latency``), every
request here is timed from its *scheduled* send instant, so a generator
or server stall is charged to every request it delays.  The generator
also records how late it actually sent each request, so a run whose
generator fell behind can be told apart from a slow server.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.live.protocol import read_message, send_message

#: Seconds to wait for outstanding replies after the last send.
DRAIN_TIMEOUT = 5.0


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Scheduled send offsets (s) of a Poisson stream of ``rate`` req/s."""
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, expected + 8 * int(expected**0.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


@dataclass
class LoadResult:
    """Per-request timings of one open-loop run, indexed by request id.

    Times are seconds on the event-loop clock; ``nan`` marks a request
    that got no reply before the drain deadline.
    """

    scheduled: np.ndarray
    sent: np.ndarray
    received: np.ndarray
    server_latency: np.ndarray  # the dispatcher's ``latency``, time units
    ok: np.ndarray
    wall_s: float
    cpu_s: float

    def client_ms(self) -> np.ndarray:
        """Latency from scheduled send to reply of the answered requests."""
        return (self.received[self.ok] - self.scheduled[self.ok]) * 1e3

    def late_ms(self) -> np.ndarray:
        """How late the generator sent each request."""
        return (self.sent - self.scheduled) * 1e3

    def failed(self) -> int:
        """Requests refused or never answered."""
        return int(np.count_nonzero(~self.ok))


async def run_open_loop(host: str, port: int, schedule: np.ndarray) -> LoadResult:
    """Send one request per ``schedule`` offset; wait for every reply."""
    n = len(schedule)
    loop = asyncio.get_running_loop()
    sent = np.full(n, np.nan)
    received = np.full(n, np.nan)
    server_latency = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    reader, writer = await asyncio.open_connection(host, port)
    all_answered = loop.create_future()
    answered = 0

    async def receive() -> None:
        nonlocal answered
        while answered < n:
            reply = await read_message(reader)
            if reply is None:
                break
            i = reply["id"]
            received[i] = loop.time()
            if reply.get("ok"):
                ok[i] = True
                server_latency[i] = reply["latency"]
            answered += 1
        if not all_answered.done():
            all_answered.set_result(None)

    receiver = asyncio.create_task(receive())
    cpu0 = time.process_time()
    t0 = loop.time() + 0.01
    try:
        i = 0
        while i < n:
            now = loop.time()
            while i < n and t0 + schedule[i] <= now:
                send_message(writer, {"op": "req", "id": i, "client": 0})
                sent[i] = now
                i += 1
            await writer.drain()
            if i < n:
                await asyncio.sleep(t0 + schedule[i] - loop.time())
        try:
            await asyncio.wait_for(asyncio.shield(all_answered), DRAIN_TIMEOUT)
        except (asyncio.TimeoutError, TimeoutError):
            pass
    finally:
        receiver.cancel()
        try:
            await receiver
        except asyncio.CancelledError:
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    wall = loop.time() - t0
    return LoadResult(
        scheduled=t0 + schedule,
        sent=sent,
        received=received,
        server_latency=server_latency,
        ok=ok & ~np.isnan(received),
        wall_s=wall,
        cpu_s=time.process_time() - cpu0,
    )
