"""``repro serve`` with the dispatcher's decision path timed from outside.

Usage::

    python benchmarks/e2e/serve_traced.py SPANS.json serve --policy basic-li ...

Wraps ``LiveDispatcher.select_server`` and ``BulletinBoard.view`` on their
classes, then hands the remaining arguments to ``repro.cli.main``.  When
the server exits, the spans and the decision and board summaries are
written to ``SPANS.json``; ``live.paired`` is false when the view and
selection counts differ, so the decision time leaves out the views.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

VIEW = "live.board.view"
SELECT = "live.dispatcher.select"


def main(argv: list[str]) -> int:
    import numpy as np

    from repro.cli import main as cli_main
    from repro.live.board import BulletinBoard
    from repro.live.dispatcher import LiveDispatcher

    spans, serve_args = Path(argv[0]), argv[1:]
    tracer = Tracer(keep_samples=(VIEW, SELECT))
    board: dict = {"ages": 0.0, "views": 0, "first": None, "last": None, "board": None}

    def on_view(args, view) -> None:
        board["board"] = args[0]
        board["ages"] += view.elapsed
        board["views"] += 1
        board["first"] = board["first"] or (view.version, view.info_time)
        board["last"] = (view.version, view.info_time)

    tracer.patch(BulletinBoard, "view", VIEW, on_view)
    tracer.patch(LiveDispatcher, "select_server", SELECT)
    try:
        return cli_main(serve_args)
    finally:
        views = np.asarray(tracer.samples[VIEW])
        selects = np.asarray(tracer.samples[SELECT])
        # One view and one selection per request, back to back with no
        # await between them, so the i-th of each belong to one request.
        # A view without a selection (a retry) breaks that pairing; then
        # the decision time is the selection alone and ``paired`` says so.
        paired = views.size == selects.size
        decision_us = (views + selects if paired else selects) * 1e6
        live = {
            "paired": paired,
            "view_calls": int(views.size),
            "decision_calls": int(decision_us.size),
        }
        if decision_us.size:
            live["decision_us_mean"] = float(decision_us.mean())
            live["decision_us_p99"] = float(np.percentile(decision_us, 99))
        instance = board["board"]
        if instance is not None:
            period = instance.period
            (v0, t0), (v1, t1) = board["first"], board["last"]
            live["polls"] = instance.polls_completed
            live["poll_period_ratio"] = (t1 - t0) / (v1 - v0) / period if v1 > v0 else 0.0
            live["view_age_mean"] = board["ages"] / board["views"] / (period / 2)
        tracer.write(spans, extra={"live": live})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
