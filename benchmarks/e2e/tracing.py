"""In-memory spans recorded around public callables, from outside the program.

The traced runs wrap the callables at their call sites — a method on its
class, or a module global that the caller looks up at call time — so the
program itself carries no instrumentation.  Spans are kept in memory and
written out when the run ends.  A layer's self time is its span minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

#: Raw spans kept for the output file; totals stay exact beyond it.
MAX_SPANS = 20_000


class Tracer:
    """Span recorder: exact per-(name, parent) totals plus a bounded span log."""

    def __init__(self, keep_samples: tuple[str, ...] = ()) -> None:
        self._stack: list[list] = []  # [name, start, child_seconds]
        self._t0 = time.perf_counter()
        # (name, parent) -> [calls, seconds, self_seconds]
        self.totals: dict[tuple[str, str | None], list] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self.spans: list[tuple] = []
        self.dropped = 0
        self.samples: dict[str, list[float]] = {name: [] for name in keep_samples}
        self._patched: list[tuple] = []

    def wrap(self, fn, name: str, on_exit=None, rename=None):
        """``fn`` recorded as a span called ``name``.

        ``rename(args, result)``, when given, names the finished span by
        its outcome (its children still see ``name`` as their parent).
        ``on_exit(args, result)`` runs after the span closes, outside the
        timed interval.
        """
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            duration = end - frame[1]
            parent = None
            if stack:
                stack[-1][2] += duration
                parent = stack[-1][0]
            span = name if rename is None else rename(args, result)
            entry = totals[(span, parent)]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]
            if span in self.samples:
                self.samples[span].append(duration)
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (span, frame[1] - self._t0, end - self._t0, parent)
                )
            else:
                self.dropped += 1
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, on_exit=None, rename=None) -> None:
        """Replace ``owner.attribute`` (class method or module global)."""
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, on_exit, rename))

    def restore(self) -> None:
        """Put back everything :meth:`patch` replaced."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> dict:
        """Copy of the totals, for per-phase deltas."""
        return {key: list(value) for key, value in self.totals.items()}

    def write(self, path: Path, extra: dict | None = None) -> None:
        """Write the span log and totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [list(span) for span in self.spans],
            "spans_dropped": self.dropped,
            "totals": [
                {"name": n, "parent": p, "calls": c, "s": s, "self_s": own}
                for (n, p), (c, s, own) in sorted(
                    self.totals.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            **(extra or {}),
        }
        path.write_text(json.dumps(payload))
