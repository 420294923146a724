"""Spans and counts recorded from outside wattflow.

The tracer replaces attributes that wattflow modules look up at call time
(``wattflow.cli.parse_log``, ``LogWriter.record``, ...) with wrappers that
open a span around the original call.  Spans carry a name, start, end and
parent id and are kept in memory; per-name call counts, total time and
self time are aggregated as spans close, so the numbers stay exact even
when the retained span list is capped.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

Span = tuple[int, str, int, int, int]   # id, name, parent id or 0, start, end


class Tracer:
    """Records spans around wrapped callables, single-threaded."""

    def __init__(self, max_spans: int = 200_000,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.max_spans = max_spans
        self.clock = clock
        self.spans: list[Span] = []
        self.dropped = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple[Any, str, Any]] = []
        self.enabled = True

    def begin(self, name: str) -> list:
        frame = [self._next_id, name,
                 self._stack[-1][0] if self._stack else 0, self.clock(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        sid, name, parent, start, child_ns = frame
        self.add(sid, name, parent, start, end, child_ns)
        if self._stack:
            self._stack[-1][4] += end - start

    def add(self, sid: int, name: str, parent: int, start: int, end: int,
            child_ns: int = 0) -> None:
        """Store one finished span and fold it into the per-name stats."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += end - start
        stat[2] += end - start - child_ns
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, name, parent, start, end))
        else:
            self.dropped += 1

    @property
    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][1] if self._stack else None

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Callable[["Tracer", tuple, Any], None] | None = None
             ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``owner`` is a module or a class; for a class the wrapper is a
        plain function, so it binds as a method the way the original did.
        ``on_result`` runs after the span closes and may add counts.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            frame = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def summary(self) -> dict[str, Any]:
        """Stats and counts in a JSON-ready form."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        """Write the retained spans, one JSON array per line, then how many
        were dropped past ``max_spans``."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")
