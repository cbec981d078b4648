"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by wrappers the benchmark puts, for the length of a
traced pass, around the public functions each layer exposes (see
``layers.py``); nothing inside ``src/`` is instrumented.  Each span is
``[id, name, start, end, parent id]`` with ``perf_counter`` times, kept in a
list until :meth:`Tracer.write` dumps them.  Nesting follows the calls, so a
layer called from inside another layer's function is that span's child.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        stack = tracer._stack
        self._record = [len(tracer.spans), name, 0.0, 0.0, stack[-1] if stack else None]

    def __enter__(self) -> None:
        tracer = self._tracer
        tracer.spans.append(self._record)
        tracer._stack.append(self._record[0])
        self._record[2] = perf_counter()

    def __exit__(self, *exc) -> None:
        self._record[3] = perf_counter()
        self._tracer._stack.pop()


class Tracer:
    """Collects spans; :meth:`totals` sums their own time per name.

    >>> tracer = Tracer()
    >>> with tracer.span("pass"):
    ...     with tracer.span("layer"):
    ...         pass
    >>> sorted(tracer.totals())
    ['layer', 'pass']
    >>> tracer.spans[1][4] == tracer.spans[0][0]   # parent link
    True
    >>> [name for name, _start, _end in tracer.roots()]
    ['pass']
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span called ``name`` around every call."""
        span = self.span

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with span(name):
                return function(*args, **kwargs)

        return traced

    def roots(self) -> list[tuple[str, int, int]]:
        """Each top-level span as ``(name, first index, end index)``: the
        spans of one root's subtree are contiguous, because spans are
        appended as they open."""
        starts = [sid for sid, _n, _s, _e, parent in self.spans if parent is None]
        ends = starts[1:] + [len(self.spans)]
        return [(self.spans[s][1], s, e) for s, e in zip(starts, ends)]

    def totals(self, since: int = 0, until: Optional[int] = None) -> dict[str, float]:
        """Own time (duration minus that of direct children) of the spans
        between two indices, summed by name."""
        spans = self.spans
        sums: dict[str, float] = {}
        for _id, name, start, end, parent in spans[since:until]:
            sums[name] = sums.get(name, 0.0) + (end - start)
            if parent is not None and parent >= since:
                outer = spans[parent][1]
                sums[outer] = sums.get(outer, 0.0) - (end - start)
        return sums

    def durations(self, name: str, since: int = 0, until: Optional[int] = None) -> list[float]:
        """Each duration of the spans called ``name`` between two indices."""
        return [end - start for _id, n, start, end, _p in self.spans[since:until] if n == name]

    def write(self, path: Path, meta: Optional[dict] = None) -> None:
        """Dump the spans as JSON, times relative to the first span's start."""
        origin = self.spans[0][2] if self.spans else 0.0
        payload = {
            "meta": meta or {},
            "fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [
                [sid, name, round(start - origin, 9), round(end - origin, 9), parent]
                for sid, name, start, end, parent in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
