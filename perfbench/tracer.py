"""In-memory span recorder for the benchmark's own calls into ``repro``.

A span is one timed call into a layer: a name (``<layer>.<call>``), its
start and end on the ``time.perf_counter`` clock, and the request, event
or route it served (``rid``).  Every call is made by the benchmark's own
loop, so no span has a parent.  Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of the run, so recording costs
two clock reads and one list append.

The untraced run uses :data:`NULL` instead: the same call sites, no
recording, so the traced-minus-untraced gap is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, List, Tuple

__all__ = ["NULL", "Tracer", "union_seconds"]


class _Span:
    __slots__ = ("tracer", "name", "rid", "t0")

    def __init__(self, tracer: "Tracer", name: str, rid) -> None:
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self) -> "_Span":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.add(self.name, self.t0, time.perf_counter(), rid=self.rid)


class Tracer:
    """Records spans as ``(name, rid, start, end)`` tuples."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []

    def span(self, name: str, rid=None) -> _Span:
        """Context manager timing the calls inside it as one span."""
        return _Span(self, name, rid)

    def add(self, name: str, t0: float, t1: float, rid=None) -> None:
        """Record a span the caller timed itself (a loop that needs the
        clock readings for its own metrics, or a round trip whose end is
        seen by another task)."""
        self.spans.append((name, rid, t0, t1))

    def coverage(self, t0: float, t1: float) -> float:
        """Share of ``[t0, t1]`` covered by at least one span."""
        if t1 <= t0:
            return 0.0
        return union_seconds(((a, b) for *_, a, b in self.spans), t0, t1) / (t1 - t0)

    def write(self, path) -> None:
        """Dump every span as one JSON document (times relative to the
        first span's start)."""
        base = min((s[2] for s in self.spans), default=0.0)
        rows = [
            {
                "id": sid, "name": name, "rid": rid,
                "start_s": round(t0 - base, 9), "end_s": round(t1 - base, 9),
            }
            for sid, (name, rid, t0, t1) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class _NullTracer:
    """Tracing off: every call site stays, nothing is recorded."""

    _span = _NullSpan()

    def span(self, name, rid=None) -> _NullSpan:
        return self._span

    def add(self, name, t0, t1, rid=None) -> None:
        return None


NULL = _NullTracer()


def union_seconds(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
