"""Host-time spans recorded from the benchmark's own code.

One span wraps each call the benchmark makes into a layer of the
program.  Spans stay in memory and are written out once, when the run
ends.  A disabled tracer hands out one shared no-op context, so the
untraced runs that give the end-to-end metrics pay almost nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    round_id: int | None
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: Host seconds spent inside the tracer's own bookkeeping.
        self.bookkeeping_s = 0.0

    def span(self, name: str, *, round_id: int | None = None,
             tag: str | None = None):
        if not self.enabled:
            return _NULL
        return self._record(name, round_id, tag)

    @contextlib.contextmanager
    def _record(self, name, round_id, tag):
        entered = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        if round_id is None and parent is not None:
            round_id = self.spans[parent].round_id
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, round_id, tag))
        self._stack.append(index)
        span = self.spans[index]
        span.start = time.perf_counter()
        self.bookkeeping_s += span.start - entered
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - span.end

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)
            handle.write("\n")


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _children(spans: list[Span]) -> dict[int, list[tuple[float, float]]]:
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return children


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the part its children cover."""
    children = _children(spans)
    out: dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span.duration - _covered(children.get(index, []),
                                       span.start, span.end)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def coverage(spans: list[Span], root: str) -> list[float]:
    """For each span named ``root``: the share of its wall time that its
    child spans cover (the "attribution adds up" gate)."""
    children = _children(spans)
    return [_covered(children.get(index, []), span.start, span.end)
            / span.duration
            for index, span in enumerate(spans)
            if span.name == root and span.duration > 0]


def durations(spans: list[Span], name: str,
              tag: str | None = None) -> list[float]:
    return [span.duration for span in spans
            if span.name == name and (tag is None or span.tag == tag)]
