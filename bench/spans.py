"""In-memory spans around calls into the program, and their self times.

A Tracer wraps functions so that each call records a span: name, start,
end, the enclosing span, the run id, a tag and row count describing the
call's arguments, and the forward rows the call pushed through a net.
Spans stay in memory until the run ends; write_csv saves them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run_id: str
    tag: str = ""
    rows: int = 0
    forward_rows: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run.

    forward_counter is any object with a `count` attribute that grows by
    one per sample pushed through a net; each span keeps its delta.
    """

    def __init__(self, run_id: str, forward_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._counter = forward_counter

    def wrap(self, fn, name, describe=None):
        """fn, recording a span per call.

        name is a string or a function of the call's arguments; describe,
        when given, maps the call's arguments to (tag, rows).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(*args, **kwargs)
            tag, rows = describe(*args, **kwargs) if describe else ("", 0)
            span = Span(span_name, 0.0, 0.0, self._open[-1] if self._open else -1,
                        self.run_id, tag, rows)
            self._open.append(len(self.spans))
            self.spans.append(span)
            forward0 = self._counter.count
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.forward_rows = self._counter.count - forward0
                self._open.pop()

        return traced


@contextlib.contextmanager
def patched(tracer: Tracer, hooks):
    """Trace each (owner, attribute, name, describe) hook within the block.

    The wrapper replaces the attribute where callers look it up, on a
    module or a class, and the original object is put back afterwards.
    """
    saved = []
    try:
        for owner, attr, name, describe in hooks:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(original, name, describe))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((k.start, k.end) for k in kids):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.seconds - covered)
    return out


def write_csv(path: str, spans: list[Span], selfs: list[float]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["run_id", "span", "parent", "name", "tag", "start_s", "end_s",
                         "self_s", "rows", "forward_rows"])
        for i, (s, self_s) in enumerate(zip(spans, selfs)):
            writer.writerow([s.run_id, i, s.parent, s.name, s.tag, repr(s.start),
                             repr(s.end), repr(self_s), s.rows, s.forward_rows])
