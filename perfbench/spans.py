"""In-memory span recording around the program's layer entry points.

A span records its name, start, end, the span that caused it and the
thread it ran on. Spans stay in memory until the traced run ends, which
writes them out as JSON. A call made on a thread with no open span (the
detector's pool workers) is parented to the outermost span open at the
time, the CLI call.

A span's self time is its duration minus the part of its interval that
its children cover; children may overlap one another (the two detector
threads), so their coverage is the length of the union of their
intervals, not the sum of their durations.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, spans: list[Span]) -> float:
    children = [(max(c.start, span.start), min(c.end, span.end))
                for c in spans if c.parent == span.id]
    return span.duration - union_length([c for c in children if c[1] > c[0]])


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_roots: list[int] = []

    def wrap(self, name: str, fn: Callable,
             count: Callable[[tuple, object], dict] | None = None) -> Callable:
        """``fn`` recording one span per call; ``count(args, result)``
        returns the counts to attach to the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                parent = stack[-1] if stack else (self._open_roots[0] if self._open_roots else None)
                span = Span(next(self._ids), name, parent, threading.get_ident(),
                            time.perf_counter())
                self.spans.append(span)
                if parent is None:
                    self._open_roots.append(span.id)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    if span.id in self._open_roots:
                        self._open_roots.remove(span.id)
            if count is not None:
                span.counts = count(args, result)
            return result

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self) -> list[dict]:
        """The recorded spans as JSON-ready records, in start order."""
        return [asdict(s) for s in self.spans]
