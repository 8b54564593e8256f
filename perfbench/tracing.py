"""In-memory span tracer for the benchmark's traced run.

The tracer records a span (name, start, end, parent) around every call that
crosses a layer boundary of ``genneg``.  It does so from outside the package,
by replacing the module attributes the layers call through for the duration
of a ``with tracer.patched(...)`` block, so the program itself is unchanged.
Spawned pool workers import fresh modules and would not see the wrappers,
which is why traced passes run in-process with one worker.

A span's self time is its duration minus the part of its interval that its
direct children cover.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None          # index of the enclosing span, if any
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nesting follows the (single-threaded) call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, describe=None):
        """Return ``fn`` wrapped in a span; ``describe(result)`` adds attributes."""
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.attrs.update(describe(result))
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a traced wrapper for each (module, attr, name, describe).

        Targets naming the same function share one wrapper, so a function
        imported into several modules yields one span per call.
        """
        saved = []
        wrappers = {}
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, describe)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.duration - _covered([(lo, hi) for lo, hi in clipped if hi > lo]))
    return out


def summarize(spans) -> dict:
    """Per span name: call count, total duration and total self time."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    return table


def per_span_cost(calls: int = 20000) -> float:
    """Measured seconds a traced wrapper adds to one call, on this host."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - t0
    return max(0.0, wrapped - bare) / calls


def to_records(spans) -> list:
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             **({"attrs": s.attrs} if s.attrs else {})} for s in spans]
