"""In-memory spans around spdcmux's layer boundaries.

The library is not edited: a :class:`Tracer` replaces module attributes
with timing wrappers, in the module that looks each name up at call time,
and puts the originals back afterwards. Every span records its command id,
its own id, its parent span, its name and its start and end on the
``perf_counter_ns`` clock. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, NamedTuple


class Span(NamedTuple):
    command: int
    id: int
    parent: int  # -1 for a command's root span
    name: str
    start_ns: int
    end_ns: int
    info: object  # what the span's extractor kept, or None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.command = 0
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, str, Callable | None]] = []

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        info: Callable[[tuple, object], object] | None = None,
    ) -> None:
        """Have :meth:`installed` replace ``module.attr`` by a wrapper that
        records a span named ``name``; ``info(args, result)`` is kept on the
        span when given."""
        self._targets.append((module, attr, name, info))

    def _traced(self, original, name: str, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                kept = info(args, result) if info is not None else None
                spans[span_id] = Span(self.command, span_id, parent, name, start, end, kept)

        return traced

    @contextmanager
    def installed(self):
        """Keep the wrappers in place for the ``with`` block only."""
        originals = []
        try:
            for module, attr, name, info in self._targets:
                original = getattr(module, attr)
                setattr(module, attr, self._traced(original, name, info))
                originals.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def write(self, path, origin_ns: int) -> None:
        """Write every span as CSV, times in ns since ``origin_ns``."""
        with open(path, "w") as out:
            out.write("command,span,parent,name,start_ns,end_ns\n")
            for s in self.spans:
                out.write(
                    f"{s.command},{s.id},{s.parent},{s.name},"
                    f"{s.start_ns - origin_ns},{s.end_ns - origin_ns}\n"
                )


class LayerTotals(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Calls, inclusive time and self time per span name.

    ``spans`` holds whole commands, so every parent is among them. A span's
    self time is its duration minus the durations of its direct children;
    calls run one after another, so children never overlap.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    for s in spans:
        duration = s.end_ns - s.start_ns
        calls[s.name] += 1
        total[s.name] += duration
        own[s.name] += duration - child_ns[s.id]
    return {name: LayerTotals(calls[name], total[name], own[name]) for name in calls}
