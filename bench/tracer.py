"""Span tracer that times calls into a program's layers from outside.

A hook names a module attribute that the program calls through (for
example ``cvloc.solver.lm_step``) and the span name to record for it.
``install`` replaces each attribute with a timing wrapper and ``restore``
puts the originals back. Spans carry the id of the enclosing span on the
same thread, so self time (duration minus the part covered by child
spans) can be computed afterwards. Spans stay in memory.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute: ``module.attr`` is recorded as span ``name``.

    ``count`` maps the call's (args, kwargs) to a dict of counters that are
    summed per span name; it runs outside the timed interval.
    """

    module: object
    attr: str
    name: str
    count: object = None


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
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


class Tracer:
    """Records spans around hooked calls while installed."""

    def __init__(self, hooks, clock=time.perf_counter):
        self.hooks = list(hooks)
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for hook in self.hooks:
            original = getattr(hook.module, hook.attr)
            self._originals.append((hook.module, hook.attr, original))
            setattr(hook.module, hook.attr, self._wrap(original, hook))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _open(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(next(self._ids), stack[-1].id if stack else None, name, 0.0)
        self.spans.append(span)
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._local.stack.pop()

    def _wrap(self, original, hook: Hook):
        def traced(*args, **kwargs):
            if hook.count is not None:
                counters = hook.count(args, kwargs)
                with self._lock:
                    for key, value in counters.items():
                        self.counts[hook.name][key] += value
            span = self._open(hook.name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = original
        return traced

    def self_time(self, span: Span) -> float:
        return span.duration - covered((c.start, c.end) for c in span.children)

    def totals(self, spans=None) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans if spans is None else spans:
            row = out[span.name]
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self.self_time(span)
        return dict(out)

    def subtree(self, root: Span) -> list[Span]:
        """``root`` and every span opened inside it on the same thread."""
        out, todo = [], [root]
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(span.children)
        return out

