"""An in-memory span tracer that times the program from outside.

The tracer wraps public functions where their callers look them up
(``module.function`` or ``Class.method``), one span per call and never
per element.  A span is the tuple ``(span_id, parent_id, name, start,
end, attrs)``; the parent is whichever traced call was running in the
same task or thread (a :mod:`contextvars` variable, which asyncio tasks
and ``asyncio.to_thread`` both carry).  Spans stay in memory until the
run ends.  Calls made in a forked child process go straight through,
so worker processes never fill a copy of the log.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import os
import time
from collections import defaultdict
from typing import Callable, Iterable, Sequence

Span = tuple  # (span_id, parent_id, name, start, end, attrs)
AttrsFn = Callable[[tuple, dict, object], object]


class Tracer:
    """Records one span per wrapped call; :meth:`unpatch` restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, attrs: AttrsFn | None = None):
        """``fn`` timed as span ``name``; ``attrs(args, kwargs, result)``
        computes the span's attributes after the call."""
        spans = self.spans
        ids = self._ids
        current = self._current
        pid = self.pid
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if os.getpid() != pid:
                    return await fn(*args, **kwargs)
                span_id = next(ids)
                parent = current.get()
                token = current.set(span_id)
                result = None
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append(
                        (
                            span_id,
                            parent,
                            name,
                            start,
                            end,
                            attrs(args, kwargs, result) if attrs else None,
                        )
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                current.reset(token)
                spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        attrs(args, kwargs, result) if attrs else None,
                    )
                )

        return traced

    def patch(
        self,
        owner: object,
        attribute: str,
        name: str,
        attrs: AttrsFn | None = None,
    ) -> None:
        """Replace ``owner.attribute`` (module global or class member)
        by its traced wrapper; :meth:`unpatch` puts it back."""
        raw = vars(owner)[attribute]
        if isinstance(raw, classmethod):
            replacement: object = classmethod(
                self.wrap(name, raw.__func__, attrs)
            )
        else:
            replacement = self.wrap(name, raw, attrs)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


class SpanIndex:
    """Parent/child lookups over a finished span log."""

    def __init__(self, spans: Sequence[Span]):
        self.by_id = {span[0]: span for span in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span[2]].append(span)
            if span[1] is not None:
                self.children[span[1]].append(span)

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it the direct children cover."""
        start, end = span[3], span[4]
        return (end - start) - covered(
            ((child[3], child[4]) for child in self.children[span[0]]),
            start,
            end,
        )

    def outermost(
        self,
        names: Iterable[str],
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> list[Span]:
        """Spans named in ``names`` with no ancestor also named there,
        started within ``[since, until)``."""
        wanted = set(names)
        found = []
        for span in (span for name in wanted for span in self.by_name[name]):
            if not since <= span[3] < until:
                continue
            parent = self.by_id.get(span[1])
            while parent is not None and parent[2] not in wanted:
                parent = self.by_id.get(parent[1])
            if parent is None:
                found.append(span)
        return found

    def descendants(self, span: Span) -> list[Span]:
        """Every span below ``span`` in the call tree."""
        found: list[Span] = []
        stack = list(self.children[span[0]])
        while stack:
            child = stack.pop()
            found.append(child)
            stack.extend(self.children[child[0]])
        return found


def busy(spans: Iterable[Span]) -> float:
    """Summed duration of ``spans``."""
    return sum(span[4] - span[3] for span in spans)
