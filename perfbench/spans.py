"""In-memory span recorder for the traced benchmark run.

Spans are recorded *from the benchmark*, around calls into each
layer's public functions: :meth:`Tracer.patch` replaces a function or
method where its callers look it up (``repro.pipeline.jobs.analyze_pair``
rather than ``repro.analyzer.analyzer.analyze_pair``, because the
pipeline imported the name) with a wrapper that records one span per
call.  Nothing under ``src/`` is edited, and :meth:`Tracer.restore`
puts every original back.

A span is ``(id, parent, name, start, end)``.  The parent is the span
open on the same thread when the call began, so nesting follows the
call stack and cross-thread work (the service's job threads) starts
its own top-level spans.  Spans stay in memory until the run ends;
:func:`layer_summary` turns them into busy and self times.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    """Records spans and per-span counters; patches call sites."""

    def __init__(self):
        self.spans: list[tuple[int, Optional[int], str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, value: float = 1) -> None:
        # The service's job threads count concurrently.
        with self._count_lock:
            self.counters[name] += value

    def wrap(
        self,
        fn: Callable,
        name,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``name`` is a string or ``name(args, result)`` (so a span can be
        named after what the call turned out to do, such as which kernel
        ran); ``observe(args, result)`` folds the result into counters.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                label = name if isinstance(name, str) else "error"
                tracer.spans.append(
                    (span_id, parent, label, start, time.perf_counter())
                )
                raise
            end = time.perf_counter()
            stack.pop()
            label = name if isinstance(name, str) else name(args, result)
            tracer.spans.append((span_id, parent, label, start, end))
            if observe is not None:
                observe(args, result)
            return result

        def traced_steps(*args, **kwargs):
            # A generator does its work while it is iterated, so each
            # step gets its own span.
            steps = fn(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                yield item

        wrapper = traced_steps if inspect.isgeneratorfunction(fn) else traced
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr`` (a module global or a class method)
        with a span-recording wrapper until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_summary(spans) -> dict:
    """Per span name: ``busy`` (summed duration of spans not nested in
    a span of the same name), ``self`` (duration minus the time covered
    by direct children) and ``calls``.  Children of one span run on its
    thread, one after another, so their durations never overlap."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "calls": 0}
    )
    for span_id, parent, name, start, end in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self"] += (end - start) - child_time.get(span_id, 0.0)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry["busy"] += end - start
    return dict(out)

