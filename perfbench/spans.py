"""In-memory span recorder and the wrapping that feeds it.

The benchmark times calls into vcdf from outside the package: each traced
function is replaced, at every module attribute that binds it, by a wrapper
that opens a span on entry and closes it on exit.  Spans nest by call
structure (the process is single-threaded), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """Spans kept in memory; only calls made inside an op are recorded."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list, init=False)
    _op: int | None = field(default=None, init=False)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; every span inside carries ``op_id``."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        if self._op is None:
            yield None
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._op))
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """``fn`` with a span around each call; ``count(args, result)`` returns the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if span is not None and count is not None:
                    span.counts = count(args, result)
                return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the time covered by its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - covered for span, covered in zip(spans, child_time)]


def find_bindings(fn: Callable, package: str) -> list[tuple[object, str]]:
    """Every (module, attribute) inside ``package`` that refers to ``fn``."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in vars(module).items():
            if value is fn:
                found.append((module, attr))
    return found


class Instrumentation:
    """Wrappers for ``targets`` at all of their bindings, installed on demand.

    ``targets`` lists ``(function, span name, count hook or None)``.  The
    bindings are looked up once; ``installed()`` swaps the wrappers in and
    restores the originals on exit, so untraced operations run the unmodified
    program.
    """

    def __init__(self, recorder: SpanRecorder, targets: list[tuple[Callable, str, Callable | None]],
                 package: str) -> None:
        self.swaps = []
        for fn, name, count in targets:
            wrapper = recorder.wrap(fn, name, count)
            bindings = find_bindings(fn, package)
            if not bindings:
                raise ValueError(f"{name}: no binding of {fn.__qualname__} inside {package}")
            self.swaps.extend((module, attr, fn, wrapper) for module, attr in bindings)

    @contextmanager
    def installed(self):
        try:
            for module, attr, _, wrapper in self.swaps:
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, fn, _ in self.swaps:
                setattr(module, attr, fn)
