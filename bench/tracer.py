"""In-memory span tracer that instruments a package from outside.

Spans are recorded around calls into module-level functions by rebinding
the module attributes that hold them; the package's own source is not
touched.  `instrumented` restores every original binding on exit, so code
run after it is untraced.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from types import ModuleType
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


# call(fn, args, kwargs, counters) -> result; lets a span record counts
# (or substitute an argument) around the real call.
CallHook = Callable[[Callable, tuple, dict, Counter], object]


def call_through(fn, args, kwargs, counters):
    return fn(*args, **kwargs)


class Tracer:
    """Spans and counters for one traced stretch of work."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._open.clear()

    def wrap(self, fn: Callable, name: str,
             call: CallHook = call_through) -> Callable:
        """Return fn recording one span named `name` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, self.clock(), 0.0, parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                return call(fn, args, kwargs, self.counters)
            finally:
                span.end = self.clock()
                self._open.pop()

        return traced

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name.

        A span's self time is its duration minus the part of its interval
        covered by its child spans (overlapping children counted once).
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = _covered(span, children.get(index, ()))
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + (span.end - span.start) - covered)
        return totals

    def durations(self, name: str) -> list[float]:
        return [span.end - span.start for span in self.spans
                if span.name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [asdict(span) for span in self.spans],
                       "counters": dict(self.counters)}, handle)


def _covered(span: Span, children: Iterable[Span]) -> float:
    """Length of the union of the children's intervals inside span."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


@contextlib.contextmanager
def instrumented(tracer: Tracer, modules: Iterable[ModuleType],
                 targets: dict[str, Callable],
                 hooks: dict[str, CallHook] | None = None) -> Iterator[None]:
    """Trace `targets` at every attribute of `modules` that binds them.

    `targets` maps a span name to the original function; `hooks` maps
    some of those names to a call hook.  A function imported into several
    modules is rebound in each of them, so calls through any binding are
    recorded under the one span name.
    """
    hooks = hooks or {}
    modules = list(modules)
    replaced: list[tuple[ModuleType, str, Callable]] = []
    try:
        for name, original in targets.items():
            wrapper = tracer.wrap(original, name,
                                  hooks.get(name, call_through))
            bound = False
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        bound = True
            if not bound:
                raise LookupError(f"{name} is bound in none of the modules")
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)
