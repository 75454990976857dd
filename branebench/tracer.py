"""Outside-in span tracer: wraps branecalc's public functions from outside.

``Tracer.install`` replaces a function at every binding in the package (the
defining module's attribute and each ``from … import`` alias in another
``branecalc`` module) or a method in its class, with a wrapper that records
a span.  ``Tracer.restore`` puts every original back and returns the
bindings that still hold a wrapper, which must be none.

A span has the operation id it ran under, its own id, its parent's id, a
name, start and end times, its self time (its duration minus the time its
child spans cover) and the counters its counter function derived from the
call's arguments and result.  Spans stay in memory until the run writes
them out.  Counter functions run after the span's end time is taken; their
cost is excluded from the parent's self time too.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

Counters = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    layer: str  # span name, e.g. "linalg.rref"
    module: str  # defining module, e.g. "branecalc._linalg"
    attr: str  # "rref", or "Class.method"
    counters: Counters | None = None


@dataclass(frozen=True)
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float
    counters: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [id, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, args: tuple, kwargs: dict,
             counters: Counters | None = None):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = self.clock()
            self._close(frame, parent, name, start, end, None, end)
            raise
        end = self.clock()
        values = counters(args, kwargs, result) if counters else None
        self._close(frame, parent, name, start, end, values, self.clock())
        return result

    def _close(self, frame, parent, name, start, end, values, done) -> None:
        self._stack.pop()
        if parent is not None:
            parent[1] += done - start
        self.spans.append(Span(self.op, frame[0], parent[0] if parent else None,
                               name, start, end, (end - start) - frame[1], values))

    def wrap(self, name: str, fn, counters: Counters | None = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counters)

        traced.__branebench_traced__ = True
        return traced

    # -- installing and restoring --------------------------------------------

    def install(self, targets: list[Target], package: str = "branecalc") -> None:
        modules = _package_modules(package)
        for t in targets:
            module = sys.modules.get(t.module)
            owner_name, _, method = t.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self.wrap(t.layer, original, t.counters)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self, package: str = "branecalc") -> list[str]:
        """Put every original back; return the bindings still wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        left = []
        for mod in _package_modules(package):
            for attr, value in vars(mod).items():
                if getattr(value, "__branebench_traced__", False):
                    left.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    left += [f"{mod.__name__}.{attr}.{m}"
                             for m, v in vars(value).items()
                             if getattr(v, "__branebench_traced__", False)]
        return left


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]
