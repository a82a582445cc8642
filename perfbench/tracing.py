"""In-memory span tracer that wraps library functions from outside.

A ``Tracer`` replaces chosen functions of the ``selfsim`` modules with
timing wrappers.  Every module that bound the original function at import
(``from .measures import convolve_grids``) gets the same wrapper, so a call
records exactly one span whichever module it went through.  Spans hold a
name, start, end and parent index and stay in memory until the run ends.

Self time is a span's duration minus the durations of its direct children;
over any call tree the self times sum to the duration of the root span.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper for ``fn``.  ``hook(span, args, kwargs, result)``
        runs after a call returns and may set span attributes.  A wrapper of
        this tracer is returned as it is."""
        if getattr(fn, "__tracer__", None) is self:
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        wrapper.__tracer__ = self
        return wrapper

    def install(self, module_name: str, func_name: str, hook=None, package: str = "selfsim") -> int:
        """Wrap ``module_name.func_name`` and rebind the wrapper in every
        loaded module of ``package`` that holds the original.  The span name
        is ``<module without package>.<function>``.  Returns the number of
        bindings replaced."""
        original = getattr(sys.modules[module_name], func_name)
        short = module_name[len(package) + 1:] if module_name.startswith(package + ".") else module_name
        wrapper = self.wrap(f"{short}.{func_name}", original, hook)
        rebound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original and value is not wrapper:
                    setattr(module, attr, wrapper)
                    rebound += 1
        return rebound

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def descendants_named(self, index: int, name: str, direct: bool = False) -> int:
        """Number of spans called ``name`` below span ``index`` (only its
        direct children when ``direct``).  Children always follow their
        parent in span order."""
        below = {index}
        count = 0
        for k in range(index + 1, len(self.spans)):
            if self.spans[k].parent in below:
                if not direct:
                    below.add(k)
                count += self.spans[k].name == name
        return count
