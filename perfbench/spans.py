"""Layer spans, named timers and counters, recorded by wrapping callables.

The tracer knows nothing about femforge; ``layers.py`` decides what to wrap.
Spans are aggregated as they close (nothing is kept per call), so a traced
run of millions of calls stays small in memory.

Rules:

* A layer span opens when a wrapped callable of that layer is entered while
  the innermost open span belongs to another layer (or none is open).  A call
  into the layer that owns the innermost span is part of that span: calls
  within one layer count once, at the outermost call.
* A span's self time is its duration minus the durations of the spans of
  other layers nested directly inside it.
* A named timer measures every outermost call of its name, whatever layer is
  open, so ``Matrix.null_space`` is timed also when another ``exact``
  function calls it.
* Layer spans assume one thread.  ``cells`` records intervals from any
  thread (``list.append`` is atomic), for the CLI worker pool.
"""

from __future__ import annotations

import functools
import time


def _mark(wrapper):
    """Tag a wrapper so that a leftover one can be found after ``restore``."""
    wrapper._perfbench_wrapper = True
    return wrapper


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.timers: dict[str, list] = {}  # name -> [calls, seconds, depth]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.cells: list[tuple[float, float]] = []
        self._stack: list[list] = []  # open spans: [layer, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def span(self, layer: str, fn):
        """Wrap ``fn`` so that its calls open spans of ``layer``."""
        stats = self.layers.setdefault(layer, [0, 0.0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                stats[0] += 1
                stats[1] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return _mark(wrapper)

    def timer(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so that its outermost calls add to timer ``name``.

        ``before(*args, **kwargs)`` runs ahead of every call and
        ``after(result)`` after every call that returns."""
        stats = self.timers.setdefault(name, [0, 0.0, 0])
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if stats[2]:
                result = fn(*args, **kwargs)
            else:
                stats[2] = 1
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stats[1] += clock() - start
                    stats[0] += 1
                    stats[2] = 0
            if after is not None:
                after(result)
            return result

        return _mark(wrapper)

    def cell(self, fn):
        """Wrap ``fn`` so that each call records its (start, end) interval."""
        cells = self.cells
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cells.append((start, clock()))

        return _mark(wrapper)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- installation --------------------------------------------------------------

    def patch(self, owner, name: str, replacement) -> None:
        """Set ``owner.name`` to ``replacement``; ``restore`` undoes it."""
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- derived figures -------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return self.layers.get(layer, [0, 0.0])[0]

    def layer_self_s(self, layer: str) -> float:
        return self.layers.get(layer, [0, 0.0])[1]

    def timer_calls(self, name: str) -> int:
        return self.timers.get(name, [0, 0.0, 0])[0]

    def timer_s(self, name: str) -> float:
        return self.timers.get(name, [0, 0.0, 0])[1]

    def cells_covered_s(self) -> float:
        """Length of the union of the recorded cell intervals."""
        covered = 0.0
        end = None
        for lo, hi in sorted(self.cells):
            if end is None or lo > end:
                covered += hi - lo
                end = hi
            elif hi > end:
                covered += hi - end
                end = hi
        return covered
