"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent id, op id).  Spans nest strictly
(one thread, one caller), so a span's self time is its duration minus the
durations of its direct children; it is accumulated per name as spans close.
Only the first ``max_spans`` spans are kept for writing out, so that a sweep
(two spans per graph, 65536 graphs per pass) stays small in memory; self
times and counts cover every span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Name of the root span that wraps one benchmark operation.
OP = "op"


class Tracer:
    def __init__(self, max_spans: int = 200_000) -> None:
        self.max_spans = max_spans
        self.dropped = 0
        self.op_total_s = 0.0
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self.op_id = -1

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, name, parent, 0.0, perf_counter()])
        self._next_id += 1

    def end(self) -> float:
        stop = perf_counter()
        span_id, name, parent, child_s, start = self._stack.pop()
        dur = stop - start
        self.self_s[name] += dur - child_s
        if self._stack:
            self._stack[-1][3] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, stop, parent, self.op_id))
        else:
            self.dropped += 1
        return dur

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def op(self, fn, *args):
        """Run one benchmark operation under a root span; return (result, seconds)."""
        self.op_id += 1
        depth = len(self._stack)
        self.begin(OP)
        try:
            result = fn(*args)
        finally:
            while len(self._stack) > depth + 1:  # spans an exception left open
                self.end()
            seconds = self.end()
            self.op_total_s += seconds
        return result, seconds

    def coverage(self) -> float:
        """Layer self time over operation time (1 - root self share)."""
        return 1.0 - self.self_s[OP] / self.op_total_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "dropped": self.dropped}) + "\n")
            for span_id, name, start, stop, parent, op_id in self.spans:
                fh.write(f'[{span_id}, "{name}", {start!r}, {stop!r}, {parent}, {op_id}]\n')


class Patched:
    """Context manager that routes calls to public library functions through
    tracer spans by rebinding the names in the modules that look them up.

    ``points`` lists (module, attribute, span name, counter hook or None).
    Names a module no longer has are skipped, so a later library change that
    removes a function reads as zero self time instead of breaking the run.
    """

    def __init__(self, tracer: Tracer, points) -> None:
        self.tracer = tracer
        self.points = points
        self.saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        tracer = self.tracer

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def __enter__(self) -> "Patched":
        for module, attr, name, hook in self.points:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()
