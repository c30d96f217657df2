"""Spans recorded in memory around calls into the library, and self times.

The spans are taken by the benchmark around the public calls it makes, not
inside the program, so each layer is measured from outside.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    pass_id: str


class Tracer:
    """Collects spans and byte counts; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.pass_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.pass_id)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[(self.pass_id, name)] += amount

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        result = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for start, end in sorted(children[index]):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span.end - span.start - covered)
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": [asdict(s) for s in self.spans],
                "counts": [[p, n, v] for (p, n), v in sorted(self.counts.items())],
            }, fh)
