"""Spans around the benchmark's own calls into loggas.

A span records `layer.function`, a tag naming the input (`n512`,
`quartic_n2`, ...), its start and end on the tracer's clock, the id
of its parent span and the pass it ran in. Spans stay in memory and are
written out once, at the end of the run. With tracing off, `span` does
nothing.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    tag: str
    parent: int | None
    pass_no: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.enabled = False
        self.pass_no = -1  # -1 marks the set-up warm-up
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        if not self.enabled:
            yield
            return
        sp = Span(len(self.spans), name, tag, self._open[-1] if self._open else None,
                  self.pass_no, self.clock())
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield
        finally:
            sp.end = self.clock()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "tag": s.tag, "parent": s.parent, "pass": s.pass_no,
             "workload": self.workload, "start": s.start, "end": s.end}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.seconds - covered
    return out


def call_counts(spans: list[Span]) -> dict[str, int]:
    return dict(Counter(s.name for s in spans))
