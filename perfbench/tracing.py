"""In-memory spans around the benchmark's own calls into each layer.

A span has a name ``<layer>.<call>``, a start and end on the
``perf_counter`` clock, the index of the span that encloses it and the
cell it belongs to. Spans stay in memory until :meth:`Tracer.write`.
A layer's self time is its spans' durations minus the parts covered by
their child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: Optional[str]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = self.spans[parent].cell
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, cell))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Seconds per layer, each span counted minus its children,
        over the spans from index ``first`` on (a span opened after
        ``first`` has its parent there too)."""
        own = {index: span.duration for index, span in enumerate(self.spans) if index >= first}
        for index in own:
            parent = self.spans[index].parent
            if parent is not None:
                own[parent] -= self.spans[index].duration
        totals: Dict[str, float] = {}
        for index, seconds in own.items():
            layer = self.spans[index].layer
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def durations(self, name: str, parent: Optional[str] = None) -> List[float]:
        """Durations of the spans called ``name`` (whose parent is
        called ``parent``, when given)."""
        return [
            span.duration
            for span in self.spans
            if span.name == name
            and (parent is None or self.spans[span.parent].name == parent)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
