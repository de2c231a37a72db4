"""In-memory spans recorded around the calls into each layer.

A span has a name, start and end (``perf_counter_ns``), the id of the
span that caused it, and the op it belongs to.  The layer is the name's
first dotted component (``streaming.stream_of`` is in ``streaming``).
Spans stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

LAYERS = ("streaming", "core", "distributed", "serve")


@dataclass
class Span:
    span_id: int
    name: str
    op_id: str
    parent: Optional[int]
    start_ns: int
    end_ns: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class SpanRecorder:
    """Collects spans; :meth:`span` is the only way to open one.

    Client threads of the serve workload share one recorder, so a span's
    id and its place in the list are assigned under a lock.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op_id: str, parent: Optional[Span] = None) -> Iterator[Span]:
        with self._lock:
            record = Span(
                span_id=len(self.spans),
                name=name,
                op_id=op_id,
                parent=parent.span_id if parent is not None else None,
                start_ns=time.perf_counter_ns(),
            )
            self.spans.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.span_id]

    def self_ms(self, span: Span) -> float:
        """Duration minus the durations of its children.

        Children of one span open one after another on one thread, so
        they never overlap; for an op span this is the part of the op
        that no layer span covers.
        """
        return span.duration_ms - sum(c.duration_ms for c in self.children(span))

    def layer_self_ms(self, root: Span) -> Dict[str, float]:
        """Self time per layer over the spans below ``root``."""
        totals = {layer: 0.0 for layer in LAYERS}
        stack = self.children(root)
        while stack:
            span = stack.pop()
            if span.layer in totals:
                totals[span.layer] += self.self_ms(span)
            stack.extend(self.children(span))
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([asdict(s) for s in self.spans], separators=(",", ":")),
            encoding="utf-8",
        )

