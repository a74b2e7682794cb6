"""In-memory spans for the traced benchmark runs.

A span records one call into a dmlat layer: its name, start and end
(``time.perf_counter``, which is the system-wide monotonic clock on Linux,
so spans from child processes line up with the parent's), the span that
caused it and the operation it belongs to, plus counts such as samples
used. Spans stay in memory; run.py writes them out when a run ends.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    """Collects spans; ``span`` nests through an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self.op, "name": name,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def adopt(self, spans: list[dict]) -> None:
        """Add spans recorded by a child process under the current span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            self.spans.append({**s, "id": base + s["id"], "op": self.op,
                               "parent": parent if s["parent"] is None
                               else base + s["parent"]})


class NullTracer:
    """Stands in for ``Tracer`` on untraced operations: records nothing."""

    op = None

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})
