"""In-memory spans recorded around the benchmark's calls into the package.

A span is ``[name, start, end, parent, kind]``: ``parent`` is the index
of the enclosing open span (-1 at top level) and ``kind`` is ``"own"``
for calls the workload makes, ``"probe"`` for extra calls made only to
time a layer on the workload's states, and ``"ref"`` for reference
probes on the cli_mix inputs (layers the workload cannot reach itself).
Counts (draws, epochs, steps, cluster sizes) are recorded next to the
spans with the kind in force, for the items of the record prefix only,
so that they repeat exactly for a given seed.  Spans and counts stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[str, float, str]] = []
        self.kind = "own"
        self._open: list[int] = []

    def open(self, name: str, kind: str | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, kind or self.kind])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, kind: str | None = None):
        index = self.open(name, kind)
        try:
            return fn(*args)
        finally:
            self.close(index)

    def probe(self, name: str, fn, *args):
        return self.call(name, fn, *args, kind="probe" if self.kind == "own" else self.kind)

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.kind))

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "kind")
        rows = [dict(zip(fields, span)) for span in self.spans]
        counts = [dict(zip(("name", "value", "kind"), c)) for c in self.counts]
        path.write_text(json.dumps({"spans": rows, "counts": counts}) + "\n", encoding="utf-8")


class NoTracer:
    """Stand-in used during untraced set-up: calls straight through."""

    def call(self, name: str, fn, *args, kind: str | None = None):
        return fn(*args)

    probe = call
