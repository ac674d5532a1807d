"""In-memory span recorder for the traced pass.

The benchmark measures layers *from outside*: it wraps each call into a
layer's public function in :meth:`Tracer.span`.  A span is
``{name, start, end, parent, op_id}``; spans of one operation share its
``op_id`` and hang off one root span.  Nothing is written until the run
ends (:meth:`Tracer.write` emits Chrome-trace JSON), and a layer's self
time is its span minus the part its children cover.

Single-threaded by design: only the benchmark's own thread records.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str):
        """Record one span.  A span opened while none is open is the root
        of a new operation; nested spans become children of the open one
        and share its ``op_id``."""
        parent = self._open[-1] if self._open else None
        if parent is None:
            op_id = self._ops
            self._ops += 1
        else:
            op_id = self.spans[parent]["op_id"]
        rec = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "op_id": op_id}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    # -- reading -----------------------------------------------------------
    def _roots(self, root: str) -> list[int]:
        return [
            i
            for i, s in enumerate(self.spans)
            if s["parent"] is None and s["name"] == root
        ]

    def per_op(self, root: str, name: str | None = None) -> list[float]:
        """Seconds per operation under root spans named ``root``: the root's
        own duration, or the summed duration of its direct children called
        ``name`` (an op that packs K frames has K ``pack`` children)."""
        out = []
        for r in self._roots(root):
            if name is None:
                out.append(self.spans[r]["end"] - self.spans[r]["start"])
            else:
                out.append(
                    sum(
                        s["end"] - s["start"]
                        for s in self.spans
                        if s["parent"] == r and s["name"] == name
                    )
                )
        return out

    def median(self, root: str, name: str | None = None) -> float:
        values = self.per_op(root, name)
        return statistics.median(values) if values else 0.0

    def coverage(self, root: str) -> float:
        """Median share of a root span's wall time its children account for."""
        shares = []
        for r in self._roots(root):
            total = self.spans[r]["end"] - self.spans[r]["start"]
            covered = sum(
                s["end"] - s["start"] for s in self.spans if s["parent"] == r
            )
            if total > 0:
                shares.append(covered / total)
        return statistics.median(shares) if shares else 0.0

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    # -- export ------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Chrome-trace JSON (open in chrome://tracing or Perfetto): one
        complete event per span, one track per root-span kind."""
        if not self.spans:
            return
        t0 = min(s["start"] for s in self.spans)
        tracks: dict[str, int] = {}
        events = []
        for s, self_s in zip(self.spans, self.self_seconds()):
            root = s
            while root["parent"] is not None:
                root = self.spans[root["parent"]]
            tid = tracks.setdefault(root["name"], len(tracks))
            events.append(
                {
                    "name": s["name"],
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": (s["start"] - t0) * 1e6,
                    "dur": (s["end"] - s["start"]) * 1e6,
                    "args": {"op_id": s["op_id"], "self_us": self_s * 1e6},
                }
            )
        meta = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": name}}
            for name, tid in tracks.items()
        ]
        path.write_text(json.dumps({"traceEvents": meta + events}))
