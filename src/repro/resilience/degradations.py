"""Run-scoped recording of fired fallbacks (``RunReport.degradations``).

Every graceful-degradation site in the pipeline — compiler fallbacks,
``.so`` cache eviction, registry corruption, checkpoint skips, executor
retries — calls :func:`note` with a short stable tag.  The execution
driver wraps each run in :func:`collect`, which routes those notes into
the run's ``RunReport.degradations`` list; outside any collector a note
is dropped (a library import or a bare ``compile_kernel`` call has no
report to fill).

Tags are deduplicated per sink and ordered by first firing, so a
fallback that fires once per base case still records one line.

A served group is a local run, so its fallbacks are the driver's: a
group that cannot run as one stack runs one job at a time and says so
with ``batch:unstackable->sequential``.  The server itself adds one tag,
``serve:expired``, which travels on the :class:`~repro.serve.server.
JobExpired` exception instead, since a shed job has no report.
``net:*`` tags are appended client-side by
:class:`~repro.serve.client.StencilClient` (``net:retried`` when a job
needed more than one wire attempt), recording transport-level recovery
in the same place execution fallbacks land.

Concurrency: sinks live in a process-global stack guarded by a lock, so
notes from DAG worker threads land in the run that spawned them.  Two
*nested* concurrent runs (a kernel calling ``Stencil.run``) both report
into the innermost active sink — best-effort attribution, matching the
nested-run caveats elsewhere in the executors.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

_LOCK = threading.Lock()
_SINKS: list[list[str]] = []


@contextmanager
def collect(sink: list[str]) -> Iterator[list[str]]:
    """Route :func:`note` calls into ``sink`` for the duration."""
    with _LOCK:
        _SINKS.append(sink)
    try:
        yield sink
    finally:
        with _LOCK:
            try:
                _SINKS.remove(sink)
            except ValueError:  # pragma: no cover - defensive
                pass


def note(tag: str) -> None:
    """Record a fired fallback (deduplicated; no-op outside a run)."""
    with _LOCK:
        if not _SINKS:
            return
        sink = _SINKS[-1]
        if tag not in sink:
            sink.append(tag)


def active() -> bool:
    """Is any collector installed?  (Cheap guard for hot paths.)"""
    return bool(_SINKS)
