"""Stencil-as-a-service: an asyncio batched job server.

The ROADMAP north star is serving stencil workloads (option pricing per
user, alignments per request, many small simulations) to heavy traffic,
and PRs 3–8 built exactly the warm state a long-running server
amortizes: the ``.so`` cache keyed on compiler identity and the
supervised shared-memory worker pool.  :class:`StencilServer` is the
front-end that turns those from per-process caches into serving
infrastructure:

* **admission/batching** — submitted jobs are grouped by problem
  signature (and time range); a group launches when it reaches
  ``max_batch`` or its ``batch_window`` expires, and runs through the
  local driver (:func:`repro.trap.driver.execute_problem`) under the
  server's ``ServeOptions.run``, as ONE run: every generated
  clone runs over a stack of jobs (a local run is a batch of one), so K
  small jobs cost one GIL-released call per region instead of K, under
  the executor, workers and walk threads a local run of one job would
  use.
* **warm-state serving** — a kernel's code is loaded once per process
  by the compiler's loaders (the ``.so`` cache's per-digest file lock
  runs cc once for racing first requests, in and across processes),
  and binds no job's buffers until its batch runs.  Every job runs
  under the server's ``ServeOptions.run``, nothing else: a submission
  carries a problem, never the options (workers, processes, codegen)
  it would spend the server's resources with.
* **control** — bounded admission (job count and point volume) rejects
  with :class:`ServerBusy` instead of queueing unboundedly or dropping;
  :meth:`StencilServer.drain` (wired to SIGTERM via
  :meth:`StencilServer.install_signal_handlers`) stops admitting,
  finishes every accepted job, and resolves every future; per-job
  :class:`~repro.language.stencil.RunReport` telemetry records queue
  wait, batch size, and the compile-cache hit flag.

Degradation is the driver's, as for a local run: no C toolchain batches
on the NumPy backend, and a group that cannot stack (a
non-vectorizable boundary, the ``procs`` executor) runs one job at a
time with the ``batch:unstackable->sequential`` tag in
``report.degradations``.

The **network transport**: :func:`repro.serve.net.serve_tcp` exposes a
running server over a length-prefixed framed TCP protocol
(:mod:`repro.serve.protocol`).  Its payloads carry every array out of
band: sent from the live arrays, received in place and run on where
they landed, so a grid crosses the wire once each way.
:class:`repro.serve.client.StencilClient` is the robust caller —
connect/request deadlines, exponential backoff with jitter, and
idempotency keys deduplicated against the server's result journal
(bounded by entries and by bytes), so every accepted job
executes exactly once with bitwise-identical results no matter how the
wire misbehaves (the ``net.*`` fault sites prove it).  Per-job
deadlines (``submit(..., timeout=)`` / :class:`JobExpired`) and the
enriched :class:`ServerBusy` backpressure fields apply to the
in-process server too.
"""

from __future__ import annotations

from repro.serve.client import StencilClient
from repro.serve.net import LoopbackServer, NetServer, serve_tcp
from repro.serve.protocol import (
    DeadlineExceeded,
    FrameTooLarge,
    ProtocolError,
    RemoteError,
)
from repro.serve.server import (
    JobExpired,
    ServeOptions,
    ServerBusy,
    ServerClosed,
    StencilServer,
)

__all__ = [
    "DeadlineExceeded",
    "FrameTooLarge",
    "JobExpired",
    "LoopbackServer",
    "NetServer",
    "ProtocolError",
    "RemoteError",
    "ServeOptions",
    "ServerBusy",
    "ServerClosed",
    "StencilClient",
    "StencilServer",
    "serve_tcp",
]
