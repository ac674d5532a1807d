"""Stencil-as-a-service: an asyncio batched job server.

The ROADMAP north star is serving stencil workloads (option pricing per
user, alignments per request, many small simulations) to heavy traffic,
and PRs 3–8 built exactly the warm state a long-running server
amortizes: the ``.so`` cache keyed on compiler identity, the autotune
registry keyed on problem signature × machine, and the supervised
shared-memory worker pool.  :class:`StencilServer` is the front-end
that turns those from per-process caches into serving infrastructure:

* **admission/batching** — submitted jobs are grouped by problem
  signature (and time range); a group launches when it reaches
  ``max_batch`` or its ``batch_window`` expires, and runs as ONE
  batched compiled dispatch (:func:`repro.trap.driver.execute_batch`):
  every generated clone runs over a stack of jobs (a local run is a
  batch of one), so K small jobs cost one GIL-released call per region
  instead of K.
* **warm-state serving** — a kernel's library is loaded once per
  process, single-flight (concurrent requesters of one kernel await
  the same in-process flight, and the ``.so`` cache's per-digest file
  lock extends the dedup across processes), and binds no job's buffers
  until its batch runs; tuned configs are served from the autotune
  registry on the request path (``RunOptions(autotune="use")``).
* **control** — bounded admission (job count and point volume) rejects
  with :class:`ServerBusy` instead of queueing unboundedly or dropping;
  :meth:`StencilServer.drain` (wired to SIGTERM via
  :meth:`StencilServer.install_signal_handlers`) stops admitting,
  finishes every accepted job, and resolves every future; per-job
  :class:`~repro.language.stencil.RunReport` telemetry records queue
  wait, batch size, and cache/registry hit flags.

Degradation follows the house rules: no C toolchain (or an unbatchable
mode/boundary) never fails a job — it runs unbatched on the NumPy
backend with a ``serve:*`` tag in ``report.degradations``.

PR 10 adds the **network transport**: :func:`repro.serve.net.serve_tcp`
exposes a running server over a length-prefixed framed TCP protocol
(:mod:`repro.serve.protocol`), and :class:`repro.serve.client.
StencilClient` is the robust caller — connect/request deadlines,
exponential backoff with jitter, and idempotency keys deduplicated
against the server's bounded result journal, so every accepted job
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
