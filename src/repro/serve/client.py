"""`StencilClient`: the robust synchronous client of the TCP front-end.

The client owns the *caller-side* half of the robustness contract:

* **deadlines** — ``connect_timeout`` bounds each TCP connect;
  ``request_timeout`` (or a per-call ``timeout=``) bounds the whole
  submit including every retry.  When the budget runs out the client
  raises :class:`~repro.serve.protocol.DeadlineExceeded`; the budget
  also rides to the server, which sheds the job (typed ``expired``)
  if it is still queued past it.
* **retries with exponential backoff and jitter** — connection drops,
  torn frames, and timeouts are retried up to ``retries`` times with
  ``backoff * 2**attempt`` sleeps (capped at ``backoff_max``, scaled by
  a random jitter factor so a retrying fleet does not stampede).
  ``ServerBusy`` responses honor the server's ``retry_after`` hint.
* **idempotency keys** — every job gets a unique key, and every retry
  of that job reuses it.  The server's result journal then deduplicates:
  a retry after a dropped response *replays* the recorded result — the
  job executed exactly once, and the report says so
  (``report.replayed``, ``report.attempts``).

Results land in the submitted stencil's arrays bitwise-identical to a
local ``stencil.run`` — the response carries the server-side modular
buffers verbatim, and the client performs the same post-run
bookkeeping (``note_written_through`` + cursor advance) locally.

Grids cross the wire without a copy on this side either: a submit frame
is a list of parts whose buffers are views of the live arrays, sent with
one ``sendmsg`` loop (and re-sent from the same views on a retry); a
response is received into one buffer, and copying its arrays back into
the stencil is the only copy.  A response whose arrays do not match the
stencil's (unknown name, wrong dtype or byte size) raises
:class:`~repro.serve.protocol.ProtocolError` before anything is written.

``submit_many`` pipelines K jobs over one connection (all requests
ship before the first response is awaited), which is what lets the
server batch same-signature remote jobs into one compiled dispatch —
the network analogue of ``asyncio.gather`` over ``submit`` coroutines.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from dataclasses import dataclass

import numpy as np

from repro.errors import SpecificationError
from repro.language.kernel import Kernel
from repro.language.stencil import Problem, RunOptions, RunReport, Stencil
from repro.serve import protocol
from repro.serve.protocol import (
    DeadlineExceeded,
    ProtocolError,
    RemoteError,
    T_ERROR,
    T_HEALTH,
    T_HEALTH_OK,
    T_RESULT,
    T_SUBMIT,
)
from repro.serve.server import JobExpired, ServerBusy, ServerClosed


def error_to_exception(msg: dict) -> Exception:
    """Rebuild the typed exception a ``T_ERROR`` payload describes."""
    code = msg.get("code")
    message = msg.get("message", "")
    if code == "busy":
        return ServerBusy(
            message,
            pending_jobs=int(msg.get("pending_jobs", 0)),
            pending_points=int(msg.get("pending_points", 0)),
            retry_after=float(msg.get("retry_after", 0.0)),
        )
    if code == "closed":
        return ServerClosed(message)
    if code == "expired":
        return JobExpired(message)
    if code == "invalid":
        return SpecificationError(message)
    if code == "protocol":
        return ProtocolError(message)
    return RemoteError(message, remote_type=msg.get("remote_type", "Exception"))


@dataclass
class _PendingJob:
    """One job's wire state across the retry loop."""

    key: str
    stencil: Stencil
    problem: Problem
    #: The submit frame as ``protocol.frame_parts``: header bytes, then
    #: views of the live arrays.
    frame: list
    report: RunReport | None = None


class StencilClient:
    """Synchronous client for a :func:`repro.serve.net.serve_tcp` endpoint.

    One client holds one connection (re-established transparently after
    failures) and is intended for single-threaded use; run several
    clients for concurrent callers.

    Parameters mirror the module docstring: ``retries`` counts *extra*
    attempts after the first (4 retries = up to 5 attempts), and
    ``retry_busy=False`` surfaces :class:`ServerBusy` to the caller
    instead of honoring the server's backoff hint internally.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float | None = 60.0,
        retries: int = 4,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        retry_busy: bool = True,
        max_frame: int = protocol.MAX_FRAME,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.retry_busy = retry_busy
        self.max_frame = max_frame
        self._sock: socket.socket | None = None

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "StencilClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API --------------------------------------------------------
    def submit(
        self,
        stencil: Stencil,
        steps: int,
        kernel: Kernel,
        options: RunOptions | None = None,
        *,
        timeout: float | None = None,
    ) -> RunReport:
        """Run one job on the server; block until its report.

        Results land in ``stencil``'s arrays exactly as a local
        ``stencil.run`` would leave them.  ``timeout`` overrides the
        client's ``request_timeout`` for this call.
        """
        return self.submit_many(
            [(stencil, steps, kernel)], options, timeout=timeout
        )[0]

    def submit_many(
        self,
        jobs: list[tuple[Stencil, int, Kernel]],
        options: RunOptions | None = None,
        *,
        timeout: float | None = None,
    ) -> list[RunReport]:
        """Pipeline K jobs over one connection; block until all reports.

        All submit frames ship before the first response is read, so
        same-signature jobs reach the server inside one batch window
        and run as one batched compiled dispatch.  Retries (connection
        loss, torn frames, busy) re-send only the still-unanswered
        jobs, under the same idempotency keys — answered jobs are never
        re-requested, executed jobs are never re-executed.  The first
        non-retryable typed error aborts the call.
        """
        budget = timeout if timeout is not None else self.request_timeout
        deadline = (time.monotonic() + budget) if budget is not None else None
        pending: dict[str, _PendingJob] = {}
        order: list[str] = []
        for stencil, steps, kernel in jobs:
            problem = stencil.prepare(steps, kernel)
            key = uuid.uuid4().hex
            frame = protocol.frame_parts(
                T_SUBMIT,
                {
                    "key": key,
                    "deadline": budget,
                    "problem": problem,
                    "options": options,
                },
            )
            pending[key] = _PendingJob(
                key=key, stencil=stencil, problem=problem, frame=frame
            )
            order.append(key)

        attempt = 0
        last_error: Exception | None = None
        while any(j.report is None for j in pending.values()):
            attempt += 1
            if attempt > 1 + self.retries:
                break
            if attempt > 1:
                self._sleep_backoff(attempt, deadline, last_error)
            self._check_deadline(deadline)
            try:
                self._attempt(pending, deadline, attempt)
            except (ConnectionError, TimeoutError, OSError) as exc:
                self.close()
                last_error = exc
                continue
        unanswered = [j for j in pending.values() if j.report is None]
        if unanswered:
            self._check_deadline(deadline)
            raise last_error if last_error is not None else ConnectionError(
                f"{len(unanswered)} job(s) unanswered after "
                f"{attempt} attempt(s)"
            )
        return [pending[key].report for key in order]  # type: ignore[misc]

    def health(self, *, timeout: float | None = 5.0) -> dict:
        """Liveness/readiness probe: the server's health payload."""
        sock = self._connect(
            time.monotonic() + timeout if timeout is not None else None
        )
        sock.settimeout(timeout)
        try:
            protocol.send_parts(sock, protocol.frame_parts(T_HEALTH, {}))
            ftype, payload = protocol.recv_frame(sock, max_frame=self.max_frame)
        except (ConnectionError, TimeoutError, OSError):
            self.close()
            raise
        if ftype != T_HEALTH_OK:
            self.close()
            raise ProtocolError(f"health probe answered with frame type {ftype}")
        return protocol.unpack(payload)  # type: ignore[return-value]

    # -- the retry engine --------------------------------------------------
    def _attempt(
        self,
        pending: dict[str, _PendingJob],
        deadline: float | None,
        attempt: int,
    ) -> None:
        """One wire attempt: (re)send every unanswered job, then read
        responses until all are answered.  Raises a retryable error
        (``ConnectionError``/``TimeoutError``) on wire trouble; typed
        server errors propagate (or mark busy jobs for re-send)."""
        sock = self._connect(deadline)
        unanswered = [j for j in pending.values() if j.report is None]
        for job in unanswered:
            sock.settimeout(self._remaining(deadline))
            protocol.send_parts(sock, job.frame)
        while any(j.report is None for j in pending.values()):
            sock.settimeout(self._remaining(deadline))
            try:
                ftype, payload = protocol.recv_frame(
                    sock, max_frame=self.max_frame
                )
            except ProtocolError:
                # A torn/garbled response stream is unusable: drop the
                # connection and let the retry loop rebuild it.
                self.close()
                raise ConnectionError("garbled response stream") from None
            msg = protocol.unpack(payload)
            if not isinstance(msg, dict) or "key" not in msg:
                self.close()
                raise ConnectionError("response without a job key")
            job = pending.get(msg["key"])
            if job is None or job.report is not None:
                continue  # stale duplicate (an earlier attempt's answer)
            if ftype == T_RESULT:
                self._apply_result(job, msg, attempt)
            elif ftype == T_ERROR:
                exc = error_to_exception(msg)
                if isinstance(exc, ServerBusy) and self.retry_busy:
                    # Honor the server's hint; the job stays unanswered
                    # and the next attempt re-sends it.
                    self._sleep_busy(exc, deadline)
                    raise ConnectionError("server busy; backing off") from exc
                raise exc
            else:
                self.close()
                raise ConnectionError(f"unexpected frame type {ftype}")

    def _apply_result(self, job: _PendingJob, msg: dict, attempt: int) -> None:
        """Copy the server-side buffers into the local arrays and do the
        post-run bookkeeping — the bitwise twin of a local run.  Every
        array is checked before any is written."""
        report = msg.get("report")
        arrays = msg.get("arrays")
        if not isinstance(report, RunReport) or not isinstance(arrays, dict):
            raise ProtocolError("result without a report and arrays")
        for name, buf in arrays.items():
            arr = job.stencil.arrays.get(name)
            if arr is None:
                raise ProtocolError(f"result carries unknown array {name!r}")
            if not isinstance(buf, np.ndarray) or buf.dtype != arr.data.dtype:
                raise ProtocolError(
                    f"result array {name!r} is not {arr.data.dtype} data"
                )
            if buf.nbytes != arr.data.nbytes:
                raise ProtocolError(
                    f"result array {name!r} holds {buf.nbytes} bytes, "
                    f"expected {arr.data.nbytes}"
                )
        for name, buf in arrays.items():
            arr = job.stencil.arrays[name]
            arr.data[...] = buf.reshape(arr.data.shape)
            arr.note_written_through(job.problem.t_end - 1)
        job.stencil.advance_cursor(job.problem)
        report.transport = "tcp"
        report.attempts = attempt
        report.replayed = bool(msg.get("replayed"))
        if attempt > 1 and "net:retried" not in report.degradations:
            report.degradations.append("net:retried")
        job.report = report

    # -- plumbing ----------------------------------------------------------
    def _connect(self, deadline: float | None) -> socket.socket:
        if self._sock is not None:
            return self._sock
        timeout = self.connect_timeout
        remaining = self._remaining(deadline)
        if remaining is not None:
            timeout = min(timeout, max(remaining, 0.001))
        sock = socket.create_connection((self.host, self.port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    @staticmethod
    def _remaining(deadline: float | None) -> float | None:
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded("request deadline exhausted")
        return remaining

    def _check_deadline(self, deadline: float | None) -> None:
        self._remaining(deadline)

    def _sleep_backoff(
        self,
        attempt: int,
        deadline: float | None,
        last_error: Exception | None,
    ) -> None:
        """Exponential backoff with jitter, clamped to the deadline."""
        delay = min(self.backoff * 2 ** (attempt - 2), self.backoff_max)
        delay *= random.uniform(0.5, 1.0)
        remaining = self._remaining(deadline)
        if remaining is not None:
            if delay >= remaining:
                raise DeadlineExceeded(
                    "request deadline exhausted during backoff"
                ) from last_error
            delay = min(delay, remaining)
        time.sleep(delay)

    def _sleep_busy(self, busy: ServerBusy, deadline: float | None) -> None:
        """Back off per the server's ``retry_after`` hint (jittered)."""
        delay = max(busy.retry_after, self.backoff) * random.uniform(0.8, 1.2)
        delay = min(delay, self.backoff_max)
        remaining = self._remaining(deadline)
        if remaining is not None:
            if delay >= remaining:
                raise DeadlineExceeded(
                    "request deadline exhausted while server busy"
                ) from busy
            delay = min(delay, remaining)
        time.sleep(delay)
