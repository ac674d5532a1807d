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
bookkeeping (``Stencil.advance_cursor``) locally.

Grids cross the wire without a copy on this side either: a submit frame
is a list of parts whose buffers are views of the live arrays, sent with
one ``sendmsg`` loop (and re-sent from the same views on a retry); a
response is received into one buffer, and copying its arrays back into
the stencil is the only copy.  A response whose arrays do not match the
stencil's (unknown name, or not the array's grid layout) raises
:class:`~repro.serve.protocol.ProtocolError` before anything is written.

**Same-host handoff.**  When the server is on this host (a loopback
peer) and a job's inline frame would be larger than the server's
staging buffer (:data:`repro.serve.net._STAGE`), the job's grids can go
through a **lease** instead of the socket: a shared-memory segment the
server creates for this connection (``T_LEASE``).  The client writes the
job's whole inline payload into it and sends a pointer SUBMIT (the lease
and the payload's length); the server runs the job in place, and its
RESULT carries only the report: the client unpacks its own payload
again and copies the results out of it as above.  A lease pays only when it
is reused (creating and first filling a segment costs about what the
socket does; refilling one costs a tenth), so the connection keeps its
leases in a pool keyed by size, and asks for one only once a size
recurs: a connection's first job of a size, and its second, go inline,
the second asking for a lease that the later ones use.  One lease holds
one job at a time.  A refused request leaves the job inline and gives
back the pool's idle leases of other sizes, so a connection whose jobs
change shape trades old leases for new ones.  ``report.transport`` says
which path a job took (``"shm"`` or ``"tcp"``).  A reconnect drops the
pool: leases belong to one connection.

``submit_many`` pipelines K jobs over one connection (all requests
ship before the first response is awaited), which is what lets the
server batch same-signature remote jobs into one compiled dispatch —
the network analogue of ``asyncio.gather`` over ``submit`` coroutines.
Every attempt of a burst of two or more jobs marks its last SUBMIT
(``"last": True``), so the server runs the burst when that frame
arrives rather than when its batch window expires.  The gain needs the
burst's jobs to arrive on one connection.  A single ``submit`` is not
marked: its job waits out the window, where same-signature jobs of
other connections join it (many clients of one job each would
otherwise run as as many batches of one).
"""

from __future__ import annotations

import mmap
import random
import socket
import time
import uuid
from collections import deque
from dataclasses import dataclass

from repro.errors import SpecificationError
from repro.language.array import _attach_segment, _close_segment
from repro.language.kernel import Kernel
from repro.language.stencil import Problem, RunReport, Stencil
from repro.serve import protocol
from repro.serve.net import _STAGE, LEASE_PREFIX
from repro.serve.protocol import (
    DeadlineExceeded,
    ProtocolError,
    RemoteError,
    T_ERROR,
    T_HEALTH,
    T_HEALTH_OK,
    T_LEASE,
    T_LEASE_OK,
    T_RESULT,
    T_SUBMIT,
    is_loopback,
)
from repro.serve.server import JobExpired, ServerBusy, ServerClosed


def _length(frame: list) -> int:
    """The payload length of a frame given as parts."""
    return sum(len(p) for p in frame) - protocol.HEADER.size


def _lease_size(frame: list) -> int:
    """The lease size a submit frame's payload needs, in whole pages so
    that jobs of one shape share a pool size, or 0 when the frame fits
    the server's staging buffer."""
    size = _length(frame)
    if size + protocol.HEADER.size <= _STAGE:
        return 0
    return size + -size % mmap.PAGESIZE


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
    #: The submit message, and its inline frame as ``protocol.
    #: frame_parts``: header bytes, then views of the live arrays.
    msg: dict
    frame: list
    #: The lease size its payload needs (:func:`_lease_size`).
    lease_size: int
    #: The lease of this connection it is in, until its answer arrives.
    lease: int | None = None
    #: How it was last sent: ``"shm"`` (in a lease) or ``"tcp"``.
    transport: str = "tcp"
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
        #: The connection's leases (id -> attached segment), the free ones
        #: by size, the lease sizes its jobs have needed, the sizes of the
        #: lease requests not yet answered (in order), and whether a
        #: granted lease could not be attached (a loopback tunnel to
        #: another host: stop asking).
        self._leases: dict = {}
        self._free: dict[int, list[int]] = {}
        self._seen: set[int] = set()
        self._asked: deque[int] = deque()
        self._remote = False

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        for shm in self._leases.values():
            _close_segment(shm, False)
        self._leases.clear()
        self._free.clear()
        self._seen.clear()
        self._asked.clear()
        self._remote = False

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
        *,
        timeout: float | None = None,
    ) -> RunReport:
        """Run one job on the server, under the server's run options;
        block until its report.

        Results land in ``stencil``'s arrays exactly as a local
        ``stencil.run`` would leave them.  ``timeout`` overrides the
        client's ``request_timeout`` for this call.  The job is not
        marked as a burst's end: it waits out the server's
        ``batch_window`` for same-signature jobs of other connections.
        """
        return self.submit_many([(stencil, steps, kernel)], timeout=timeout)[0]

    def submit_many(
        self,
        jobs: list[tuple[Stencil, int, Kernel]],
        *,
        timeout: float | None = None,
    ) -> list[RunReport]:
        """Pipeline K jobs over one connection; block until all reports.

        All submit frames ship before the first response is read, and
        the last of two or more is marked as the end of the burst, so
        the server
        runs the burst as soon as that frame arrives: same-signature
        jobs run as one batched compiled dispatch, with no wait for the
        server's ``batch_window``.  Retries (connection
        loss, torn frames, busy) re-send only the still-unanswered
        jobs, under the same idempotency keys — answered jobs are never
        re-requested, executed jobs are never re-executed.  The first
        non-retryable typed error aborts the call.
        """
        budget = timeout if timeout is not None else self.request_timeout
        deadline = (time.monotonic() + budget) if budget is not None else None
        pending: dict[str, _PendingJob] = {}
        order: list[str] = []
        for i, (stencil, steps, kernel) in enumerate(jobs):
            problem = stencil.prepare(steps, kernel)
            key = uuid.uuid4().hex
            msg = {"key": key, "deadline": budget, "problem": problem}
            if 1 < len(jobs) == i + 1:
                msg["last"] = True
            frame = protocol.frame_parts(T_SUBMIT, msg)
            pending[key] = _PendingJob(
                key=key, stencil=stencil, problem=problem, msg=msg,
                frame=frame, lease_size=_lease_size(frame),
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
            except BaseException:
                if self._asked or any(
                    j.lease is not None for j in pending.values()
                ):
                    # Jobs still run in this connection's leases (a new
                    # job must not be sent into one), or lease answers
                    # are still on their way.
                    self.close()
                raise
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
        """One wire attempt: (re)send every unanswered job, the last one
        marked as the end of the burst, then read responses until all
        are answered.  Raises a retryable error
        (``ConnectionError``/``TimeoutError``) on wire trouble; typed
        server errors propagate (or mark busy jobs for re-send)."""
        sock = self._connect(deadline)
        unanswered = [j for j in pending.values() if j.report is None]
        last = unanswered[-1]
        if len(pending) > 1 and "last" not in last.msg:
            # The burst's end moved (the jobs after it were answered):
            # mark this one.  It stays last until it is answered.
            last.msg["last"] = True
            last.frame = protocol.frame_parts(T_SUBMIT, last.msg)
            last.lease_size = _lease_size(last.frame)
        for job in unanswered:
            sock.settimeout(self._remaining(deadline))
            protocol.send_parts(sock, self._frame(job))
        # A lease pays only when it is reused, so a job that went inline
        # for want of a free lease asks for one once its size recurs on
        # this connection — after the submits, off their path.
        inline = [
            j.lease_size for j in unanswered if j.lease_size and j.lease is None
        ]
        self._ask(
            sock, [s for s in inline if s in self._seen or inline.count(s) > 1]
        )
        self._seen.update(j.lease_size for j in unanswered if j.lease_size)
        while self._asked or any(j.report is None for j in pending.values()):
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
            if ftype == T_LEASE_OK and isinstance(msg, dict) and self._asked:
                self._granted(sock, msg)
                continue
            if not isinstance(msg, dict) or "key" not in msg:
                self.close()
                raise ConnectionError("response without a job key")
            job = pending.get(msg["key"])
            if job is None or job.report is not None:
                continue  # stale duplicate (an earlier attempt's answer)
            lease = job.lease
            if lease is not None and ftype in (T_RESULT, T_ERROR):
                # The server frees a lease before it answers the job in it.
                self._free.setdefault(job.lease_size, []).append(lease)
                job.lease = None
            if ftype == T_RESULT:
                if lease is not None and not msg.get("replayed"):
                    # The job ran in place on its payload in the lease.
                    payload = protocol.unpack(
                        self._leases[lease].buf[:_length(job.frame)]
                    )
                    msg["arrays"] = {
                        name: arr.data
                        for name, arr in payload["problem"].arrays.items()
                    }
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
        try:
            for name, buf in arrays.items():
                job.stencil.arrays[name].check_layout(buf)
        except KeyError:
            raise ProtocolError(f"result carries unknown array {name!r}") from None
        except SpecificationError as exc:
            raise ProtocolError(f"result array {name!r}: {exc}") from None
        for name, buf in arrays.items():
            arr = job.stencil.arrays[name]
            arr.load(buf)
        job.stencil.advance_cursor(job.problem)
        report.transport = job.transport
        report.attempts = attempt
        report.replayed = bool(msg.get("replayed"))
        if attempt > 1 and "net:retried" not in report.degradations:
            report.degradations.append("net:retried")
        job.report = report

    # -- leases ------------------------------------------------------------
    def _frame(self, job: _PendingJob) -> list:
        """The job's submit frame for this connection: a pointer to its
        payload, written into a free lease of its size when there is one,
        else the inline frame."""
        free = self._free.get(job.lease_size) if job.lease_size else None
        job.lease = free.pop() if free else None
        if job.lease is None:
            job.transport = "tcp"
            return job.frame
        job.transport = "shm"
        buf, at = self._leases[job.lease].buf, 0
        head = memoryview(job.frame[0])[protocol.HEADER.size:]
        for part in (head, *job.frame[1:]):
            buf[at:at + len(part)] = part
            at += len(part)
        return protocol.frame_parts(T_SUBMIT, {"lease": job.lease, "length": at})

    def _ask(self, sock: socket.socket, sizes: list[int], release=()) -> None:
        """Ask the server for a lease of each of ``sizes`` (unless the
        server is not on this host), giving back the free leases
        ``release`` first.  The answers come with the jobs' responses
        (:meth:`_granted`)."""
        if not sizes or self._remote or not is_loopback(sock.getpeername()):
            return
        for size in sorted(sizes):
            ask = {"size": size, "release": list(release)}
            protocol.send_parts(sock, protocol.frame_parts(T_LEASE, ask))
            self._asked.append(size)
            release = ()

    def _granted(self, sock: socket.socket, msg: dict) -> None:
        """Take the answer to the oldest lease request.  A granted lease
        joins the pool.  A refused one gives back the free leases of other
        sizes and asks once more: a connection whose jobs change shape
        trades its old leases for new ones instead of sending inline for
        good."""
        size = self._asked.popleft()
        lid, name = msg.get("lease"), msg.get("name")
        if lid is None:
            others = [i for s, ids in self._free.items() if s != size for i in ids]
            if size and others:
                for i in others:
                    _close_segment(self._leases.pop(i), False)
                self._free = {size: self._free.get(size, [])}
                self._ask(sock, [size], release=others)
            return
        shm = None
        if isinstance(name, str) and name.startswith(LEASE_PREFIX):
            try:
                shm = _attach_segment(name)
            except (OSError, ValueError):
                pass
        if shm is None or shm.size < size:
            if shm is not None:
                _close_segment(shm, False)
            self._ask(sock, [0], release=[lid])
            self._remote = True
            return
        self._leases[lid] = shm
        self._free.setdefault(size, []).append(lid)

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
