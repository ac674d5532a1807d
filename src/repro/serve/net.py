"""The TCP front-end: :func:`serve_tcp` exposes a :class:`StencilServer`
to remote callers over the framed protocol of :mod:`repro.serve.protocol`.

The network boundary is where every new failure mode of the serving
story lives — torn frames, dropped connections, slow peers, duplicated
retries — so this module treats each as a first-class design input:

* **in-place receive** — each connection is a small
  :class:`asyncio.BufferedProtocol`: a payload too large for its staging
  buffer is received straight into one ``bytearray``, the submitted
  arrays unpickle as views into it (:func:`repro.serve.protocol.unpack`),
  a job of one runs on them in place (a batch scatters back into them),
  and the response sends those same arrays out of band — an unbatched
  grid is never copied between the socket reads and the socket writes.
* **same-host leases** — a loopback peer may ask for a lease
  (``T_LEASE``): a shared-memory segment, named :data:`LEASE_PREFIX`
  plus a random token, created for that one connection within
  :data:`CONN_LEASE_BYTES` per connection and :data:`LEASE_BYTES` over
  the server.  A pointer SUBMIT names a lease and a length: the job's
  whole payload sits there, unpacks as an inline one would and runs in
  place on the server's mapping, and its RESULT carries no arrays (the
  client reads them from the lease).  A lease holds one job at a time
  and serves only its own connection; ids are unique across
  connections.  Submitting into it again expires the journal entry of
  the job it held (typed ``expired``).  Giving it back (a later
  ``T_LEASE``'s ``release``) or closing the connection (after the job
  running in it) copies its journaled result into private memory and
  unlinks the segment.  Any other peer, or a refusal, goes inline over
  TCP.
* **idempotent replay** — every submit carries a client idempotency
  key; completed responses live in a **result journal**, LRU-bounded
  both by entry count (``journal_limit``) and by result-array bytes
  (:data:`JOURNAL_BYTES`), so a retry after a dropped response replays
  the recorded response instead of executing the job again.  Accepted
  jobs execute exactly once (within the journal's capacity),
  bitwise-identical to a local run.
* **burst flush** — a SUBMIT may say it ends its connection's burst
  (``"last": True``; anything but a bool is a malformed submit).  Each
  SUBMIT's handler is a task and admits its job before its first real
  await, so jobs are admitted in frame order and the marked one comes
  last: it launches every still-queued signature group the burst
  joined (:meth:`~repro.serve.server.StencilServer.submit_problem`),
  admitted, refused or replayed from the journal.  ``batch_window`` is
  the fallback for frames that do not mark.
* **deadline propagation** — a submit's remaining time budget rides in
  the frame; a job still queued past it is shed with a typed
  ``expired`` error before dispatch (:class:`~repro.serve.server.
  JobExpired`), never silently run.
* **typed backpressure** — :class:`~repro.serve.server.ServerBusy`
  crosses the wire with its ``pending_jobs``/``pending_points``/
  ``retry_after`` fields so clients back off intelligently.
* **poisoned connections, healthy server** — a malformed or oversized
  frame, a pointer to a lease its connection does not hold (or a busy
  one, or a length outside it, or a leased payload that is a pointer
  again) and a grid sent as a shared-memory descriptor draw a
  best-effort typed error and close *that* connection; other
  connections and the server are untouched.
* **graceful drain** — SIGTERM (via :meth:`NetServer.
  install_signal_handlers`) stops admitting, finishes every accepted
  remote job, flushes its response, then closes listeners and
  connections.
* **wire-level fault injection** — the ``net.*`` sites of
  :mod:`repro.resilience.faults` (``net.accept``, ``net.torn``,
  ``net.drop``, ``net.slow``) are consumed here, so the client×server
  fault-matrix tests can prove the whole surface.

:class:`LoopbackServer` runs the event loop on a background thread for
synchronous callers — the unit tests, the benchmark's network leg, and
quick scripts all share it.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import secrets
import signal as _signal
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from numbers import Real
from typing import Iterable

from repro.errors import SpecificationError
from repro.language.array import _close_segment, _create_segment
from repro.language.stencil import Problem
from repro.resilience import faults
from repro.serve import protocol
from repro.serve.protocol import (
    T_ERROR,
    T_HEALTH,
    T_HEALTH_OK,
    T_LEASE,
    T_LEASE_OK,
    T_RESULT,
    T_SUBMIT,
    is_loopback,
)
from repro.serve.server import (
    JobExpired,
    ServeOptions,
    ServerBusy,
    ServerClosed,
    StencilServer,
)

#: How long the ``net.slow`` fault stalls a response — long enough to
#: trip a sub-second client deadline, short enough for test suites.
SLOW_PEER_STALL = 0.35

#: Default bound on remembered responses (idempotent replay window).
JOURNAL_LIMIT = 256

#: Bound on the result-array bytes the journal pins, whatever its entry
#: count: a completed entry's size is the sum of its out-of-band buffers.
JOURNAL_BYTES = 1 << 30

#: Bound on the lease bytes the server holds at once over all its
#: connections (they are pages of ``/dev/shm``, so RAM the journal bound
#: does not see); a lease request past it is refused and the job goes
#: inline.
LEASE_BYTES = 1 << 28

#: Bound on the lease bytes one connection holds at once.
CONN_LEASE_BYTES = 1 << 26

#: Every lease segment's name starts with this (``/dev/shm/repro_lease_*``
#: on Linux), so a leak is easy to find.
LEASE_PREFIX = "repro_lease_"

#: Frames that fit in a staging buffer of this size are parsed whole out
#: of it, so a pipelined burst of small frames costs one ``recv`` (the
#: transport's own read size), not several per frame.  Reading pauses
#: while more than this many payload bytes wait for the handler.
_STAGE = 1 << 18

#: Large response frames go to the transport in slices of this size, each
#: followed by a ``drain()``: the transport copies what the socket does
#: not take at once, so a slice bounds that copy.
_WRITE_SLICE = 1 << 20


@dataclass(eq=False)
class _Lease:
    """A shared segment issued to one connection."""

    shm: object
    size: int
    #: The submit task running a job in it (at most one).
    job: asyncio.Task | None = None
    #: The key whose journaled result lives in it.
    holder: str | None = None


def error_payload(key: str | None, exc: BaseException) -> dict:
    """The typed wire form of a server-side failure."""
    if isinstance(exc, ServerBusy):
        return {
            "key": key,
            "code": "busy",
            "message": str(exc),
            "pending_jobs": exc.pending_jobs,
            "pending_points": exc.pending_points,
            "retry_after": exc.retry_after,
        }
    if isinstance(exc, ServerClosed):
        code = "closed"
    elif isinstance(exc, JobExpired):
        code = "expired"
    elif isinstance(exc, SpecificationError):
        code = "invalid"
    elif isinstance(exc, protocol.ProtocolError):
        code = "protocol"
    else:
        code = "internal"
    return {
        "key": key,
        "code": code,
        "message": str(exc) or type(exc).__name__,
        "remote_type": type(exc).__name__,
    }


class _FrameConnection(
    asyncio.streams.FlowControlMixin, asyncio.BufferedProtocol
):
    """One connection's receive side: frames with their payloads
    received in place.

    Bytes land in a staging buffer, and every frame that fits in it is
    copied out once complete.  A larger payload gets its own
    ``bytearray(length)``, seeded with what the stage already holds, and
    the socket fills the rest of it directly — a large grid is copied out
    of the kernel once and never again.  Parsed frames (or the error that
    ended the stream) queue for :meth:`next_frame`; reading pauses while
    they hold more than :data:`_STAGE` bytes.  ``writer`` is a
    :class:`asyncio.StreamWriter` over the same transport.
    """

    def __init__(self, net: "NetServer"):
        super().__init__()
        self._net = net
        self._stage = bytearray(_STAGE)
        self._staged = 0
        self._body: memoryview | None = None
        self._filled = 0
        self._ftype = 0
        self._frames: deque = deque()
        self._queued = 0
        self._waiter: asyncio.Future | None = None
        self._reading_paused = False
        self._dead = False
        self._closed = self._loop.create_future()
        self.transport: asyncio.Transport | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.task: asyncio.Task | None = None
        #: The leases issued to this connection, by id.
        self.leases: dict[int, _Lease] = {}
        #: The signature groups its open burst of submits joined, by
        #: signature (see
        #: :meth:`~repro.serve.server.StencilServer.submit_problem`).
        self.burst: dict = {}

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.writer = asyncio.StreamWriter(transport, self, None, self._loop)
        # Held here: the loop keeps only a weak reference to its tasks.
        self.task = self._loop.create_task(self._net._on_connection(self))

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        self._push(ConnectionError("connection closed"))
        if not self._closed.done():
            self._closed.set_result(None)

    def _get_close_waiter(self, stream) -> asyncio.Future:
        return self._closed

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._body is not None:
            return self._body[self._filled:]
        return memoryview(self._stage)[self._staged:]

    def buffer_updated(self, nbytes: int) -> None:
        if self._body is not None:
            self._filled += nbytes
            if self._filled == len(self._body):
                self._push((self._ftype, self._body.obj))
                self._body = None
        else:
            self._staged += nbytes
            self._parse()
        if self._queued > _STAGE and not self._reading_paused:
            self._reading_paused = True
            self.transport.pause_reading()

    def _parse(self) -> None:
        """Take every complete frame out of the stage, and start the
        in-place receive of one too large for it; keep a partial frame
        that fits for the next read."""
        stage, pos = self._stage, 0
        while not self._dead and self._staged - pos >= protocol.HEADER.size:
            end = pos + protocol.HEADER.size
            try:
                ftype, length = protocol.parse_header(
                    stage[pos:end], max_frame=self._net.max_frame
                )
            except protocol.ProtocolError as exc:
                # Nothing after a bad header can be framed: stop reading.
                self._dead = True
                self._push(exc)
                self.transport.pause_reading()
                break
            have = self._staged - end
            if have < length and protocol.HEADER.size + length <= _STAGE:
                break
            body = bytearray(length)
            take = min(length, have)
            body[:take] = memoryview(stage)[end:end + take]
            pos = end + take
            if take < length:
                self._ftype, self._filled = ftype, take
                self._body = memoryview(body)
                break
            self._push((ftype, body))
        rest = self._staged - pos
        if pos and rest:
            stage[:rest] = stage[pos:self._staged]
        self._staged = rest

    def _push(self, item) -> None:
        if isinstance(item, tuple):
            self._queued += len(item[1])
        self._frames.append(item)
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def next_frame(self) -> tuple[int, bytearray]:
        """The next frame; raises what ended the stream instead
        (:class:`ConnectionError` on EOF or a torn frame,
        :class:`~repro.serve.protocol.ProtocolError` on a bad header)."""
        while not self._frames:
            self._waiter = self._loop.create_future()
            await self._waiter
        item = self._frames.popleft()
        if isinstance(item, BaseException):
            raise item
        self._queued -= len(item[1])
        if self._reading_paused and self._queued <= _STAGE and not self._dead:
            self._reading_paused = False
            self.transport.resume_reading()
        return item


def _parse_submit(payload: bytearray, leases: dict[int, _Lease]) -> tuple:
    """A SUBMIT's ``(key, problem, deadline, last, lease)``; raises on
    anything else.  ``lease`` is the one a pointer SUBMIT names, its
    payload read from there: a lease of ``leases`` with no job in flight,
    holding the pointer's ``length``."""
    msg = protocol.unpack(payload)
    lease = None
    if isinstance(msg, dict) and "lease" in msg:
        lid, length = msg["lease"], msg.get("length")
        lease = leases.get(lid)
        if lease is None:
            raise protocol.ProtocolError(
                f"lease {lid!r} was not issued to this connection"
            )
        if lease.job is not None:
            raise protocol.ProtocolError(f"lease {lid} already has a job in flight")
        if type(length) is not int or not 0 < length <= lease.size:
            raise protocol.ProtocolError(
                f"a payload of {length!r} bytes in lease {lid} of {lease.size}"
            )
        msg = protocol.unpack(lease.shm.buf[:length])
        if isinstance(msg, dict) and "lease" in msg:
            raise protocol.ProtocolError("a leased payload may not be a pointer")
    key = msg["key"]
    problem = msg["problem"]
    deadline = msg.get("deadline")
    last = msg.get("last", False)
    if not isinstance(key, str) or not isinstance(problem, Problem):
        raise TypeError("a submit needs a str key and a Problem")
    if not isinstance(last, bool):
        raise TypeError(f"last {last!r} is not a bool")
    if deadline is not None and not (
        isinstance(deadline, Real) and math.isfinite(deadline)
    ):
        raise TypeError(f"deadline {deadline!r} is not a finite number")
    if msg.get("options") is not None:
        raise SpecificationError(
            "a job runs under the server's run options; "
            "a submit may not carry its own"
        )
    return key, problem, deadline, last, lease


class NetServer:
    """One listening front-end bound to a :class:`StencilServer`.

    Construct via :func:`serve_tcp`.  ``stats`` counts connections,
    requests, journal replays, injected wire faults, and protocol
    errors; the execution counters stay on ``server.stats`` (so
    ``server.stats["completed"]`` counting each accepted job exactly
    once *is* the exactly-once check the fault matrix asserts).
    """

    def __init__(
        self,
        server: StencilServer,
        host: str,
        port: int,
        *,
        max_frame: int = protocol.MAX_FRAME,
        journal_limit: int = JOURNAL_LIMIT,
    ):
        self.server = server
        self.max_frame = max_frame
        self.journal_limit = journal_limit
        self.stats: dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "replayed": 0,
            "protocol_errors": 0,
            "health_probes": 0,
            "wire_faults": 0,
            "leases": 0,
            "leases_refused": 0,
        }
        self._requested = (host, port)
        self._aio_server: asyncio.base_events.Server | None = None
        #: key -> completed response ``(ftype, payload dict)`` or an
        #: in-flight future resolving to one.  In-flight futures are never
        #: evicted; completed entries are, least recently used first.
        self._journal: dict[str, object] = {}
        #: The completed keys in LRU order, each with its result-array
        #: bytes, and their total.
        self._completed: OrderedDict[str, int] = OrderedDict()
        self._journal_bytes = 0
        #: Completed keys whose journaled arrays live in a lease, and it.
        self._leased: dict[str, _Lease] = {}
        #: Lease ids are unique across the server's connections.
        self._lease_ids = itertools.count(1)
        #: The bytes of every lease issued and not yet unlinked.
        self._lease_bytes = 0
        self._inflight: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._closed = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "NetServer":
        host, port = self._requested
        self._aio_server = await asyncio.get_running_loop().create_server(
            lambda: _FrameConnection(self), host, port
        )
        return self

    @property
    def host(self) -> str:
        assert self._aio_server is not None, "start() first"
        return self._aio_server.sockets[0].getsockname()[0]

    @property
    def port(self) -> int:
        assert self._aio_server is not None, "start() first"
        return self._aio_server.sockets[0].getsockname()[1]

    def install_signal_handlers(
        self, signals: Iterable[int] = (_signal.SIGTERM,)
    ) -> None:
        """SIGTERM => graceful drain (finish accepted jobs, then close)."""
        loop = asyncio.get_running_loop()
        for sig in signals:
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def drain(self) -> None:
        """Stop admitting; finish and answer every accepted remote job;
        close listeners and connections; release :meth:`serve_forever`.
        """
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        # New submissions now fail typed ("closed"); the in-process
        # server finishes everything already accepted.
        await self.server.close()
        # Every in-flight request handler flushes its response before
        # its task completes, so this barrier IS the "answer every
        # accepted remote job" guarantee.
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        if self._aio_server is not None:
            self._aio_server.close()
        for writer in list(self._writers):
            writer.close()
        # Closed transports EOF the connection handlers' readers; wait
        # for them so loop teardown never cancels one mid-read.
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=10)
        if self._aio_server is not None:
            try:
                await self._aio_server.wait_closed()
            except Exception:  # pragma: no cover - platform quirks
                pass
        self._closed.set()

    async def serve_forever(self) -> None:
        """Block until a drain (signal or API) completes."""
        await self._closed.wait()

    # -- connection handling ----------------------------------------------
    async def _on_connection(self, conn: _FrameConnection) -> None:
        writer = conn.writer
        self.stats["connections"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        if faults.fire("net.accept"):
            # Listener flap: the connection dies before a byte is read.
            self.stats["wire_faults"] += 1
            await self._close_writer(writer)
            return
        self._writers.add(writer)
        lock = asyncio.Lock()
        try:
            while True:
                try:
                    ftype, payload = await conn.next_frame()
                except ConnectionError:
                    break  # peer went away — nothing to answer
                except protocol.ProtocolError as exc:
                    # Malformed/oversized frame: poison THIS connection
                    # only — best-effort typed error, then hang up.
                    self.stats["protocol_errors"] += 1
                    await self._send(
                        writer, lock, T_ERROR, error_payload(None, exc)
                    )
                    break
                if ftype == T_HEALTH:
                    self.stats["health_probes"] += 1
                    await self._send(writer, lock, T_HEALTH_OK, self._health())
                elif ftype == T_LEASE:
                    try:
                        answer = await self._issue(conn, payload)
                    except (protocol.ProtocolError, SpecificationError) as exc:
                        self.stats["protocol_errors"] += 1
                        await self._send(
                            writer, lock, T_ERROR, error_payload(None, exc)
                        )
                        break
                    await self._send(writer, lock, T_LEASE_OK, answer)
                elif ftype == T_SUBMIT:
                    task = asyncio.ensure_future(
                        self._handle_submit(conn, payload, writer, lock)
                    )
                    self._inflight.add(task)
                    task.add_done_callback(self._inflight.discard)
                else:
                    self.stats["protocol_errors"] += 1
                    await self._send(
                        writer,
                        lock,
                        T_ERROR,
                        error_payload(
                            None,
                            protocol.ProtocolError(
                                f"unexpected frame type {ftype} from a client"
                            ),
                        ),
                    )
                    break
        finally:
            self._writers.discard(writer)
            await self._close_writer(writer)
            await self._release(conn)

    # -- leases ------------------------------------------------------------
    async def _issue(self, conn: _FrameConnection, payload: bytearray) -> dict:
        """Answer a ``T_LEASE``: unlink the idle leases it gives back, then
        create a segment of ``size`` bytes for this connection (none for
        0) or refuse it (the client then sends inline).  Segments are
        made and unlinked on a worker thread: reserving 16 MB of pages
        takes milliseconds the other connections' jobs must not wait."""
        msg = protocol.unpack(payload)
        if not isinstance(msg, dict):
            raise protocol.ProtocolError("a lease request is a dict")
        size, release = msg.get("size", 0), msg.get("release", [])
        if type(size) is not int or size < 0:
            raise protocol.ProtocolError(f"lease request for {size!r} bytes")
        if not isinstance(release, list) or not all(
            type(lid) is int
            and lid in conn.leases
            and conn.leases[lid].job is None
            for lid in release
        ):
            raise protocol.ProtocolError(
                f"release of {release!r}: not idle leases of this connection"
            )
        for lid in set(release):
            await self._drop(conn.leases.pop(lid))
        if not size:
            return {"lease": None, "reason": "nothing asked"}
        held = sum(lease.size for lease in conn.leases.values())
        if not is_loopback(conn.transport.get_extra_info("peername")):
            reason = "leases go only to peers on this host"
        elif self._draining:
            reason = "server draining"
        elif held + size > CONN_LEASE_BYTES:
            reason = (
                f"the connection holds {held} of {CONN_LEASE_BYTES} lease bytes"
            )
        elif self._lease_bytes + size > LEASE_BYTES:
            reason = (
                f"the server holds {self._lease_bytes} of {LEASE_BYTES} "
                f"lease bytes"
            )
        else:
            self._lease_bytes += size  # held while the segment is made
            try:
                shm = await asyncio.to_thread(
                    _create_segment, LEASE_PREFIX + secrets.token_hex(8), size
                )
            except OSError as exc:
                self._lease_bytes -= size
                reason = f"no segment: {exc}"
            else:
                lid = next(self._lease_ids)
                conn.leases[lid] = _Lease(shm, size)
                self.stats["leases"] += 1
                return {"lease": lid, "name": shm.name, "size": size}
        self.stats["leases_refused"] += 1
        return {"lease": None, "reason": reason}

    def _reuse(self, lease: _Lease) -> None:
        """A new submit is in ``lease``: the client has overwritten the
        result it held, so that job's journal entry becomes a typed
        ``expired`` error — its key is never re-executed and never
        replayed with another job's bytes."""
        key, lease.holder = lease.holder, None
        if key is None or self._leased.get(key) is not lease:
            return
        del self._leased[key]
        self._journal[key] = (
            T_ERROR,
            error_payload(
                key, JobExpired(f"the result of job {key} was overwritten in its lease")
            ),
        )
        self._journal_bytes -= self._completed[key]
        self._completed[key] = 0

    async def _release(self, conn: _FrameConnection) -> None:
        """Give back a closed connection's leases once the jobs running
        in them are done."""
        leases = list(conn.leases.values())
        conn.leases.clear()
        jobs = [lease.job for lease in leases if lease.job is not None]
        if jobs:
            await asyncio.wait(jobs)
        for lease in leases:
            await self._drop(lease)

    async def _drop(self, lease: _Lease) -> None:
        """Unlink an idle lease, first copying the journaled result it
        holds to private memory: a retry on any connection replays the
        same bits inline."""
        if self._leased.get(lease.holder) is lease:
            _, body = self._journal[lease.holder]
            body["arrays"] = {n: a.copy() for n, a in body["arrays"].items()}
            del self._leased[lease.holder]
        await asyncio.to_thread(_close_segment, lease.shm, True)
        self._lease_bytes -= lease.size

    def _health(self) -> dict:
        server = self.server
        return {
            "accepting": server.accepting and not self._draining,
            "draining": self._draining or not server.accepting,
            "pending_jobs": server.pending_jobs,
            "pending_points": server.pending_points,
            "retry_after": server._retry_after_hint(),
            "stats": dict(server.stats),
            "net_stats": dict(self.stats),
        }

    async def _handle_submit(
        self,
        conn: _FrameConnection,
        payload: bytearray,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        self.stats["requests"] += 1
        try:
            key, problem, deadline, last, lease = _parse_submit(
                payload, conn.leases
            )
        except (protocol.ProtocolError, KeyError, TypeError, SpecificationError) as exc:
            # Garbage inside a well-formed frame (or a lease), a lease this
            # submit may not use, a grid that breaks the layout contract or
            # arrives as a shared-memory descriptor, or per-job run options
            # (typed ``invalid``): same poison rule.
            if not isinstance(exc, SpecificationError):
                exc = protocol.ProtocolError(f"malformed submit: {exc}")
            refusal = error_payload(None, exc)
        else:
            refusal = None
        if refusal is not None:
            # Out of the except block: its traceback, and any view of a
            # lease it holds, is gone before the connection lets go of it.
            self.stats["protocol_errors"] += 1
            await self._send(writer, lock, T_ERROR, refusal)
            await self._close_writer(writer)
            return
        if lease is not None:
            self._reuse(lease)

        entry = self._journal.get(key)
        if entry is not None:
            # A retry of a job we have already seen: replay, never
            # re-execute.  An in-flight duplicate awaits the SAME
            # execution; a completed one replays the recorded response.
            # Either still ends its connection's burst.
            self.stats["replayed"] += 1
            if last:
                self.server.end_burst(conn.burst)
            if isinstance(entry, asyncio.Future):
                ftype, body = await entry
            else:
                self._completed.move_to_end(key)
                ftype, body = entry  # type: ignore[misc]
            if key in self._leased:
                # Its lease's owner may overwrite those bytes while this
                # replay is on the wire: send a snapshot, inline.
                body = {
                    **body,
                    "arrays": {n: a.copy() for n, a in body["arrays"].items()},
                }
            await self._send(
                writer, lock, ftype, {**body, "replayed": True}, inject=True
            )
            return

        flight: asyncio.Future = asyncio.get_running_loop().create_future()
        self._journal[key] = flight
        if lease is not None:
            lease.job = asyncio.current_task()
            grids = {name: arr.data for name, arr in problem.arrays.items()}
        try:
            report = await self.server.submit_problem(
                problem, timeout=deadline, burst=conn.burst, last=last
            )
        except (ServerBusy, ServerClosed, JobExpired, SpecificationError) as exc:
            # Pre-execution rejection: NOT journaled — a later retry
            # deserves a fresh admission decision.
            response = (T_ERROR, error_payload(key, exc))
            self._journal.pop(key, None)
            if not flight.done():
                flight.set_result(response)
            self._free(lease)
            await self._send(writer, lock, *response, inject=True)
            return
        except BaseException as exc:
            # The job reached execution and failed there: journal the
            # typed failure so a retry replays it instead of paying the
            # execution again.
            response = (T_ERROR, error_payload(key, exc))
            self._record(key, response, flight)
            self._free(lease)
            await self._send(writer, lock, *response, inject=True)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return
        report.transport = "tcp" if lease is None else "shm"
        arrays = {name: arr.data for name, arr in problem.arrays.items()}
        if lease is not None:
            # The client reads the results from its payload in the lease
            # (the live RESULT carries none); a run that moved a grid (the
            # supervised executor's share and unshare) left them elsewhere.
            for name, data in arrays.items():
                if data is not grids[name]:
                    grids[name][...] = data
            arrays = grids
        body = {"key": key, "report": report, "arrays": arrays, "replayed": False}
        # Holder first: if the journal evicts this very entry, it forgets
        # the holder too.
        self._free(lease, key)
        self._record(key, (T_RESULT, body), flight)
        if lease is not None:
            body = {**body, "arrays": {}}
        await self._send(writer, lock, T_RESULT, body, inject=True)

    def _free(self, lease: _Lease | None, holder: str | None = None) -> None:
        """End the job in ``lease`` — before the response goes out, so
        the client's next submit into it is never refused as busy — and
        record whose result it now holds."""
        if lease is None:
            return
        lease.job = None
        if holder is not None:
            lease.holder = holder
            self._leased[holder] = lease

    def _record(
        self, key: str, response: tuple, flight: asyncio.Future
    ) -> None:
        """Journal a completed response and wake duplicates; evict the
        least recently used completed entries while the journal holds
        more than ``journal_limit`` of them or more than
        :data:`JOURNAL_BYTES` of result arrays."""
        self._journal[key] = response
        if not flight.done():
            flight.set_result(response)
        size = sum(a.nbytes for a in response[1].get("arrays", {}).values())
        self._completed[key] = size
        self._journal_bytes += size
        while self._completed and (
            len(self._completed) > self.journal_limit
            or self._journal_bytes > JOURNAL_BYTES
        ):
            old, size = self._completed.popitem(last=False)
            del self._journal[old]
            self._leased.pop(old, None)
            self._journal_bytes -= size

    # -- writing (where the wire faults live) ------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        ftype: int,
        body: dict,
        *,
        inject: bool = False,
    ) -> None:
        """Serialize, then write under the connection's write lock; apply
        armed ``net.*`` response faults (submit responses only).

        A frame under :data:`_WRITE_SLICE` goes out as one joined write; a
        larger one part by part, its buffers straight from the arrays in
        slices of at most that size.
        """
        parts = protocol.frame_parts(ftype, body)
        size = sum(len(p) for p in parts)
        async with lock:
            try:
                if inject and faults.fire("net.slow"):
                    self.stats["wire_faults"] += 1
                    await asyncio.sleep(SLOW_PEER_STALL)
                if inject and faults.fire("net.drop"):
                    # Executed, journaled — and the response vanishes.
                    self.stats["wire_faults"] += 1
                    writer.close()
                    return
                if inject and faults.fire("net.torn"):
                    # Half a frame, then the connection dies.
                    self.stats["wire_faults"] += 1
                    frame = b"".join(parts)
                    writer.write(frame[: max(1, size // 2)])
                    await writer.drain()
                    writer.close()
                    return
                if size < _WRITE_SLICE:
                    writer.write(b"".join(parts))
                else:
                    for part in parts:
                        for at in range(0, len(part), _WRITE_SLICE):
                            writer.write(part[at:at + _WRITE_SLICE])
                            await writer.drain()
                await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # Client gone mid-write: the response is journaled;
                # their retry will collect it.
                pass

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError, OSError):
            pass


async def serve_tcp(
    server: StencilServer,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_frame: int = protocol.MAX_FRAME,
    journal_limit: int = JOURNAL_LIMIT,
) -> NetServer:
    """Expose ``server`` on ``host:port`` (``port=0`` = ephemeral).

    Starts the in-process server if it is not yet bound to the loop;
    returns the listening :class:`NetServer` (its ``host``/``port``
    report the bound address).
    """
    if server._loop is None:
        await server.start()
    net = NetServer(
        server, host, port, max_frame=max_frame, journal_limit=journal_limit
    )
    return await net.start()


class LoopbackServer:
    """A served loopback endpoint on a background thread (sync callers).

    Usage::

        with LoopbackServer(ServeOptions(max_batch=16)) as loop:
            client = StencilClient(loop.host, loop.port)
            report = client.submit(stencil, steps, kernel)

    The thread owns its own event loop, `StencilServer`, and TCP
    front-end; ``stop()`` (or context exit) drains gracefully — every
    accepted job finishes and is answered first.  ``server`` and
    ``net`` expose the live objects for stats inspection (reading their
    int counters cross-thread is safe).
    """

    def __init__(
        self,
        serve_options: ServeOptions | None = None,
        *,
        host: str = "127.0.0.1",
        max_frame: int = protocol.MAX_FRAME,
        journal_limit: int = JOURNAL_LIMIT,
    ):
        self._serve_options = serve_options
        self._host = host
        self._max_frame = max_frame
        self._journal_limit = journal_limit
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-loopback-serve", daemon=True
        )
        self.server: StencilServer | None = None
        self.net: NetServer | None = None
        self.error: BaseException | None = None

    def start(self) -> "LoopbackServer":
        self._thread.start()
        self._ready.wait(timeout=60)
        if self.error is not None:
            raise RuntimeError("loopback server failed to start") from self.error
        if self.net is None:
            raise RuntimeError("loopback server did not come up in time")
        return self

    @property
    def host(self) -> str:
        assert self.net is not None
        return self.net.host

    @property
    def port(self) -> int:
        assert self.net is not None
        return self.net.port

    def stop(self) -> None:
        """Drain gracefully and join the serving thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already closed
                pass
        self._thread.join(timeout=120)

    def __enter__(self) -> "LoopbackServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced in start()
            self.error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = StencilServer(self._serve_options)
        await self.server.start()
        self.net = await serve_tcp(
            self.server,
            self._host,
            0,
            max_frame=self._max_frame,
            journal_limit=self._journal_limit,
        )
        self._ready.set()
        await self._stop.wait()
        await self.net.drain()
