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
* **idempotent replay** — every submit carries a client idempotency
  key; completed responses live in a **result journal**, LRU-bounded
  both by entry count (``journal_limit``) and by result-array bytes
  (:data:`JOURNAL_BYTES`), so a retry after a dropped response replays
  the recorded response instead of executing the job again.  Accepted
  jobs execute exactly once (within the journal's capacity),
  bitwise-identical to a local run.
* **deadline propagation** — a submit's remaining time budget rides in
  the frame; a job still queued past it is shed with a typed
  ``expired`` error before dispatch (:class:`~repro.serve.server.
  JobExpired`), never silently run.
* **typed backpressure** — :class:`~repro.serve.server.ServerBusy`
  crosses the wire with its ``pending_jobs``/``pending_points``/
  ``retry_after`` fields so clients back off intelligently.
* **poisoned connections, healthy server** — a malformed or oversized
  frame draws a best-effort ``protocol`` error and closes *that*
  connection; other connections and the server are untouched.
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
import math
import signal as _signal
import threading
from collections import OrderedDict, deque
from numbers import Real
from typing import Iterable

from repro.errors import SpecificationError
from repro.language.stencil import Problem
from repro.resilience import faults
from repro.serve import protocol
from repro.serve.protocol import (
    T_ERROR,
    T_HEALTH,
    T_HEALTH_OK,
    T_RESULT,
    T_SUBMIT,
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

#: Frames that fit in a staging buffer of this size are parsed whole out
#: of it, so a pipelined burst of small frames costs one ``recv`` (the
#: transport's own read size), not several per frame.  Reading pauses
#: while more than this many payload bytes wait for the handler.
_STAGE = 1 << 18

#: Large response frames go to the transport in slices of this size, each
#: followed by a ``drain()``: the transport copies what the socket does
#: not take at once, so a slice bounds that copy.
_WRITE_SLICE = 1 << 20


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
                elif ftype == T_SUBMIT:
                    task = asyncio.ensure_future(
                        self._handle_submit(payload, writer, lock)
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
        payload: bytearray,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        self.stats["requests"] += 1
        try:
            msg = protocol.unpack(payload)
            key = msg["key"]
            problem = msg["problem"]
            deadline = msg.get("deadline")
            if not isinstance(key, str) or not isinstance(problem, Problem):
                raise TypeError("a submit needs a str key and a Problem")
            if deadline is not None and not (
                isinstance(deadline, Real) and math.isfinite(deadline)
            ):
                raise TypeError(f"deadline {deadline!r} is not a finite number")
            if msg.get("options") is not None:
                raise SpecificationError(
                    "a job runs under the server's run options; "
                    "a submit may not carry its own"
                )
        except (protocol.ProtocolError, KeyError, TypeError, SpecificationError) as exc:
            # Garbage inside a well-formed frame, a grid that breaks the
            # layout contract or per-job run options (typed ``invalid``):
            # same poison rule.
            self.stats["protocol_errors"] += 1
            if not isinstance(exc, SpecificationError):
                exc = protocol.ProtocolError(f"malformed submit: {exc}")
            await self._send(writer, lock, T_ERROR, error_payload(None, exc))
            await self._close_writer(writer)
            return

        entry = self._journal.get(key)
        if entry is not None:
            # A retry of a job we have already seen: replay, never
            # re-execute.  An in-flight duplicate awaits the SAME
            # execution; a completed one replays the recorded response.
            self.stats["replayed"] += 1
            if isinstance(entry, asyncio.Future):
                ftype, body = await entry
            else:
                self._completed.move_to_end(key)
                ftype, body = entry  # type: ignore[misc]
            await self._send(
                writer, lock, ftype, {**body, "replayed": True}, inject=True
            )
            return

        flight: asyncio.Future = asyncio.get_running_loop().create_future()
        self._journal[key] = flight
        try:
            report = await self.server.submit_problem(problem, timeout=deadline)
        except (ServerBusy, ServerClosed, JobExpired, SpecificationError) as exc:
            # Pre-execution rejection: NOT journaled — a later retry
            # deserves a fresh admission decision.
            response = (T_ERROR, error_payload(key, exc))
            self._journal.pop(key, None)
            if not flight.done():
                flight.set_result(response)
            await self._send(writer, lock, *response, inject=True)
            return
        except BaseException as exc:
            # The job reached execution and failed there: journal the
            # typed failure so a retry replays it instead of paying the
            # execution again.
            response = (T_ERROR, error_payload(key, exc))
            self._record(key, response, flight)
            await self._send(writer, lock, *response, inject=True)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return
        report.transport = "tcp"
        arrays = {name: arr.data for name, arr in problem.arrays.items()}
        response = (
            T_RESULT,
            {"key": key, "report": report, "arrays": arrays, "replayed": False},
        )
        self._record(key, response, flight)
        await self._send(writer, lock, *response, inject=True)

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

        A frame under :data:`_WRITE_SLICE` goes out as one joined write;
        a larger one part by part, its buffers straight from the arrays
        in slices of at most that size.
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
