"""Driver-side supervisor: shared grids, worker pool, watchdog, retry.

:func:`open_session` promotes the problem's arrays into shared-memory
segments, leases worker subprocesses from a process-wide pool (spawned
once, reused across runs — interpreter startup is paid per worker, not
per ``Stencil.run``), and hands each an *attach* message carrying the
problem pickled as segment descriptors.  The returned
:class:`SupervisedSession` then executes each trapezoid-time-block's
task graph out of process:

* the supervisor owns the ready queue (same dependency-counting
  protocol as the in-process ``"dag"`` executor) and dispatches ready
  regions to idle workers;
* every dispatched task carries a **deadline** scaled to its zoid
  volume; a worker past its deadline, silent beyond the heartbeat
  timeout, or simply dead (exitcode) is declared *lost*;
* a loss aborts the block: every session worker is killed and
  respawned (a half-finished peer may still be writing the shared
  grid, and SIGKILL mid-write is safe only because the block is then
  rolled back), the block-start snapshot is restored into the shared
  segments — the same snapshot discipline PR 7's checkpoint runner
  uses — and the block re-runs after exponential backoff, up to
  ``SuperviseOptions.max_block_retries`` times;
* every event lands in ``RunReport.degradations`` plus the
  ``workers_respawned`` / ``tasks_retried`` counters.

When any of this is unavailable — no shared memory, spawn blocked,
an unpicklable problem, the ``shm.attach`` fault — :func:`open_session`
returns ``None`` with a recorded note and the driver falls back to the
in-process ``"dag"`` executor.

Correctness does not depend on scheduling: every grid point is written
exactly once, by the same kernel clone, from fully-computed inputs,
under *any* assignment of tasks to workers — so supervised runs are
bitwise identical to serial runs, which the stress tests assert while
SIGKILLing random workers mid-run.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import pickle
import threading
import time
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.resilience import degradations, faults
from repro.supervise.options import SuperviseOptions
from repro.supervise.worker import worker_main
from repro.trap.executor import ExecStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.trap.graph import TaskGraph


class _WorkerLost(Exception):
    """A worker crashed or hung mid-block (tag + work to re-execute)."""

    def __init__(self, tag: str, dispatched: int):
        super().__init__(tag)
        self.tag = tag
        self.dispatched = dispatched


class _AttachFailed(Exception):
    pass


class _Worker:
    """One pooled subprocess and its dedicated task pipe.

    Raw ``Pipe`` connections, not ``mp.Queue``: a Queue ``put`` detours
    through a feeder thread (an extra wake-up on both ends of every
    task), where ``Connection.send`` is pickle-plus-``write(2)`` inline.
    The supervisor is the only writer to a task pipe, and it closes its
    read-end copy at spawn — so a send to a crashed worker raises
    ``BrokenPipeError`` instead of buffering into the void, which is how
    dispatch notices a dead worker without waiting for the watchdog.
    """

    def __init__(self, ctx, wid: int, result_w):
        self.wid = wid
        task_r, self._task_w = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=worker_main,
            args=(wid, task_r, result_w),
            name=f"repro-supervise-worker-{wid}",
            daemon=True,
        )
        self.proc.start()
        task_r.close()  # child holds its own copy

    def send(self, msg) -> None:
        """Raises ``OSError`` (``BrokenPipeError``) if the worker died."""
        self._task_w.send(msg)

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.proc.kill()
        except Exception:  # pragma: no cover - already gone
            pass
        self.proc.join(timeout=5.0)
        try:
            self._task_w.close()
        except OSError:  # pragma: no cover - defensive
            pass


class _Pool:
    """Process-wide pool of generic workers for one start method.

    Workers outlive sessions: detach returns a clean worker to ``idle``
    for the next run, so repeated supervised runs cost an attach
    handshake, not an interpreter spawn.
    """

    def __init__(self, method: str):
        self.ctx = multiprocessing.get_context(method)
        # All workers share one result pipe: their messages stay under
        # PIPE_BUF, so concurrent sends are atomic (no torn frames, no
        # lock to leak when a worker is SIGKILLed mid-send).  The pool
        # keeps its writer copy open forever, so the reader never EOFs.
        self.result_r, self.result_w = self.ctx.Pipe(duplex=False)
        self.idle: list[_Worker] = []
        self._wid = itertools.count()

    def take(self, n: int) -> list[_Worker]:
        workers: list[_Worker] = []
        while self.idle and len(workers) < n:
            w = self.idle.pop()
            if w.alive():
                workers.append(w)
            else:  # died while idle; replace below
                w.kill()
        while len(workers) < n:
            workers.append(_Worker(self.ctx, next(self._wid), self.result_w))
        return workers

    def give_back(self, worker: _Worker) -> None:
        if worker.alive():
            self.idle.append(worker)

    def shutdown(self) -> None:
        for w in self.idle:
            try:
                w.send(("exit",))
            except Exception:
                pass
        for w in self.idle:
            w.proc.join(timeout=2.0)
            w.kill()  # no-op if already exited; also closes the pipe
        self.idle.clear()


_POOLS: dict[str, _Pool] = {}
_POOLS_LOCK = threading.Lock()
#: One supervised session at a time per process: the pool's result pipe
#: is shared, and two drainers would steal each other's messages.
_SESSION_LOCK = threading.Lock()
_EPOCH = itertools.count(1)
_LIVE_SESSION: "SupervisedSession | None" = None


def _pool_for(method: str) -> _Pool:
    with _POOLS_LOCK:
        pool = _POOLS.get(method)
        if pool is None:
            pool = _POOLS[method] = _Pool(method)
        return pool


@atexit.register
def shutdown_workers() -> None:
    """Tear down every idle pooled worker (tests; interpreter exit)."""
    with _POOLS_LOCK:
        for pool in _POOLS.values():
            pool.shutdown()


def live_worker_pids() -> tuple[int, ...]:
    """Pids of the workers attached to the currently running session."""
    session = _LIVE_SESSION
    if session is None:
        return ()
    return tuple(
        w.proc.pid
        for w in session.workers
        if w.proc.pid is not None and w.alive()
    )


class SupervisedSession:
    """One run's supervised execution context (see module docstring)."""

    def __init__(
        self,
        pool: _Pool,
        workers: list[_Worker],
        epoch: int,
        blob: bytes,
        sup: SuperviseOptions,
        problem,
        report,
    ):
        self.pool = pool
        self.workers = workers
        self.epoch = epoch
        self.blob = blob
        self.sup = sup
        self.problem = problem
        self.report = report
        self._closed = False

    # -- message plumbing --------------------------------------------------
    def _recv(self, timeout: float):
        """Next message belonging to this session's epoch (or None)."""
        reader = self.pool.result_r
        if not reader.poll(timeout):
            return None
        msg = reader.recv()
        if len(msg) < 3 or msg[2] != self.epoch:
            return None  # stale epoch / generic readiness chatter
        return msg

    def _attach_all(self, workers: list[_Worker]) -> None:
        """Send the attach handshake and wait for every acknowledgement."""
        ack_batch = max(1, self.sup.pipeline_depth // 2)
        for w in workers:
            try:
                w.send(
                    (
                        "attach",
                        self.epoch,
                        self.sup.heartbeat_interval,
                        ack_batch,
                        self.blob,
                    )
                )
            except OSError as exc:
                raise _AttachFailed(
                    f"worker died before the attach handshake: {exc}"
                ) from exc
        waiting = {w.wid for w in workers}
        deadline = time.monotonic() + self.sup.attach_timeout
        while waiting:
            msg = self._recv(timeout=0.1)
            if msg is not None:
                kind, wid = msg[0], msg[1]
                if kind == "attached":
                    waiting.discard(wid)
                elif kind == "attach-failed":
                    raise _AttachFailed(msg[3])
            for w in workers:
                if w.wid in waiting and not w.alive():
                    raise _AttachFailed(
                        f"worker exited during attach "
                        f"(exitcode {w.proc.exitcode})"
                    )
            if time.monotonic() > deadline:
                raise _AttachFailed(
                    f"attach timed out after {self.sup.attach_timeout}s"
                )

    # -- block execution ---------------------------------------------------
    def run_graph(self, graph: "TaskGraph") -> ExecStats:
        """Execute one block's task graph with rollback-and-retry.

        The block-start snapshot (a private copy of the shared buffers)
        is the rollback state: any worker loss kills and respawns the
        whole worker set, restores the snapshot into the shared
        segments, and re-runs the graph from scratch — per-task retry
        would be unsound once a block overwrites the modular buffers'
        input slots.
        """
        snap = {
            name: arr.data.copy() for name, arr in self.problem.arrays.items()
        }
        attempt = 0
        t0 = time.perf_counter()
        while True:
            try:
                busy = self._run_once(graph)
            except _WorkerLost as loss:
                attempt += 1
                degradations.note(loss.tag)
                self.report.tasks_retried += loss.dispatched
                self._respawn_all()
                if attempt > self.sup.max_block_retries:
                    raise ExecutionError(
                        f"supervised block failed {attempt} times "
                        f"(last: {loss.tag}); retry budget exhausted"
                    ) from loss
                for name, arr in self.problem.arrays.items():
                    arr.data[...] = snap[name]
                degradations.note("supervise:block-rolled-back")
                if self.sup.retry_backoff > 0:
                    time.sleep(self.sup.retry_backoff * 2 ** (attempt - 1))
            else:
                wall = time.perf_counter() - t0
                return ExecStats(
                    executor="procs",
                    n_workers=len(self.workers),
                    base_cases=graph.n_tasks,
                    wall_time=wall,
                    busy_time=busy,
                )

    def _run_once(self, graph: "TaskGraph") -> float:
        sup = self.sup
        regions = graph.regions
        npred = list(graph.npred)
        ready: deque[int] = deque()
        graph.seed_ready(npred, ready.append)
        by_wid = {w.wid: w for w in self.workers}
        now = time.monotonic()
        # wid -> FIFO of [nid, deadline] the worker is executing/holding.
        # Tasks are *pipelined*: up to ``pipeline_depth`` ready tasks sit
        # in a worker's queue so it runs back-to-back instead of idling a
        # supervisor round trip between base cases.  Only the queue head
        # is executing, so only the head carries an armed deadline; a
        # task's deadline arms when it is promoted to head.
        in_flight: dict[int, deque] = {w.wid: deque() for w in self.workers}
        last_seen = {w.wid: now for w in self.workers}
        pending = graph.n_tasks
        dispatched = 0
        busy = 0.0
        ack_batch = max(1, sup.pipeline_depth // 2)

        def _arm_head(flight: deque, now: float) -> None:
            # The believed head's deadline must budget every task the
            # worker may legitimately run before the head's coalesced
            # ack flushes: up to ``ack_batch`` queued tasks' volumes.
            volume = sum(
                regions[nid].volume()
                for nid, _ in itertools.islice(flight, ack_batch)
            )
            flight[0][1] = now + sup.deadline_for(volume)

        def _dispatch_ready() -> None:
            nonlocal dispatched
            # Round-robin single tasks into per-worker batch lists (so a
            # thin ready queue spreads across workers), then ship each
            # batch as ONE pipe message: on a loaded host the dominant
            # dispatch cost is waking the other process, not the bytes.
            batches: dict[int, list] = {}
            progress = True
            while ready and progress:
                progress = False
                for w in self.workers:
                    if not ready:
                        break
                    flight = in_flight[w.wid]
                    if len(flight) >= sup.pipeline_depth:
                        continue
                    nid = ready.popleft()
                    # The supervisor consumes the worker.* fault budgets
                    # at dispatch (exact `times` semantics even across
                    # respawns) and tags the doomed task; the worker
                    # obeys the tag.
                    inject = None
                    if faults.fire("worker.segfault"):
                        inject = "segfault"
                    elif faults.fire("worker.hang"):
                        inject = "hang"
                    # Deadlines arm lazily once the batch is final (see
                    # ``_arm_head``); queued tasks carry None until they
                    # are promoted to head.
                    flight.append([nid, None])
                    batches.setdefault(w.wid, []).append(
                        (nid, regions[nid], inject)
                    )
                    dispatched += 1
                    progress = True
            arm_now = time.monotonic()
            for wid, batch in batches.items():
                flight = in_flight[wid]
                if flight[0][1] is None:
                    _arm_head(flight, arm_now)
                try:
                    by_wid[wid].send(("tasks", self.epoch, batch))
                except OSError:
                    # Dead reader end: the worker crashed.  The block
                    # retry re-seeds the ready queue from the graph, so
                    # nothing needs requeuing here.
                    raise _WorkerLost(
                        "supervise:worker-crashed->respawned", dispatched
                    ) from None

        while pending > 0:
            _dispatch_ready()
            msg = self._recv(timeout=0.05)
            now = time.monotonic()
            drained = False
            while msg is not None:  # drain, then dispatch once
                drained = True
                kind, wid = msg[0], msg[1]
                last_seen[wid] = now
                if kind == "done-batch":
                    flight = in_flight[wid]
                    for nid, secs in msg[3]:
                        if flight and flight[0][0] == nid:
                            flight.popleft()
                        busy += secs
                        pending -= 1
                        graph.complete(nid, npred, ready.append)
                    if flight and flight[0][1] is None:  # promote next
                        _arm_head(flight, now)
                elif kind == "error":
                    # A Python-level kernel error is deterministic — it
                    # would fail every retry — so it propagates as-is
                    # rather than burning the respawn budget.
                    raise ExecutionError(
                        f"supervised worker task failed: {msg[4]}"
                    )
                msg = self._recv(timeout=0.0)
            if drained:
                continue
            any_flight = False
            for wid, flight in in_flight.items():
                if not flight:
                    continue
                any_flight = True
                w = by_wid[wid]
                if not w.alive():
                    raise _WorkerLost(
                        "supervise:worker-crashed->respawned", dispatched
                    )
                deadline = flight[0][1]
                if (deadline is not None and now > deadline) or (
                    now - last_seen[wid] > sup.heartbeat_timeout
                ):
                    raise _WorkerLost(
                        "supervise:worker-hung->respawned", dispatched
                    )
            if not any_flight and not ready and pending > 0:
                # Nothing running, nothing ready, tasks pending: the
                # graph is inconsistent.  Error out rather than spin.
                raise ExecutionError(  # pragma: no cover - defensive
                    f"supervised execution stalled with {pending} tasks "
                    f"pending (cyclic or inconsistent graph)"
                )
        return busy

    def _respawn_all(self) -> None:
        """Kill every session worker and attach a fresh set.

        Killing the healthy ones too is deliberate: they may be mid-write
        in the shared grid, and the block is about to be rolled back
        anyway — quiescing them gracefully would just hand the watchdog a
        second timeout to wait out.
        """
        for w in self.workers:
            w.kill()
        self.report.workers_respawned += len(self.workers)
        self.epoch = next(_EPOCH)
        replacements = self.pool.take(len(self.workers))
        try:
            self._attach_all(replacements)
        except _AttachFailed as exc:
            for w in replacements:
                w.kill()
            self.workers = []
            raise ExecutionError(
                f"could not respawn supervised workers: {exc}"
            ) from exc
        self.workers = replacements

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Detach workers (clean ones return to the pool), unshare the
        grid, and release the session slot.  Idempotent."""
        global _LIVE_SESSION
        if self._closed:
            return
        self._closed = True
        try:
            waiting: dict[int, _Worker] = {}
            for w in self.workers:
                if not w.alive():
                    continue
                try:
                    w.send(("detach", self.epoch))
                except OSError:  # died between the check and the send
                    continue
                waiting[w.wid] = w
            deadline = time.monotonic() + 10.0
            while waiting and time.monotonic() < deadline:
                msg = self._recv(timeout=0.1)
                if msg is None:
                    for wid, w in list(waiting.items()):
                        if not w.alive():
                            del waiting[wid]
                    continue
                if msg[0] == "detached":
                    w = waiting.pop(msg[1], None)
                    if w is not None:
                        if msg[3]:  # released its mappings: reusable
                            self.pool.give_back(w)
                        else:  # stuck mappings: not worth pooling
                            w.kill()
                elif msg[0] == "done-batch":
                    # Tasks completed between loss detection and close:
                    # the worker is still consistent, keep draining.
                    pass
            for w in waiting.values():  # unresponsive: not worth keeping
                w.kill()
        finally:
            for arr in self.problem.arrays.values():
                arr.unshare()
            self.workers = []
            _LIVE_SESSION = None
            _SESSION_LOCK.release()


def open_session(
    problem, supervise, mode: str, n_workers: int, report
) -> SupervisedSession | None:
    """Create a supervised session, or ``None`` (with a degradation note)
    when out-of-process execution is unavailable.

    On ``None`` the caller falls back to the in-process ``"dag"``
    executor; the grid is guaranteed to be back in (or still in) private
    memory, so the caller's compile-after-resolution sees a consistent
    buffer either way.
    """
    global _LIVE_SESSION
    sup = supervise if supervise is not None else SuperviseOptions()
    if not _SESSION_LOCK.acquire(blocking=False):
        # A nested supervised run (e.g. from a user boundary callback)
        # would steal the outer session's result messages.
        degradations.note("supervise:busy->dag")
        return None
    shared: list = []

    def _abort(tag: str) -> None:
        for arr in shared:
            arr.unshare()
        degradations.note(tag)
        _SESSION_LOCK.release()

    try:
        if faults.fire("shm.attach"):
            raise OSError("injected fault: shm.attach")
        for arr in problem.arrays.values():
            arr.share()
            shared.append(arr)
    except Exception:
        _abort("supervise:shm-unavailable->dag")
        return None
    try:
        blob = pickle.dumps(
            {"problem": problem, "mode": mode},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception:
        _abort("supervise:pickle-failed->dag")
        return None
    try:
        pool = _pool_for(sup.start_method)
        workers = pool.take(n_workers)
    except Exception:
        _abort("supervise:spawn-failed->dag")
        return None
    session = SupervisedSession(
        pool, workers, next(_EPOCH), blob, sup, problem, report
    )
    try:
        session._attach_all(workers)
    except _AttachFailed:
        for w in workers:
            w.kill()
        session.workers = []
        session._closed = True
        for arr in shared:
            arr.unshare()
        degradations.note("supervise:attach-failed->dag")
        _SESSION_LOCK.release()
        return None
    _LIVE_SESSION = session
    return session
