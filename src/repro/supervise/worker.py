"""The supervised worker subprocess: attach, execute tasks, stay disposable.

A worker is spawned *generic* (no problem bound) and then cycles through
attach → tasks → detach sessions, so one long-lived driver process pays
interpreter spawn once per worker, not once per run.  Per session the
worker:

1. unpickles the problem — whose :class:`~repro.language.array.PochoirArray`
   buffers arrive as shared-memory descriptors and attach as zero-copy
   views onto the driver's live grid;
2. binds its own kernel clones for the driver's resolved mode (code an
   earlier session loaded, or the on-disk ``.so`` cache, spares the C
   case a recompile) — pointers are prebound against the *shared*
   views, so a fused leaf or compiled subtree walk writes the driver's
   physical pages directly;
3. executes ``("tasks", ...)`` batches via the same
   :func:`repro.trap.executor.run_base_region` primitive every in-process
   executor uses — bitwise-identical results by construction.
   Completions are acknowledged in *coalesced* ``("done-batch", ...)``
   messages — flushed at the supervisor-chosen threshold, or the moment
   the worker would otherwise idle — because on a loaded host every
   supervisor wake-up steals CPU from this worker's core; batching both
   directions divides that tax by the batch size;
4. emits heartbeats from a background thread while attached, so the
   supervisor can tell "slow" from "gone" even while the GIL is released
   inside a compiled call.

Fault-injection tags ride on the task message (the supervisor consumes
the ``worker.*`` budgets; the worker just obeys): ``"segfault"``
dereferences a null pointer in native code — a *real* SIGSEGV the
interpreter cannot catch — and ``"hang"`` wedges the task forever.

Plumbing is raw ``multiprocessing.Pipe`` connections, not ``mp.Queue``:
a Queue ``put`` hands the message to a background *feeder* thread, so
every task round trip costs four thread wake-ups instead of two — real
money when tasks run low milliseconds.  Worker→supervisor messages are
kept tiny (error text truncated) so each ``Connection.send`` is a single
``write(2)`` under ``PIPE_BUF``, which POSIX makes atomic: concurrent
writers need no cross-process lock, and a worker SIGKILLed mid-send
cannot leave a torn frame for the supervisor to choke on.
"""

from __future__ import annotations

import ctypes
import faulthandler
import gc
import pickle
import signal
import threading
import time
from collections import deque


def _crash_null_deref() -> None:  # pragma: no cover - kills the process
    """Dereference NULL in native code: the injected ``worker.segfault``.

    ``ctypes.memset(0, 0, 1)`` writes through a null pointer inside
    libc — the same SIGSEGV a wild pointer in a generated kernel would
    raise, and equally uncatchable from Python.  (Indexing a NULL ctypes
    pointer would *not* do: ctypes converts that into a ValueError.)
    """
    ctypes.memset(0, 0, 1)


def _hang_forever() -> None:  # pragma: no cover - killed by the watchdog
    while True:
        time.sleep(3600)


class _Heartbeat:
    """Background thread sending ``("hb", wid, epoch)`` up the result
    pipe every ``interval`` seconds until stopped."""

    def __init__(self, put, wid: int, epoch: int, interval: float):
        self._stop = threading.Event()

        def loop() -> None:
            while not self._stop.wait(interval):
                put(("hb", wid, epoch))

        self._thread = threading.Thread(
            target=loop, name="repro-supervise-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class _Attached:
    """One session's worker-side state: the problem and its compiled kernel."""

    def __init__(self, blob: bytes):
        from repro.compiler.pipeline import compile_kernel_resilient

        init = pickle.loads(blob)
        self.problem = init["problem"]
        self.compiled = compile_kernel_resilient(self.problem, init["mode"])

    def release(self) -> bool:
        """Drop every reference to the shared views and close the
        mappings; returns False when a mapping could not be closed (the
        pool then retires this worker instead of letting unlinked
        segments accumulate across sessions)."""
        shms = [
            arr._shm
            for arr in self.problem.arrays.values()
            if arr._shm is not None
        ]
        for arr in self.problem.arrays.values():
            arr._shm = None
            arr.data = None
        self.compiled = None
        self.problem = None
        gc.collect()
        clean = True
        for shm in shms:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - defensive
                clean = False
        return clean


def worker_main(wid: int, task_r, result_w) -> None:
    """Entry point of the worker subprocess (spawn-safe module function)."""
    faulthandler.enable()
    # The supervisor owns interrupt policy; a terminal Ctrl-C must reach
    # the driver's graceful-shutdown handler, not shred the workers first.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.trap.executor import run_base_region

    # One lock per *process* (heartbeat thread vs main thread); messages
    # stay under PIPE_BUF so sends from different worker processes are
    # atomic without any cross-process coordination.
    send_lock = threading.Lock()

    def put(msg) -> None:
        try:
            with send_lock:
                result_w.send(msg)
        except (OSError, ValueError):  # supervisor gone: recv() EOFs next
            pass

    attached: _Attached | None = None
    heartbeat: _Heartbeat | None = None
    epoch = -1
    ack_batch = 1
    local: deque = deque()  # dispatched tasks not yet executed
    acks: list = []  # (tid, secs) executed but not yet acknowledged

    def flush_acks() -> None:
        if acks:
            put(("done-batch", wid, epoch, acks.copy()))
            acks.clear()

    put(("ready", wid, -1))
    while True:
        if local:
            tid, region, inject = local.popleft()
            if inject == "segfault":
                _crash_null_deref()
            elif inject == "hang":
                _hang_forever()
            t0 = time.perf_counter()
            try:
                run_base_region(region, attached.compiled)
            except BaseException as exc:
                flush_acks()
                put(("error", wid, epoch, tid, repr(exc)[:512]))
            else:
                acks.append((tid, time.perf_counter() - t0))
                # Flush at the threshold, or the moment there is no more
                # queued work (local and pipe both empty): the held acks
                # are then the only thing standing between the
                # supervisor and the next dispatch.
                if len(acks) >= ack_batch or (
                    not local and not task_r.poll()
                ):
                    flush_acks()
            continue
        try:
            msg = task_r.recv()
        except (EOFError, OSError):  # supervisor closed our pipe: retire
            break
        kind = msg[0]
        if kind == "exit":
            break
        if kind == "attach":
            _, epoch, interval, ack_batch, blob = msg
            try:
                attached = _Attached(blob)
            except BaseException as exc:
                attached = None
                put(("attach-failed", wid, epoch, repr(exc)[:512]))
                continue
            heartbeat = _Heartbeat(put, wid, epoch, interval)
            put(("attached", wid, epoch))
        elif kind == "detach":
            _, epoch = msg
            flush_acks()
            if heartbeat is not None:
                heartbeat.stop()
                heartbeat = None
            clean = attached.release() if attached is not None else True
            attached = None
            put(("detached", wid, epoch, clean))
        elif kind == "tasks":
            local.extend(msg[2])
