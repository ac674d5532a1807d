"""The checkpointed block loop the execution driver delegates to.

Splits a run's time range ``[t_start, t_end)`` at
``CheckpointPolicy.every_dt`` boundaries and executes each block through
the driver's range callback, snapshotting the grid after every block.
Between blocks the grid is globally consistent (every array written
through the block's last level), which is the only place a trapezoidal
run can snapshot: mid-walk, different space regions sit at different
time levels.

Blocking the time range this way cannot change results: the top-level
trapezoid decomposition already cuts time first (``dt_threshold``
bounds block height), and every grid point is computed exactly once, by
the same kernel clone, from the same inputs, under *any* decomposition
— so per-point FP sequences are identical and resumed runs finish
bitwise-equal to uninterrupted ones.

**The durable write happens off the compute path.**  At each boundary
the runner copies the live buffers (tens of milliseconds) and hands the
copy to a single background writer thread, which streams it to disk —
checksum, fsync, atomic rename, prune — while the next block computes.
A synchronous durable write of a laptop-scale grid costs hundreds of
milliseconds of fsync; overlapped with the next block it costs only the
in-memory copy.  Writes are strictly FIFO and the runner joins the
writer before returning, so the on-disk history is always a clean
prefix of the run and ``RunReport.checkpoints_written`` is exact.  The
queue is bounded: if the disk cannot keep up with the cadence, the
runner blocks at the *next* boundary rather than buffering unbounded
snapshots.

The boundary snapshot is also the **retry** state: under a checkpoint
policy each block gets one retry (partial execution overwrites the
modular buffer's *input* slots once a block spans ``slots`` levels, so
a failed block cannot simply be re-run).  On any exception the runner
restores the previous boundary's snapshot in place and re-executes the
block once; a second failure propagates — by then a real bug, not a
transient, is the likely cause.  Without a policy no snapshot is taken
and failures propagate immediately, keeping the default path copy-free.

A failed checkpoint *write* (unwritable directory, disk full) never
kills a run that can still compute: the failure is recorded as a
``checkpoint:write-failed`` degradation and the run continues with
whatever durable history it has.  A writer *thread* that dies outright
is surfaced the same way, at the point of failure: the next boundary's
``submit`` notices the dead thread, records ``checkpoint:writer-died``,
and drops the snapshot instead of blocking forever on a queue nobody
drains — durability silently stopping mid-run is precisely the failure
a resilience layer must not hide.

**Graceful shutdown**: while a checkpointed run is executing on the
main thread, SIGTERM and SIGINT are converted into an orderly exit —
the current (partial) block is abandoned, every already-queued boundary
snapshot is flushed durably, a ``shutdown:signal->final-checkpoint``
note is recorded, and the process exits nonzero (``128 + signum``, the
shell convention).  A later run with ``resume_from`` picks up from the
flushed history exactly as after a kill.  The previous handlers are
restored on the way out, and non-main-thread runs (where Python forbids
``signal.signal``) skip installation entirely.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import CheckpointError
from repro.language.stencil import problem_signature
from repro.resilience import degradations, faults
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointPolicy,
    inputs_digest,
    load_checkpoint,
    newest_valid,
    prune,
    write_checkpoint_arrays,
)


def _resolve_resume(problem, resume_from) -> Checkpoint | None:
    """Turn ``RunOptions.resume_from`` into a restorable checkpoint.

    * a :class:`Checkpoint` — used as-is (signature/range checked by
      the caller/restore);
    * a directory — newest valid checkpoint for this problem whose
      ``t_next`` lies in ``(t_start, t_end]``; none found reads as
      "cold start" with a degradation note, never an error;
    * a file — loaded directly; if it is damaged, falls back to the
      newest valid sibling in its directory (note), then cold start
      (note).  A *wrong-problem* file is a caller error and raises.
    """
    if resume_from is None:
        return None
    if isinstance(resume_from, Checkpoint):
        return resume_from
    path = Path(resume_from)
    if path.is_dir():
        ckpt = newest_valid(path, problem)
        if ckpt is None:
            degradations.note("checkpoint:no-valid-checkpoint->cold-start")
        return ckpt
    try:
        return load_checkpoint(path)
    except CheckpointError:
        degradations.note("checkpoint:corrupt-skipped")
        ckpt = newest_valid(path.parent, problem)
        if ckpt is None:
            degradations.note("checkpoint:no-valid-checkpoint->cold-start")
        return ckpt


class _CheckpointWriter:
    """Single background thread flushing boundary snapshots durably.

    FIFO by construction (one thread, one queue), so checkpoint files
    always land in time order and a crash leaves a clean prefix.  The
    ``checkpoint.kill`` fault fires here, right *after* a durable write
    — the kill-resume harness's power-cut moment — and :meth:`close`
    joins the thread, so the kill always lands before the run returns.

    Per-item write failures degrade to ``checkpoint:write-failed`` notes
    and the thread keeps draining.  If the thread itself dies (anything
    escaping the per-item handler), :meth:`submit` surfaces it *at the
    next boundary* as a ``checkpoint:writer-died`` note instead of
    blocking on a queue nobody will ever drain — and :meth:`close` skips
    the sentinel so teardown cannot hang either.
    """

    _QUEUE_DEPTH = 2  # pending snapshots; bounds memory, not history

    def __init__(self, directory: Path, problem, keep: int) -> None:
        self._dir = directory
        self._signature = problem_signature(problem)
        self._inputs = inputs_digest(problem)
        self._keep = keep
        self._queue: queue.Queue = queue.Queue(maxsize=self._QUEUE_DEPTH)
        self.written = 0
        #: The exception that killed the writer thread, if any (set by
        #: the thread itself; read by submit/close for surfacing).
        self.failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-checkpoint-writer", daemon=True
        )
        self._thread.start()

    def submit(self, arrays: dict[str, np.ndarray], t_next: int) -> None:
        """Enqueue a stable snapshot (blocks if the disk is behind).

        A dead writer thread is reported here — at the point of failure
        — as a ``checkpoint:writer-died`` degradation; the snapshot is
        dropped and the run continues with its existing durable prefix.
        """
        while True:
            if not self._thread.is_alive():
                degradations.note("checkpoint:writer-died")
                return
            try:
                self._queue.put((arrays, t_next), timeout=0.5)
                return
            except queue.Full:
                # Re-check liveness: a thread that died while the queue
                # was full would otherwise block this put forever.
                continue

    def close(self) -> None:
        """Flush every pending snapshot and stop the thread."""
        if self._thread.is_alive():
            self._queue.put(None)
        self._thread.join()
        if self.failure is not None:
            degradations.note("checkpoint:writer-died")

    def _run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # the thread is now dead; surface it
            self.failure = exc
            degradations.note("checkpoint:writer-died")

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            arrays, t_next = item
            try:
                write_checkpoint_arrays(
                    self._dir, self._signature, arrays, t_next, self._inputs
                )
                self.written += 1
                if faults.fire("checkpoint.kill"):
                    # Die the way a power cut would, right after a
                    # checkpoint landed.  SIGKILL is not catchable, so
                    # nothing can "clean up" and mask durability bugs.
                    os.kill(os.getpid(), signal.SIGKILL)
                prune(self._dir, self._signature, self._keep)
            except Exception:
                degradations.note("checkpoint:write-failed")


def _snapshot(problem) -> dict[str, np.ndarray]:
    return {name: arr.save() for name, arr in problem.arrays.items()}


class ShutdownRequested(BaseException):
    """Raised by the runner's signal handler mid-block.

    A ``BaseException`` deliberately: the block loop's rollback-retry
    path catches ``Exception``, and a shutdown request must *not* be
    retried — it must abandon the partial block, flush the writer, and
    exit.
    """

    def __init__(self, signum: int):
        super().__init__(f"shutdown requested by signal {signum}")
        self.signum = signum


def _install_shutdown_handlers():
    """Convert SIGTERM/SIGINT into :class:`ShutdownRequested` for the
    duration of a checkpointed run.  Returns the previous handlers to
    restore (or ``None`` off the main thread, where installing is both
    forbidden and unnecessary — the main thread still owns delivery)."""
    if threading.current_thread() is not threading.main_thread():
        return None

    def handler(signum, frame):
        raise ShutdownRequested(signum)

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass
    return previous


def _restore_shutdown_handlers(previous) -> None:
    if not previous:
        return
    for sig, old in previous.items():
        try:
            signal.signal(sig, old)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass


def execute_blocks(
    problem,
    report,
    run_range: Callable[[int, int], None],
    *,
    policy: CheckpointPolicy | None,
    resume_from=None,
) -> None:
    """Run ``[problem.t_start, problem.t_end)`` as checkpointed blocks.

    ``run_range(a, b)`` executes output levels ``[a, b)`` and
    accumulates into ``report``; this function owns resume, blocking,
    retry, checkpoint writes, and pruning.  With neither a policy nor a
    resume source the whole range runs as one block with no snapshots —
    the exact non-resilient path.
    """
    t_first = problem.t_start
    ckpt = _resolve_resume(problem, resume_from)
    if ckpt is not None:
        if not problem.t_start < ckpt.t_next <= problem.t_end:
            raise CheckpointError(
                f"checkpoint {ckpt.path or ''} resumes at t={ckpt.t_next}, "
                f"outside this run's range "
                f"({problem.t_start}, {problem.t_end}]"
            )
        ckpt.restore_into(problem)
        t_first = ckpt.t_next
        report.resumed_from = ckpt.t_next
    if t_first >= problem.t_end:
        return  # the checkpoint already covers the whole run

    if policy is None:
        run_range(t_first, problem.t_end)
        return

    writer = _CheckpointWriter(policy.dir, problem, policy.keep)
    handlers = _install_shutdown_handlers()
    shutdown: ShutdownRequested | None = None
    try:
        # The boundary snapshot is both the next block's rollback state
        # and the checkpoint payload: one copy serves both, and handing
        # the copy (never the live buffers) to the writer keeps the
        # flush race-free against the next block's compute.
        snap = _snapshot(problem)
        for a in range(t_first, problem.t_end, policy.every_dt):
            b = min(a + policy.every_dt, problem.t_end)
            try:
                run_range(a, b)
            except ShutdownRequested:
                raise
            except Exception:
                # Partial execution has overwritten input slots of the
                # modular buffers; roll back to the block's start.
                for name, arr in problem.arrays.items():
                    arr.load(snap[name])
                degradations.note("executor:block-retried")
                run_range(a, b)
            snap = _snapshot(problem)
            writer.submit(snap, b)
    except ShutdownRequested as exc:
        # SIGTERM/SIGINT mid-run: abandon the partial block (its effects
        # are not snapshotted, so durable history stays consistent),
        # flush everything already queued, exit nonzero.  A resume_from
        # run then continues from the flushed prefix, bitwise-identical.
        shutdown = exc
        degradations.note("shutdown:signal->final-checkpoint")
    finally:
        _restore_shutdown_handlers(handlers)
        # Flush even when a block failed twice: the durable history
        # stays a clean prefix of whatever completed.
        writer.close()
        report.checkpoints_written += writer.written
    if shutdown is not None:
        raise SystemExit(128 + shutdown.signum)
