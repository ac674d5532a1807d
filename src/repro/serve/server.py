"""The asyncio job server (see :mod:`repro.serve` for the overview).

Threading model: the event loop owns admission, grouping, and flush
timers; each batch runs in a worker thread (``asyncio.to_thread``), so
the loop keeps admitting while compiled code runs with the GIL released.
The execution substrate underneath (compile caches, autotune registry,
``.so`` cache) is thread- and process-safe — that is what the PR's
concurrency bugfixes (registry flock, per-digest compile lock, attach
shim lock) made true under server-shaped load.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass
from typing import Iterable

from repro.errors import SpecificationError
from repro.language.stencil import Problem, RunOptions, RunReport, Stencil
from repro.language.kernel import Kernel


class ServerBusy(RuntimeError):
    """Admission control rejected the job (queue or volume bound hit).

    The job was *rejected*, never silently dropped: nothing was queued,
    no state changed, and the caller may retry after backoff.  The
    exception carries what an intelligent caller needs to back off
    *well* instead of blind-retrying:

    ``pending_jobs`` / ``pending_points``
        The load that triggered the rejection — jobs in the system
        (queued + running) and their summed space-time volume.
    ``retry_after``
        The server's hint, in seconds, for when capacity is likely
        back: the batch window plus one window per full batch of queued
        work.  A hint, not a promise — the client jitters it.
    """

    def __init__(
        self,
        message: str,
        *,
        pending_jobs: int = 0,
        pending_points: int = 0,
        retry_after: float = 0.0,
    ):
        super().__init__(message)
        self.pending_jobs = pending_jobs
        self.pending_points = pending_points
        self.retry_after = retry_after


class ServerClosed(RuntimeError):
    """The server is draining or closed; no new jobs are admitted."""


class JobExpired(RuntimeError):
    """The job's deadline passed while it was still queued.

    Deadline enforcement is *shedding*, not interruption: an expired
    job is failed with this typed error **before dispatch** — it never
    silently runs, and a job whose batch already launched runs to
    completion.  The exception carries the ``serve:expired``
    degradation tag in ``degradations`` (the job has no
    :class:`RunReport` to carry it).
    """

    degradations = ("serve:expired",)


@dataclass
class ServeOptions:
    """Serving policy knobs.

    ``max_batch``
        Jobs per batched dispatch; a signature group flushes early when
        it fills.  ``1`` disables batching without disabling the server.
    ``batch_window``
        Seconds an incomplete group lingers for same-signature
        companions before flushing — the classic batching latency/
        throughput trade, spent only when traffic is sparse.
    ``max_pending``
        Admission bound on jobs in the system (queued + running).
        Submissions beyond it raise :class:`ServerBusy`.
    ``max_pending_points``
        Optional admission bound on total space-time volume
        (``problem.total_points`` summed over jobs in the system), so a
        few huge jobs cannot admit-starve memory the way a count bound
        alone would allow.
    ``run``
        Base :class:`~repro.language.stencil.RunOptions` applied to
        every job (defaults to ``RunOptions(autotune="use")`` — tuned
        configs from the registry are exactly the warm state a server
        should serve).  The server passes them to the local driver
        unchanged, so a group runs as a local run of its jobs would;
        the driver decides whether the group stacks.  Checkpoint/resume
        options are rejected, here and per job: jobs are short and the
        server owns retry semantics.
    """

    max_batch: int = 16
    batch_window: float = 0.002
    max_pending: int = 256
    max_pending_points: int | None = None
    run: RunOptions | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise SpecificationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise SpecificationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.batch_window < 0:
            raise SpecificationError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )
        if self.max_pending_points is not None and self.max_pending_points < 1:
            raise SpecificationError(
                f"max_pending_points must be >= 1, got {self.max_pending_points}"
            )
        run = self.run if self.run is not None else RunOptions(autotune="use")
        _check_servable(run)
        object.__setattr__(self, "run", run)


def _check_servable(options: RunOptions) -> None:
    if options.checkpoint is not None or options.resume_from is not None:
        raise SpecificationError(
            "serve jobs do not support checkpoint/resume options"
        )


@dataclass
class _Job:
    problem: Problem
    #: The submitting stencil, for post-run cursor bookkeeping — or
    #: ``None`` for remote jobs, whose client does it on receipt.
    stencil: Stencil | None
    future: asyncio.Future
    enqueued: float
    #: Absolute monotonic deadline (``None`` = no deadline).  Checked
    #: at batch launch: still-queued jobs past it are shed with
    #: :class:`JobExpired`, never silently run.
    deadline: float | None = None
    #: The deadline's shed-while-queued timer.  Cancelled the moment the
    #: job leaves its queue (flushed, shed or drained): a live timer
    #: holds the job — and its arrays — until the deadline.
    expiry: asyncio.TimerHandle | None = None


def _options_token(options: RunOptions) -> str:
    """A value-based batching key for run options.

    Jobs batch when their effective options *mean* the same thing, not
    when they are the same object — remote submissions unpickle a fresh
    ``RunOptions`` per request, and those must still share a batch.
    Dataclass ``repr`` is deterministic and covers every field.
    """
    return repr(options)


class StencilServer:
    """Async front-end over the warm compile/tune/supervise substrate.

    Usage::

        async with StencilServer() as server:
            reports = await asyncio.gather(
                *(server.submit(st, steps, kern) for st, kern in jobs)
            )

    ``submit`` resolves to the job's :class:`RunReport` once its batch
    ran; job results land in the submitted stencil's arrays exactly as
    a direct ``stencil.run`` would leave them.
    """

    def __init__(self, options: ServeOptions | None = None):
        self.options = options or ServeOptions()
        #: Monotonic counters for tests/benchmarks/ops:
        #: submitted/completed/failed jobs, rejected (backpressure),
        #: shed (expired), groups dispatched and the jobs they held.
        self.stats: dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "expired": 0,
            "batches": 0,
            "batched_jobs": 0,
        }
        self._pending: dict[tuple, list[_Job]] = {}
        self._flush_handles: dict[tuple, asyncio.TimerHandle] = {}
        self._inflight: set[asyncio.Task] = set()
        self._in_system_jobs = 0
        self._in_system_points = 0
        self._draining = False
        self._closed = False
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "StencilServer":
        """Bind to the running loop."""
        self._loop = asyncio.get_running_loop()
        return self

    async def __aenter__(self) -> "StencilServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def install_signal_handlers(
        self, signals: Iterable[int] = (signal.SIGTERM,)
    ) -> None:
        """Wire graceful drain to process signals (call after start).

        On signal: stop admitting, flush and finish every accepted job,
        resolve every awaiting future — then stay closed.  Platforms
        without ``loop.add_signal_handler`` degrade silently (submit/
        drain remain available programmatically).
        """
        assert self._loop is not None, "install_signal_handlers after start()"
        for sig in signals:
            try:
                self._loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.close())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    @property
    def pending_jobs(self) -> int:
        """Jobs in the system right now (queued + running)."""
        return self._in_system_jobs

    @property
    def pending_points(self) -> int:
        """Summed space-time volume of the jobs in the system."""
        return self._in_system_points

    @property
    def accepting(self) -> bool:
        """Readiness: whether a submission right now would be admitted
        (modulo backpressure)."""
        return not (self._closed or self._draining)

    async def drain(self) -> None:
        """Stop admitting; run every queued job; await every batch."""
        self._draining = True
        for key in list(self._pending):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def close(self) -> None:
        """Drain, then reject all future submissions."""
        await self.drain()
        self._closed = True

    # -- admission ---------------------------------------------------------
    def _retry_after_hint(self) -> float:
        """Backoff hint for :class:`ServerBusy`, from queue depth.

        Queued work drains one batch per window once the window timers
        fire, so the estimate is the batch window plus one window per
        full batch in the system — clamped to a floor so an idle-window
        server still hints a non-zero pause.
        """
        window = max(self.options.batch_window, 0.001)
        depth = self._in_system_jobs / max(1, self.options.max_batch)
        return round(window * (1.0 + depth), 4)

    def _reject_busy(self, message: str) -> None:
        self.stats["rejected"] += 1
        raise ServerBusy(
            message,
            pending_jobs=self._in_system_jobs,
            pending_points=self._in_system_points,
            retry_after=self._retry_after_hint(),
        )

    async def submit(
        self,
        stencil: Stencil,
        steps: int,
        kernel: Kernel,
        options: RunOptions | None = None,
        *,
        timeout: float | None = None,
    ) -> RunReport:
        """Submit one job; await its report.

        Validation errors (bad kernel/steps) raise immediately, as
        ``stencil.run`` would.  :class:`ServerBusy` signals backpressure
        — the job was not queued.  ``options`` overrides the server's
        base run options for this job; jobs batch with jobs whose
        effective options carry the same *values*, so per-job overrides
        land in their own signature groups.  ``timeout`` bounds the
        queue wait: a job still queued ``timeout`` seconds after
        submission completes exceptionally with :class:`JobExpired`
        instead of running late (shed before dispatch, never
        interrupted mid-run).
        """
        return await self.submit_problem(
            stencil.prepare(steps, kernel),
            options,
            timeout=timeout,
            stencil=stencil,
        )

    async def submit_problem(
        self,
        problem: Problem,
        options: RunOptions | None = None,
        *,
        timeout: float | None = None,
        stencil: Stencil | None = None,
    ) -> RunReport:
        """Submit an already-prepared :class:`Problem` (the remote path).

        The network front-end lands here: a remote job arrives as a
        prepared problem carrying its own arrays, so there is no local
        stencil to advance — pass ``stencil`` only when there is one
        whose cursor should move after the run (``submit`` does).
        """
        if self._closed or self._draining:
            raise ServerClosed("server is draining; resubmit elsewhere")
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        run_options = options if options is not None else self.options.run
        assert run_options is not None
        _check_servable(run_options)
        if timeout is not None and timeout <= 0:
            self.stats["expired"] += 1
            raise JobExpired(
                f"deadline of {timeout:.3f}s expired before admission"
            )
        if self._in_system_jobs >= self.options.max_pending:
            self._reject_busy(
                f"{self._in_system_jobs} jobs in system (bound "
                f"{self.options.max_pending}); retry after backoff"
            )
        points = problem.total_points
        bound = self.options.max_pending_points
        if bound is not None and self._in_system_points + points > bound:
            self._reject_busy(
                f"volume bound {bound} points would be exceeded; "
                f"retry after backoff"
            )
        from repro.compiler.batch import batch_signature

        key = batch_signature(problem) + (_options_token(run_options),)
        now = time.perf_counter()
        job = _Job(
            problem=problem,
            stencil=stencil,
            future=self._loop.create_future(),
            enqueued=now,
            deadline=(now + timeout) if timeout is not None else None,
        )
        self.stats["submitted"] += 1
        self._in_system_jobs += 1
        self._in_system_points += points
        job._points = points  # type: ignore[attr-defined]
        job._options = run_options  # type: ignore[attr-defined]
        group = self._pending.setdefault(key, [])
        group.append(job)
        if timeout is not None:
            job.expiry = self._loop.call_later(
                timeout, self._expire_queued, key, job
            )
        if len(group) >= self.options.max_batch:
            self._flush(key)
        elif key not in self._flush_handles:
            self._flush_handles[key] = self._loop.call_later(
                self.options.batch_window, self._flush, key
            )
        return await job.future

    def _release_job(self, job: _Job) -> None:
        """Drop one job from the in-system accounting (exactly once)."""
        self._in_system_jobs -= 1
        self._in_system_points -= job._points  # type: ignore[attr-defined]

    @staticmethod
    def _cancel_expiry(job: _Job) -> None:
        if job.expiry is not None:
            job.expiry.cancel()
            job.expiry = None

    def _expire_job(self, job: _Job) -> None:
        """Fail one shed job with the typed error (accounting released)."""
        self._cancel_expiry(job)
        self.stats["expired"] += 1
        self._release_job(job)
        if not job.future.done():
            job.future.set_exception(
                JobExpired(
                    f"job expired after {time.perf_counter() - job.enqueued:.3f}s "
                    f"in queue (deadline passed before dispatch)"
                )
            )

    def _expire_queued(self, key: tuple, job: _Job) -> None:
        """Deadline timer: shed ``job`` if it is still in its queue."""
        group = self._pending.get(key)
        if group is None or job not in group:
            return  # already flushed (or already shed) — dispatch owns it
        group.remove(job)
        if not group:
            self._pending.pop(key, None)
            handle = self._flush_handles.pop(key, None)
            if handle is not None:
                handle.cancel()
        self._expire_job(job)

    # -- dispatch ----------------------------------------------------------
    def _flush(self, key: tuple) -> None:
        handle = self._flush_handles.pop(key, None)
        if handle is not None:
            handle.cancel()
        jobs = self._pending.pop(key, None)
        if not jobs:
            return
        for job in jobs:
            self._cancel_expiry(job)
        assert self._loop is not None
        task = self._loop.create_task(self._run_batch(jobs))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, jobs: list[_Job]) -> None:
        """Run one flushed group through the local driver, which decides
        whether it stacks and whether its kernel was warm."""
        from repro.trap.driver import execute_problem

        started = time.perf_counter()
        # Deadline shedding happens HERE, at the last instant before
        # dispatch: an expired job is failed with the typed error and
        # never runs; everything past this point runs to completion.
        live: list[_Job] = []
        for job in jobs:
            if job.deadline is not None and started >= job.deadline:
                self._expire_job(job)
            else:
                live.append(job)
        jobs = live
        if not jobs:
            return
        options: RunOptions = jobs[0]._options  # type: ignore[attr-defined]
        try:
            reports = await asyncio.to_thread(
                execute_problem, [j.problem for j in jobs], options
            )
            self.stats["batches"] += 1
            self.stats["batched_jobs"] += len(jobs)
            for job, report in zip(jobs, reports):
                report.queue_wait = started - job.enqueued
                self._finish_job(job)
                self.stats["completed"] += 1
                if not job.future.done():
                    job.future.set_result(report)
        except BaseException as exc:
            for job in jobs:
                self.stats["failed"] += 1
                if not job.future.done():
                    job.future.set_exception(exc)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
        finally:
            for job in jobs:
                self._release_job(job)

    @staticmethod
    def _finish_job(job: _Job) -> None:
        """The bookkeeping ``Stencil.run`` does after a direct run.

        Remote jobs have no local stencil (``stencil is None``): their
        client performs the same bookkeeping when the result lands.
        """
        for arr in job.problem.arrays.values():
            arr.note_written_through(job.problem.t_end - 1)
        if job.stencil is not None:
            job.stencil.advance_cursor(job.problem)
