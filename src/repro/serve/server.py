"""The asyncio job server (see :mod:`repro.serve` for the overview).

Threading model: the event loop owns admission, grouping, and flush
timers; each batch runs in a worker thread (``asyncio.to_thread``), so
the loop keeps admitting while compiled code runs with the GIL released.
The execution substrate underneath (compile caches, ``.so`` cache) is
thread- and process-safe: the per-digest compile lock and the attach
shim lock hold under server-shaped load.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass, field
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
        companions before flushing: the fallback for submitters that do
        not say where their burst ends (in-process :meth:`StencilServer.
        submit`, raw frames, a client's single ``submit``).  A
        :class:`~repro.serve.client.StencilClient` marks the last job of
        each burst of two or more, and that job launches the burst's
        groups at once (see
        :meth:`StencilServer.submit_problem`).
    ``max_pending``
        Admission bound on jobs in the system (queued + running).
        Submissions beyond it raise :class:`ServerBusy`.
    ``max_pending_points``
        Optional admission bound on total space-time volume
        (``problem.total_points`` summed over jobs in the system), so a
        few huge jobs cannot admit-starve memory the way a count bound
        alone would allow.
    ``run``
        The :class:`~repro.language.stencil.RunOptions` every job runs
        under (defaults to ``RunOptions()``, a local run's defaults).
        A job cannot bring its own: what a run may spend (workers,
        processes, codegen) is the server's choice, not a submitter's.
        The server passes them to the local driver unchanged, so a
        group runs as a local run of its jobs would; the driver decides
        whether the group stacks.  Checkpoint/resume options are
        rejected, here and at every admission: jobs are short and the
        server owns retry semantics.
    """

    max_batch: int = 16
    batch_window: float = 0.002
    max_pending: int = 256
    max_pending_points: int | None = None
    run: RunOptions = field(default_factory=RunOptions)

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
        _check_servable(self.run)


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
    #: The job's space-time volume, held against ``max_pending_points``.
    points: int
    #: Absolute monotonic deadline (``None`` = no deadline).  Checked
    #: at batch launch: still-queued jobs past it are shed with
    #: :class:`JobExpired`, never silently run.
    deadline: float | None = None
    #: The deadline's shed-while-queued timer.  Cancelled the moment the
    #: job leaves its queue (flushed, shed or drained): a live timer
    #: holds the job — and its arrays — until the deadline.
    expiry: asyncio.TimerHandle | None = None


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
        *,
        timeout: float | None = None,
    ) -> RunReport:
        """Submit one job; await its report.

        Validation errors (bad kernel/steps) raise immediately, as
        ``stencil.run`` would.  :class:`ServerBusy` signals backpressure
        — the job was not queued.  The job runs under the server's
        ``ServeOptions.run`` and batches with same-signature jobs.
        ``timeout`` bounds the queue wait: a job still queued
        ``timeout`` seconds after submission completes exceptionally
        with :class:`JobExpired` instead of running late (shed before
        dispatch, never interrupted mid-run).
        """
        return await self.submit_problem(
            stencil.prepare(steps, kernel),
            timeout=timeout,
            stencil=stencil,
        )

    async def submit_problem(
        self,
        problem: Problem,
        *,
        timeout: float | None = None,
        stencil: Stencil | None = None,
        burst: dict | None = None,
        last: bool = False,
    ) -> RunReport:
        """Submit an already-prepared :class:`Problem` (the remote path).

        The network front-end lands here: a remote job arrives as a
        prepared problem carrying its own arrays, so there is no local
        stencil to advance — pass ``stencil`` only when there is one
        whose cursor should move after the run (``submit`` does).

        ``burst`` is a dict the submitter keeps for its open burst of
        jobs (the front-end keeps one per connection): an admitted job
        records its signature group there.  A ``last`` job ends the
        burst: once it is admitted or refused, every group in ``burst``
        that is still queued launches (and ``burst`` empties) instead of
        waiting out ``batch_window``.
        """
        if burst is None:
            burst = {}
        try:
            future = self._admit(problem, timeout, stencil, burst)
        finally:
            if last:
                self.end_burst(burst)
        return await future

    def end_burst(self, burst: dict) -> None:
        """Launch the still-queued signature groups in ``burst`` (see
        :meth:`submit_problem`) and empty it."""
        for key, group in burst.items():
            if self._pending.get(key) is group:  # else it launched already
                self._flush(key)
        burst.clear()

    def _admit(
        self,
        problem: Problem,
        timeout: float | None,
        stencil: Stencil | None,
        burst: dict,
    ) -> asyncio.Future:
        """Queue one job (or raise why not); the future of its report."""
        if self._closed or self._draining:
            raise ServerClosed("server is draining; resubmit elsewhere")
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        # Again per job: ``ServeOptions`` and ``RunOptions`` are mutable.
        _check_servable(self.options.run)
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

        key = batch_signature(problem)
        now = time.perf_counter()
        job = _Job(
            problem=problem,
            stencil=stencil,
            future=self._loop.create_future(),
            enqueued=now,
            points=points,
            deadline=(now + timeout) if timeout is not None else None,
        )
        self.stats["submitted"] += 1
        self._in_system_jobs += 1
        self._in_system_points += points
        group = self._pending.setdefault(key, [])
        group.append(job)
        for k in [k for k, g in burst.items() if self._pending.get(k) is not g]:
            del burst[k]  # groups that launched: the record stays bounded
        burst[key] = group
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
        return job.future

    def _release_job(self, job: _Job) -> None:
        """Drop one job from the in-system accounting (exactly once)."""
        self._in_system_jobs -= 1
        self._in_system_points -= job.points

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
        try:
            reports = await asyncio.to_thread(
                execute_problem, [j.problem for j in jobs], self.options.run
            )
            self.stats["batches"] += 1
            self.stats["batched_jobs"] += len(jobs)
            for job, report in zip(jobs, reports):
                report.queue_wait = started - job.enqueued
                if job.stencil is not None:
                    job.stencil.advance_cursor(job.problem)
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
