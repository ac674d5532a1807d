"""Execution driver: Problems + RunOptions -> compiled, decomposed, run.

The one execute path: :meth:`repro.language.Stencil.run` and the job
server both call :func:`execute_problem`.  It owns nothing
algorithmic — it wires the compiler pipeline, the walkers, the loop
baseline and the executors together and fills in one
:class:`~repro.language.stencil.RunReport` per job.  A local run is a
group of one job; a server group of K stacks them
(:mod:`repro.compiler.batch`) and runs exactly like one when it can, and
runs them one at a time when it cannot.

Executor dispatch (``RunOptions.resolve_executor``):

* ``"serial"`` — streams base regions straight off the walker's event
  generator; no plan or graph is ever materialized.
* ``"dag"`` — folds the event stream into a dependency-counted
  :class:`~repro.trap.graph.TaskGraph` and runs the ready-queue
  executor.
* ``"procs"`` — the same task graph, dispatched by a driver-side
  supervisor to worker *subprocesses* attached to shared-memory grid
  segments (:mod:`repro.supervise`); degrades to ``"dag"`` with a
  recorded note when shared memory or spawn is unavailable.
"""

from __future__ import annotations

import time
from dataclasses import replace as _dc_replace

from repro.errors import SpecificationError
from repro.language.stencil import Problem, RunOptions, RunReport
from repro.resilience import degradations
from repro.resilience.runner import execute_blocks
from repro.trap.loops import run_loops
from repro.trap.executor import (
    default_workers,
    execute_dag,
    execute_serial_stream,
)
from repro.trap.graph import build_task_graph
from repro.trap.plan import stats_from_regions
from repro.trap.walker import decompose_events, default_options, walk_spec_for
from repro.trap.zoid import full_grid_zoid


def _walk_setup(problem: Problem, options: RunOptions):
    """The walker's geometry and options for one problem."""
    from repro.compiler.pipeline import resolve_mode, walks_boundary

    if options.algorithm not in ("trap", "strap"):
        raise SpecificationError(
            f"build_events only handles trap/strap, got {options.algorithm!r}"
        )
    min_off, max_off = problem.shape.min_max_offsets
    spec = walk_spec_for(problem.sizes, problem.slopes, min_off, max_off)
    resolved = resolve_mode(options.mode)
    opts = default_options(
        problem.ndim,
        problem.sizes,
        dt_threshold=options.dt_threshold,
        space_thresholds=options.space_thresholds,
        protect_unit_stride=options.protect_unit_stride,
        hyperspace=(options.algorithm == "trap"),
        # Coarsening defaults are tuned per backend: the cheap fused C
        # leaves want smaller zoids than the NumPy leaves (and the extra
        # base cases feed the DAG runtime's parallelism).
        codegen_mode=resolved,
        # Subtree-task planning under C, the one backend with a
        # walk_subtree clone: zoids that fit the walk grain become single
        # tasks, one GIL-released call each — boundary zoids too when
        # that clone can classify and run them.
        compiled_walk=options.compiled_walk and resolved == "c",
        walk_boundary=walks_boundary(problem, resolved),
        # Rides along in the emitted WalkParams: the compiled walk's
        # thread count.
        walk_threads=options.resolve_walk_threads(),
    )
    top = full_grid_zoid(problem.t_start, problem.t_end, problem.sizes)
    return top, spec, opts


def build_events(problem: Problem, options: RunOptions):
    """Decompose the problem's space-time grid per the selected algorithm
    into a lazy plan-event generator."""
    top, spec, opts = _walk_setup(problem, options)
    return decompose_events(top, spec, opts)


def _execute_range(
    problem: Problem,
    options: RunOptions,
    compiled,
    report: RunReport,
    executor: str,
    n_workers: int,
    session=None,
) -> None:
    """Decompose and execute one time range, *accumulating* into the
    report — the resilience runner calls this once per checkpointed
    block (once total when checkpointing is off)."""
    # One timing window for every executor: decomposition + scheduling
    # structure + execution.  The serial stream interleaves walking with
    # running, so including plan/graph construction for the parallel
    # executors is what keeps `elapsed` comparable across them.
    t0 = time.perf_counter()
    if executor == "serial":
        stats = execute_serial_stream(build_events(problem, options), compiled)
    elif executor == "dag":
        graph = build_task_graph(build_events(problem, options))
        stats = execute_dag(graph, compiled, n_workers)
    elif executor == "procs":
        # The supervised session owns compilation (each worker binds its
        # own kernel against the shared segments); the driver only
        # builds the graph and supervises.
        graph = build_task_graph(build_events(problem, options))
        stats = session.run_graph(graph)
    else:  # pragma: no cover - resolve_executor guarantees the above
        raise SpecificationError(f"unknown executor {executor!r}")
    elapsed = time.perf_counter() - t0

    # Region statistics are reporting: for the parallel executors they
    # are collected outside the timed window; the serial stream exists
    # only once, so its (cheap) accounting runs inline above.
    region_stats = stats.region_stats
    if region_stats is None:
        region_stats = stats_from_regions(graph.iter_regions())

    report.executor = stats.executor
    # max, not last-wins: a short final block may degenerate to the
    # serial elision (n_workers=1) without changing the run's strategy.
    report.n_workers = max(report.n_workers, stats.n_workers)
    report.elapsed += elapsed
    report.busy_time += stats.busy_time
    report.points_updated += region_stats.points
    report.base_cases += region_stats.base_cases
    report.interior_base_cases += region_stats.interior_base_cases
    report.boundary_base_cases += region_stats.boundary_base_cases
    report.subtree_tasks += region_stats.subtree_tasks


def execute_problem(
    problems: list[Problem], options: RunOptions
) -> list[RunReport]:
    """Run same-signature jobs as one run; return one report per job.

    ``options`` are the whole configuration; ``mode="auto"`` resolves
    once, here, so every layer below sees the backend that compiles.  A
    lone job's kernel is bound to its own arrays.  K > 1 jobs that
    :func:`~repro.compiler.batch.can_stack` admits are stacked, bound to
    the stack and scattered back, bitwise identical to running them one
    at a time; subtree tasks and DAG regions do not depend on the job, so
    executor, workers and walk threads resolve as for a lone job, and
    every report carries the run's counters (points are per job) and
    ``batch_size=K``.  Any other group runs one job at a time under the
    group's options: each report has ``batch_size=1`` and the
    ``batch:unstackable->sequential`` tag.

    Degradation notes fired anywhere below (compiler fallbacks, cache
    evictions, checkpoint skips, executor retries) are
    collected into ``report.degradations``; under a
    ``RunOptions.checkpoint`` policy (or ``resume_from``) the time range
    runs as checkpointed blocks via
    :func:`repro.resilience.runner.execute_blocks`.  Checkpoint files are
    named by problem signature, so K > 1 jobs with either raise
    :class:`SpecificationError`, as does ``algorithm="phase1"`` (the
    checked interpreter runs through :meth:`Stencil.run` only).
    """
    from repro.compiler.batch import (
        can_stack,
        compile_batch_kernel,
        scatter_results,
        stack_problems,
    )
    from repro.compiler.pipeline import compile_kernel_resilient, resolve_mode

    if options.algorithm == "phase1":
        raise SpecificationError(
            "algorithm='phase1' is the checked interpreter: run it through "
            "Stencil.run, not execute_problem"
        )
    if len(problems) > 1 and (
        options.checkpoint is not None or options.resume_from is not None
    ):
        raise SpecificationError(
            "checkpoint files are named by problem signature, so jobs of one "
            "group would overwrite each other's; run checkpointed or resumed "
            "jobs one at a time"
        )
    problem = problems[0]
    report = RunReport(
        algorithm=options.algorithm,
        mode="",
        t_start=problem.t_start,
        t_end=problem.t_end,
        batch_size=len(problems),
    )
    if problem.steps > 0:
        with degradations.collect(report.degradations):
            options = _dc_replace(options, mode=resolve_mode(options.mode))
            if len(problems) == 1:
                compiled = compile_kernel_resilient(problem, options.mode)
                _run(problem, options, compiled, report)
            elif can_stack(problem, options):
                stack = stack_problems(problems)
                compiled = compile_batch_kernel(stack, options.mode)
                _run(problem, options, compiled, report)
                scatter_results(stack)
            else:
                degradations.note("batch:unstackable->sequential")
                return [_run_alone(p, options, report) for p in problems]
    return [report] + [
        _dc_replace(report, degradations=list(report.degradations))
        for _ in problems[1:]
    ]


def _run_alone(
    problem: Problem, options: RunOptions, group: RunReport
) -> RunReport:
    """One job of an unstackable group, under the group's options: its
    own report, with the group's notes first."""
    (report,) = execute_problem([problem], options)
    report.degradations[:0] = [
        tag for tag in group.degradations if tag not in report.degradations
    ]
    return report


def _run(
    problem: Problem, options: RunOptions, compiled, report: RunReport
) -> None:
    """Execute ``problem``'s time range with ``compiled`` (bound to the
    problem's arrays or to a stack of jobs), filling ``report``."""
    from repro.compiler.pipeline import compile_kernel_resilient

    report.mode = compiled.mode
    report.compile_cache_hit = compiled.warm
    if options.mode != compiled.mode:
        # The compile degraded (C backend unusable): rewrite the
        # requested mode so coarsening geometry, compiled-walk
        # resolution, and any later per-block compile all follow
        # the backend that will actually run.
        options = _dc_replace(options, mode=compiled.mode)

    if options.algorithm in ("loops", "serial_loops"):
        parallel = options.algorithm == "loops"
        if parallel:
            report.n_workers = default_workers(options.n_workers)
        report.executor = "loops" if parallel else "serial"

        def run_loop_range(a: int, b: int) -> None:
            sub = _dc_replace(problem, t_start=a, t_end=b)
            t0 = time.perf_counter()
            invocations, busy = run_loops(
                sub,
                compiled,
                parallel=parallel,
                n_workers=options.n_workers,
            )
            report.elapsed += time.perf_counter() - t0
            report.busy_time += busy
            report.points_updated += sub.total_points
            report.base_cases += invocations

        execute_blocks(
            problem,
            report,
            run_loop_range,
            policy=options.checkpoint,
            resume_from=options.resume_from,
        )
        return

    executor, n_workers = options.resolve_executor()
    session = None
    if executor == "procs":
        # Promote the grid into shared segments and lease worker
        # subprocesses.  On any unavailability (no shm, spawn
        # blocked, unpicklable problem) this returns None with a
        # recorded note and the run degrades to the in-process DAG
        # executor.  Either way the arrays may have been rebound to
        # shared memory, so rebind the kernel to their current buffers
        # on the degrade path.
        from repro.supervise.session import open_session

        session = open_session(
            problem, options.supervise, compiled.mode, n_workers, report
        )
        if session is None:
            executor = "dag"
            compiled = compile_kernel_resilient(problem, options.mode)
    def run_range(a: int, b: int) -> None:
        sub = _dc_replace(problem, t_start=a, t_end=b)
        _execute_range(
            sub, options, compiled, report, executor, n_workers,
            session=session,
        )

    try:
        execute_blocks(
            problem,
            report,
            run_range,
            policy=options.checkpoint,
            resume_from=options.resume_from,
        )
    finally:
        if session is not None:
            session.close()

    if report.subtree_tasks > 0 and compiled.walk is not None:
        report.walk_threads = options.resolve_walk_threads()
    # Pool counters accumulate in the kernel's own C buffer, bound for
    # this run alone, so they are exact (supervised runs execute the
    # walk in worker processes, so their pool counters stay zero here).
    report.walk_spawned, report.walk_stolen, report.walk_barriers, poolless = (
        compiled.walk_stats_snapshot()
    )
    if poolless > 0:
        # A walk call asked for more than one thread and its pool could
        # not start (pthread_create failed, or the walk.pool fault site
        # armed the generated C's hook): it ran every piece inline.
        degradations.note("walk-pool:start-failed->serial")
