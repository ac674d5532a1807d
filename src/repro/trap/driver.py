"""Execution driver: Problem + RunOptions -> compiled, decomposed, run.

This is the glue :meth:`repro.language.Stencil.run` calls for Phase-2
execution.  It owns nothing algorithmic — it wires the compiler pipeline,
the walkers, the loop baseline and the executors together and fills in a
:class:`~repro.language.stencil.RunReport`.

Executor dispatch (``RunOptions.resolve_executor``):

* ``"serial"`` — streams base regions straight off the walker's event
  generator; no plan or graph is ever materialized.
* ``"dag"`` — folds the event stream into a dependency-counted
  :class:`~repro.trap.graph.TaskGraph` (still no tree) and runs the
  ready-queue executor.
* ``"procs"`` — the same task graph, dispatched by a driver-side
  supervisor to worker *subprocesses* attached to shared-memory grid
  segments (:mod:`repro.supervise`); degrades to ``"dag"`` with a
  recorded note when shared memory or spawn is unavailable.

It also owns the autotune-registry integration
(``RunOptions.autotune``): before compiling, a ``"use"`` or
``"tune-on-miss"`` run looks up the persistent tuned-config registry
(:mod:`repro.autotune.registry`) under (problem signature, requested
mode, machine fingerprint) and folds a hit into the options —
caller-explicit knobs always win, and every registry failure degrades
silently to the heuristics.  ``"tune-on-miss"`` runs the dispatch-space
search (:func:`repro.autotune.isat.tune_problem`, against cloned
arrays) and stores the winner for every later process on this machine.
"""

from __future__ import annotations

import os
import time
import warnings
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
from repro.trap.walker import (
    decompose,
    decompose_events,
    default_options,
    walk_spec_for,
)
from repro.trap.zoid import full_grid_zoid


def _walk_setup(problem: Problem, options: RunOptions):
    """Shared geometry for both walker output paths."""
    from repro.compiler.pipeline import resolve_mode, walks_boundary

    if options.algorithm not in ("trap", "strap"):
        raise SpecificationError(
            f"build_plan only handles trap/strap, got {options.algorithm!r}"
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
        # Subtree-task planning: zoids that fit the walk grain become
        # single tasks executed by the compiled walk_subtree clone (or
        # its Python replay), one GIL-released call each — boundary
        # zoids too when that clone can classify and run them.
        compiled_walk=options.resolve_compiled_walk(resolved),
        walk_boundary=walks_boundary(problem, resolved),
        # Rides along in the emitted WalkParams; the executor only acts
        # on it when the compiled kernel has a parallel walk clone.
        walk_threads=options.resolve_walk_threads(),
    )
    top = full_grid_zoid(problem.t_start, problem.t_end, problem.sizes)
    return top, spec, opts


def build_plan(problem: Problem, options: RunOptions):
    """Decompose the problem's space-time grid per the selected algorithm
    into a materialized plan tree."""
    top, spec, opts = _walk_setup(problem, options)
    return decompose(top, spec, opts)


def build_events(problem: Problem, options: RunOptions):
    """The streaming counterpart of :func:`build_plan`: a lazy plan-event
    generator (no tree)."""
    top, spec, opts = _walk_setup(problem, options)
    return decompose_events(top, spec, opts)


def _apply_tuned(problem: Problem, options: RunOptions, tuned) -> RunOptions:
    """Fold a registry TunedConfig into the options.

    Only knobs still at their defaults are filled: explicit
    ``space_thresholds``/``dt_threshold``/``mode``/``n_workers``/
    ``compiled_walk``/``executor`` win over the tuned values, and
    ``fuse_leaves=False`` (the ablation setting) is never overridden.  Threshold merging (including the
    grid clamp) lives in :func:`repro.trap.coarsening.tuned_thresholds`
    so the walker and the registry agree on the final geometry.
    """
    from dataclasses import replace as _replace

    from repro.compiler.pipeline import available_modes
    from repro.trap.coarsening import tuned_thresholds

    space, dt = tuned_thresholds(
        problem.ndim, problem.sizes, tuned, codegen_mode=None
    )
    updates: dict = {}
    if options.space_thresholds is None:
        updates["space_thresholds"] = space
    if options.dt_threshold is None:
        updates["dt_threshold"] = dt
    if (
        options.mode == "auto"
        and tuned.mode != "auto"
        and tuned.mode in available_modes()
    ):
        updates["mode"] = tuned.mode
    if options.n_workers is None and tuned.n_workers is not None:
        updates["n_workers"] = tuned.n_workers
    if options.fuse_leaves and not tuned.fuse_leaves:
        updates["fuse_leaves"] = False
    if options.compiled_walk is None and tuned.compiled_walk is not None:
        updates["compiled_walk"] = tuned.compiled_walk
    if options.walk_threads is None and tuned.walk_threads is not None:
        updates["walk_threads"] = tuned.walk_threads
    if options.executor == "auto" and tuned.executor is not None:
        updates["executor"] = tuned.executor
    return _replace(options, **updates) if updates else options


def _consult_registry(
    problem: Problem, options: RunOptions
) -> tuple[RunOptions, str]:
    """Resolve the autotune policy: (effective options, winning source).

    Never raises: a broken registry, a failed tune, or a failed store
    all degrade to the heuristic/explicit configuration the run would
    have used with ``autotune="off"``.
    """
    explicit = (
        options.space_thresholds is not None or options.dt_threshold is not None
    )
    source = "explicit" if explicit else "heuristic"
    if options.autotune == "off" or options.algorithm not in ("trap", "strap"):
        return options, source
    try:
        from repro.autotune import registry

        # TRAP (the default algorithm) keys on the bare mode; other
        # walk algorithms get their own entries — their optima differ,
        # and a config tuned by timing TRAP must never serve STRAP.
        backend_key = (
            options.mode
            if options.algorithm == "trap"
            else f"{options.algorithm}:{options.mode}"
        )
        tuned = registry.lookup(problem, backend_key)
        if tuned is not None:
            applied = _apply_tuned(problem, options, tuned)
            return applied, "registry" if applied is not options else source
        if options.autotune == "tune-on-miss":
            from repro.autotune.isat import tune_problem

            result = tune_problem(
                problem, backend=options.mode, algorithm=options.algorithm
            )
            registry.store(problem, backend_key, result.config)
            applied = _apply_tuned(problem, options, result.config)
            return applied, "tuned" if applied is not options else source
    except Exception as exc:  # pragma: no cover - defensive: see docstring
        degradations.note("autotune:registry-unavailable->heuristics")
        warnings.warn(
            f"autotune registry unavailable ({exc!r}); "
            f"falling back to heuristics",
            RuntimeWarning,
            stacklevel=2,
        )
    return options, source


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
        stats = execute_serial_stream(
            build_events(problem, options),
            compiled,
            collect_stats=options.collect_stats,
        )
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
    if region_stats is None and options.collect_stats:
        region_stats = stats_from_regions(graph.iter_regions())

    report.executor = stats.executor
    # max, not last-wins: a short final block may degenerate to the
    # serial elision (n_workers=1) without changing the run's strategy.
    report.n_workers = max(report.n_workers, stats.n_workers)
    report.elapsed += elapsed
    report.busy_time += stats.busy_time
    base_cases = stats.base_cases
    if options.collect_stats and region_stats is not None:
        report.points_updated += region_stats.points
        base_cases = region_stats.base_cases
        report.interior_base_cases += region_stats.interior_base_cases
        report.boundary_base_cases += region_stats.boundary_base_cases
        report.subtree_tasks += region_stats.subtree_tasks
    else:
        report.points_updated += problem.total_points
    report.base_cases += base_cases


def execute_problem(problem: Problem, options: RunOptions) -> RunReport:
    """Compile, decompose (or loop), execute; return the run report.

    Degradation notes fired anywhere below (compiler fallbacks, cache
    evictions, registry damage, checkpoint skips, executor retries) are
    collected into ``report.degradations``; under a
    ``RunOptions.checkpoint`` policy (or ``resume_from``) the time range
    runs as checkpointed blocks via
    :func:`repro.resilience.runner.execute_blocks`.
    """
    from repro.compiler.pipeline import compile_kernel_resilient, resolve_mode

    report = RunReport(
        algorithm=options.algorithm,
        mode="",
        t_start=problem.t_start,
        t_end=problem.t_end,
    )
    if problem.steps == 0:
        return report
    with degradations.collect(report.degradations):
        options, report.autotune_source = _consult_registry(problem, options)

        compiled = compile_kernel_resilient(problem, options.mode)
        report.mode = compiled.mode
        if resolve_mode(options.mode) != compiled.mode:
            # The compile degraded (C backend unusable): rewrite the
            # requested mode so coarsening geometry, compiled-walk
            # resolution, and any later per-block compile all follow
            # the backend that will actually run.
            options = _dc_replace(options, mode=compiled.mode)
        if not options.fuse_leaves:
            compiled = compiled.without_fused_leaves()

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
            return report

        executor, n_workers = options.resolve_executor()
        session = None
        if executor == "procs":
            # Promote the grid into shared segments and lease worker
            # subprocesses.  On any unavailability (no shm, spawn
            # blocked, unpicklable problem) this returns None with a
            # recorded note and the run degrades to the in-process DAG
            # executor.  Either way the arrays may have been rebound
            # (share bumps cache tokens), so recompile on the degrade
            # path — a no-op cache hit when nothing was rebound.
            from repro.supervise.session import open_session

            session = open_session(
                problem,
                options.supervise,
                options.fuse_leaves,
                compiled.mode,
                n_workers,
                report,
            )
            if session is None:
                executor = "dag"
                compiled = compile_kernel_resilient(problem, options.mode)
                if not options.fuse_leaves:
                    compiled = compiled.without_fused_leaves()
        if compiled.walk_par is not None:
            report.walk_threads = options.resolve_walk_threads()
        # Pool counters are accumulated in a per-kernel C buffer; diffing
        # a snapshot around the run yields this run's share (best-effort
        # under concurrent runs of the same kernel, exact otherwise;
        # supervised runs execute the walk in worker processes, so their
        # pool counters stay zero here).
        walk_stats0 = compiled.walk_stats_snapshot()

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

        walk_stats1 = compiled.walk_stats_snapshot()
        report.walk_spawned = walk_stats1[0] - walk_stats0[0]
        report.walk_stolen = walk_stats1[1] - walk_stats0[1]
        report.walk_barriers = walk_stats1[2] - walk_stats0[2]
        if report.walk_threads > 1 and os.environ.get("REPRO_WALK_POOL_FAIL"):
            # The generated pool reads this env at start and degrades to
            # the serial recursion inside the .so; Python only sees the
            # env, so record the fallback here (covers both direct env
            # arming and the faults registry's walk.pool site).
            degradations.note("walk-pool:start-failed->serial")
    return report


def execute_batch(
    problems: list[Problem], options: RunOptions
) -> list[RunReport]:
    """Run K same-signature problems through ONE decomposition.

    The batch path of the serving layer: the jobs' arrays are stacked
    into contiguous per-array buffers (a lone job runs in place), the
    template job's clones are bound against the stack
    (:mod:`repro.compiler.batch`), and a single serial event stream then
    executes every region once — each leaf/step/walk call covering all K
    jobs, GIL-released for the C backend.  Results are scattered back
    into each job's own arrays, bitwise identical to running the jobs
    one at a time.

    Returns one :class:`RunReport` per job, in order.  ``elapsed`` /
    ``base_cases`` describe the shared batched run (identical across
    the reports, with ``batch_size`` recording the sharing);
    ``points_updated`` is per job.  A ``"c"`` request degrades to
    batched NumPy with the usual note; a mode/boundary that cannot
    batch raises :class:`~repro.errors.CompileError` — the serving
    layer falls back to unbatched sequential execution instead of
    calling this.  Checkpointing, resume, and the parallel executors
    are deliberately unsupported here: batches are small and short, and
    the per-job supervised path remains available unbatched.
    """
    from repro.compiler.batch import (
        compile_batch_kernel,
        scatter_results,
        stack_problems,
    )
    from repro.compiler.pipeline import resolve_mode

    if not problems:
        return []
    if options.checkpoint is not None or options.resume_from is not None:
        raise SpecificationError(
            "batched execution does not support checkpoint/resume"
        )
    template = problems[0]
    reports = [
        RunReport(
            algorithm=options.algorithm,
            mode="",
            t_start=p.t_start,
            t_end=p.t_end,
            batch_size=len(problems),
        )
        for p in problems
    ]
    if template.steps == 0:
        return reports
    shared_degradations: list[str] = []
    with degradations.collect(shared_degradations):
        options, autotune_source = _consult_registry(template, options)
        stack = stack_problems(problems)
        compiled = compile_batch_kernel(stack, options.mode)
        if resolve_mode(options.mode) != compiled.mode:
            options = _dc_replace(options, mode=compiled.mode)
        if not options.fuse_leaves:
            compiled = compiled.without_fused_leaves()
        t0 = time.perf_counter()
        stats = execute_serial_stream(
            build_events(template, options),
            compiled,
            collect_stats=options.collect_stats,
        )
        elapsed = time.perf_counter() - t0
        scatter_results(stack)
    for p, report in zip(problems, reports):
        report.mode = compiled.mode
        report.autotune_source = autotune_source
        report.registry_hit = autotune_source == "registry"
        report.executor = stats.executor
        report.elapsed = elapsed
        report.busy_time = stats.busy_time
        report.base_cases = stats.base_cases
        report.points_updated = p.total_points
        report.degradations = list(shared_degradations)
    return reports
