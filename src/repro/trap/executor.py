"""Plan executors: the serial elision and the task-DAG runtime.

The Cilk runtime of the paper schedules the spawned subzoids with work
stealing.  Two in-process executors run the decomposition:

* ``"serial"`` — the serial elision: depth-first, one thread, streamed
  straight off the walker's event generator.
* ``"dag"`` — the ready-queue task-DAG runtime: workers pull any region
  whose predecessor count (:class:`repro.trap.graph.TaskGraph`) hits
  zero.  A region runs the moment its actual dependencies finish, the
  closest analogue of Cilk's greedy execution of the spawn tree.

Lemma 1's barrier-separated *waves*
(:func:`repro.trap.plan.linearize_waves`) are how the paper analyses
that tree, not a runtime: they survive only as the schedule model
behind :func:`repro.runtime.scheduler.simulate_greedy`.

NumPy kernels release the GIL for the bulk of their work and the C
backend's fused leaves release it for the *entire* base-case trapezoid
(one ctypes call per region), so threads provide real parallelism on
multi-core hosts.  A C subtree task is one such call too, and at more
than one walk thread it also splits its subtree across the pthread pool
inside the ``.so`` — the same recursion, which at one thread spawns
nothing; the *scalability analysis* for Figure 9 comes from the
work/span analyzer
(:mod:`repro.runtime.workspan`) and the schedule simulators
(:mod:`repro.runtime.scheduler`), mirroring how the paper separates
Cilkview measurements from runtime measurements.

Worker threads live in one process-wide pool, leased per run through
:func:`acquire_pool`/:func:`release_pool`; repeated ``Stencil.run``
calls reuse it, it grows on demand, and it is never recreated per call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import ExecutionError
from repro.resilience import faults
from repro.trap.graph import TaskGraph
from repro.trap.plan import BaseRegion, PlanEvent, PlanStats, iter_base_events

if TYPE_CHECKING:  # pragma: no cover
    from repro.compiler.pipeline import CompiledKernel


def default_workers(n_workers: int | None) -> int:
    """The worker count a ``None`` request resolves to (one per
    *available* core — cgroup/affinity aware).

    The single source of the default: executor dispatch, the loop
    baseline, and the run report all use this, so the reported count is
    always the count that actually ran.
    """
    from repro.util import detect_cpu_count

    return n_workers or max(1, detect_cpu_count())


# -- the shared worker pool ---------------------------------------------------

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
#: Outgrown pools still leased by an in-flight run: shutting one down
#: under that run would raise "cannot schedule new futures after
#: shutdown" mid-flight.  Each entry is dropped — and the pool shut
#: down — the moment its last lease is released (see
#: :func:`release_pool`); a retired pool with no leases never enters
#: the list at all, so this no longer grows across pool regrowths.
_retired_pools: list[ThreadPoolExecutor] = []
#: pool -> number of executors currently using it (the lease window
#: spans acquire_pool .. release_pool, covering every submit).
_pool_leases: dict[ThreadPoolExecutor, int] = {}


def acquire_pool(n_workers: int) -> ThreadPoolExecutor:
    """Lease the process-wide worker pool, grown to at least
    ``n_workers``.

    Repeated runs reuse threads instead of paying pool construction per
    call.  The lease keeps the pool alive (even if a concurrent run
    outgrows it) until the matching :func:`release_pool`, which tells
    the retirement logic exactly when an outgrown pool has drained.
    """
    global _pool, _pool_size
    if n_workers < 1:
        raise ExecutionError(f"n_workers must be >= 1, got {n_workers}")
    with _pool_lock:
        if _pool is None or _pool_size < n_workers:
            if _pool is not None:
                if _pool_leases.get(_pool, 0) > 0:
                    _retired_pools.append(_pool)
                else:
                    _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(
                max_workers=n_workers, thread_name_prefix="repro-worker"
            )
            _pool_size = n_workers
        _pool_leases[_pool] = _pool_leases.get(_pool, 0) + 1
        return _pool


def release_pool(pool: ThreadPoolExecutor) -> None:
    """Release a lease; the last release of a *retired* pool shuts it
    down and drops it, so outgrown pools stop holding threads the
    moment their in-flight work drains."""
    with _pool_lock:
        remaining = _pool_leases.get(pool, 0) - 1
        if remaining > 0:
            _pool_leases[pool] = remaining
            return
        _pool_leases.pop(pool, None)
        if pool in _retired_pools:
            _retired_pools.remove(pool)
            pool.shutdown(wait=False)


def shutdown_pool() -> None:
    """Tear down the shared pool (tests; interpreter exit does it too)."""
    global _pool, _pool_size
    with _pool_lock:
        for old in _retired_pools:
            old.shutdown(wait=True)
        _retired_pools.clear()
        _pool_leases.clear()
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = None
        _pool_size = 0


def _in_worker_thread() -> bool:
    """True when called from a shared-pool worker — i.e. a *nested* run
    (a user kernel or boundary function invoking ``Stencil.run``).  A
    nested parallel run must not wait on the pool that is running it
    (deadlock: the outer workers occupy every slot), so parallel paths
    degrade to inline execution here, as the old per-call pools
    effectively allowed."""
    return threading.current_thread().name.startswith("repro-worker")


# -- execution statistics -----------------------------------------------------


@dataclass
class ExecStats:
    """What one plan execution did (feeds ``RunReport``).

    ``busy_time`` sums the wall time workers spent inside base-case
    kernels.  ``wall_time`` covers *execution only*; the driver's
    ``RunReport.elapsed`` uses its own window that additionally includes
    plan/graph construction, and ``RunReport.idle_fraction`` divides
    ``busy_time`` by that wider window — so the reported idle fraction
    counts schedule construction as overhead, by design.
    """

    executor: str
    n_workers: int = 1
    base_cases: int = 0
    wall_time: float = 0.0
    busy_time: float = 0.0
    region_stats: PlanStats | None = None


def join_all(futures) -> list:
    """Wait for *every* future, then re-raise the first exception.

    The shared pool outlives any one call, so propagating an exception
    before the siblings finish would leave them still writing the grid
    while the caller inspects it.
    """
    results = []
    error: BaseException | None = None
    for f in futures:
        try:
            results.append(f.result())
        except BaseException as exc:
            error = error or exc
    if error is not None:
        raise error
    return results


def run_bounded(
    pool: ThreadPoolExecutor, fns: list, n_workers: int
) -> float:
    """Run zero-arg callables (each returning busy seconds) with at most
    ``n_workers`` executing concurrently; returns summed busy time.

    The shared pool may be wider than this run's request (it grows to
    the largest count ever asked for), so the per-run cap is enforced
    here: ``min(n_workers, len(fns))`` puller loops drain a shared
    queue.  On an exception the pullers stop taking new work, finish
    what is in flight, and the first error propagates.
    """
    if not fns:
        return 0.0
    if len(fns) == 1 or n_workers == 1 or _in_worker_thread():
        return sum(fn() for fn in fns)
    work: deque = deque(fns)
    lock = threading.Lock()
    failed: list[bool] = []

    def puller() -> float:
        busy = 0.0
        while True:
            with lock:
                if not work or failed:
                    return busy
                fn = work.popleft()
            try:
                busy += fn()
            except BaseException:
                failed.append(True)
                raise

    futures = [pool.submit(puller) for _ in range(min(n_workers, len(fns)))]
    return sum(join_all(futures))


def run_base_region(region: BaseRegion, compiled: "CompiledKernel") -> None:
    """Execute one base case: step time forward, shifting the box by the
    zoid slopes after each step (Figure 2, lines 20–28).

    Subtree tasks (``region.walk`` set) run their whole subtree through
    the backend's compiled ``walk_subtree`` clone — one GIL-released
    ctypes call executes every cut, interior test and fused leaf below
    the root, at the task's thread count.  The plan makes subtree tasks
    only for a kernel whose walk can take them (``c``, and boundary
    subtrees only with C boundary clones), and every process binds the
    run's resolved mode, so a task the kernel cannot take is a bug and
    raises :class:`ExecutionError`.

    When the backend generated a fused leaf clone (``split_pointer``'s
    NumPy leaves or ``c``'s compiled leaves) the whole time loop runs
    inside generated code — one Python call per base case instead of one
    per time step; the C leaves additionally release the GIL for the
    whole trapezoid, so DAG workers execute base cases truly in
    parallel.  Regions without a fused clone (boundary kinds the backend
    cannot express, or a kernel stripped by ``without_fused_leaves``)
    take the per-step path below.
    """
    if region.walk is not None:
        # Only a walk built with C boundary clones can classify zoids.
        if compiled.walk is None or not (
            region.interior or compiled.boundary_mode == "c"
        ):
            raise ExecutionError(
                f"a {compiled.mode} kernel (boundary clones: "
                f"{compiled.boundary_mode}, compiled walk: "
                f"{compiled.walk is not None}) cannot run this subtree task"
            )
        # WalkParams is (slopes, thresholds, dt threshold, hyperspace,
        # threads): the walk's own trailing arguments.
        lo, hi, dlo, dhi = zip(*region.dims)
        compiled.walk(region.ta, region.tb, lo, hi, dlo, dhi, *region.walk)
        return
    fused = compiled.leaf if region.interior else compiled.leaf_boundary
    if fused is not None:
        # One zip(*...) instead of four generator-expression tuples:
        # this dispatch is the per-base-case hot path for compiled
        # leaves, where the kernel itself may cost only microseconds.
        lo, hi, dlo, dhi = zip(*region.dims)
        if fused(region.ta, region.tb, lo, hi, dlo, dhi):
            return
        # A falsy return means the leaf declined this region (e.g. a
        # NumPy snapshot leaf given a wrapped home range under a
        # clip/fill boundary) — step it below.
    clone = compiled.interior if region.interior else compiled.boundary
    d = len(region.dims)
    lo = [xa for xa, _, _, _ in region.dims]
    hi = [xb for _, xb, _, _ in region.dims]
    dlo = [dxa for _, _, dxa, _ in region.dims]
    dhi = [dxb for _, _, _, dxb in region.dims]
    for t in range(region.ta, region.tb):
        clone(t, tuple(lo), tuple(hi))
        for i in range(d):
            lo[i] += dlo[i]
            hi[i] += dhi[i]


# -- serial -------------------------------------------------------------------


def execute_serial_stream(
    events: Iterable[PlanEvent], compiled: "CompiledKernel"
) -> ExecStats:
    """Serial elision straight off an event stream: regions execute as the
    walker produces them, so the plan is never materialized.

    The per-region accounting runs inline: the stream exists only once,
    so it cannot happen outside the timed window.
    """
    stats = PlanStats()
    t0 = time.perf_counter()
    for region in iter_base_events(events):
        run_base_region(region, compiled)
        stats.note_region(region)
    wall = time.perf_counter() - t0
    return ExecStats(
        executor="serial",
        n_workers=1,
        base_cases=stats.base_cases,
        wall_time=wall,
        busy_time=wall,
        region_stats=stats,
    )


# -- the task-DAG runtime -----------------------------------------------------


def execute_dag(
    graph: TaskGraph, compiled: "CompiledKernel", n_workers: int
) -> ExecStats:
    """Ready-queue execution of a task DAG: no inter-wave barriers.

    ``n_workers`` workers (from the shared pool) repeatedly pull a region
    whose predecessor count reached zero, run it, and decrement its
    successors' counts; zero-cost join nodes propagate instantly.  With
    one worker this degenerates to node-id order — the serial elision.
    """
    if n_workers < 1:
        raise ExecutionError(f"n_workers must be >= 1, got {n_workers}")

    npred = list(graph.npred)
    regions = graph.regions

    if n_workers == 1 or graph.n_tasks <= 1 or _in_worker_thread():
        # Node-id order is a valid serial schedule (edges point forward).
        # Also the nested-run path: see _in_worker_thread.
        t0 = time.perf_counter()
        for region in graph.iter_regions():
            run_base_region(region, compiled)
        wall = time.perf_counter() - t0
        return ExecStats(
            executor="dag",
            n_workers=1,
            base_cases=graph.n_tasks,
            wall_time=wall,
            busy_time=wall,
        )

    ready: deque[int] = deque()
    cond = threading.Condition()
    state = {"remaining": graph.n_tasks, "in_flight": 0, "error": None}
    graph.seed_ready(npred, ready.append)

    def _worker_loop() -> float:
        busy = 0.0
        while True:
            with cond:
                while (
                    not ready
                    and state["remaining"] > 0
                    and state["error"] is None
                    and state["in_flight"] > 0
                ):
                    cond.wait()
                if state["remaining"] <= 0 or state["error"] is not None:
                    return busy
                if not ready:
                    # Nothing ready, nothing running, tasks pending: the
                    # graph is inconsistent (a predecessor count that can
                    # never reach zero).  Error out rather than hang.
                    state["error"] = ExecutionError(
                        f"DAG execution stalled with {state['remaining']} "
                        f"tasks pending (cyclic or inconsistent graph)"
                    )
                    cond.notify_all()
                    return busy
                nid = ready.popleft()
                state["in_flight"] += 1
            t0 = time.perf_counter()
            try:
                if faults.fire("dag.worker"):
                    raise ExecutionError(
                        "injected fault: dag.worker — worker died mid-task"
                    )
                run_base_region(regions[nid], compiled)
            except BaseException as exc:  # propagate to the caller
                with cond:
                    state["error"] = exc
                    cond.notify_all()
                return busy
            busy += time.perf_counter() - t0
            with cond:
                state["remaining"] -= 1
                state["in_flight"] -= 1
                graph.complete(nid, npred, ready.append)
                if (
                    ready
                    or state["remaining"] == 0
                    or state["in_flight"] == 0
                ):
                    cond.notify_all()

    def worker() -> float:
        try:
            return _worker_loop()
        except BaseException as exc:
            # A crash in the loop's own bookkeeping (not a kernel error —
            # the loop handles those): record it and wake the peers, or
            # they would wait forever on a notify that never comes.
            with cond:
                if state["error"] is None:
                    state["error"] = exc
                cond.notify_all()
            raise

    pool = acquire_pool(n_workers)
    t0 = time.perf_counter()
    try:
        busy = sum(join_all([pool.submit(worker) for _ in range(n_workers)]))
    finally:
        release_pool(pool)
    wall = time.perf_counter() - t0
    if state["error"] is not None:
        raise state["error"]
    return ExecStats(
        executor="dag",
        n_workers=n_workers,
        base_cases=graph.n_tasks,
        wall_time=wall,
        busy_time=busy,
    )
