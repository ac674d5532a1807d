"""Greedy P-processor schedule simulation over decomposition plans.

The paper's Figure 3 reports 12-core wall times from a work-stealing Cilk
runtime.  On a host without 12 cores we *simulate* the schedule instead:

* :func:`brent_time` — the classic greedy-scheduler bound
  ``T_P <= T1/P + T_inf``, evaluated from measured 1-core time and the
  analyzer's work/span ratio.
* :func:`simulate_greedy` — list-schedules the actual base-case regions
  of a plan (a materialized event list), wave by wave (waves are the
  dependency-safe fronts of Lemma 1), yielding a tighter estimate that accounts for load imbalance
  among unequal zoids — the effect the paper mentions when scheduling 8
  threads on 12 cores for the Berkeley comparison.
* :func:`simulate_dag` — list-schedules the *true* task DAG
  (:mod:`repro.trap.graph`) with no inter-wave barriers, prioritizing
  the longest remaining critical path.  The gap between this and
  :func:`simulate_greedy` is the barrier-removal win the DAG executor
  realizes — the Figure-9-style analysis for the task-DAG runtime.

All are *models*, clearly labeled as such in the benchmark output; the
threaded executors provide real parallel execution.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Sequence

from repro.errors import ExecutionError
from repro.trap.graph import TaskGraph, critical_path_lengths
from repro.trap.plan import PlanEvent, linearize_waves


def brent_time(t1: float, work: float, span: float, processors: int) -> float:
    """Greedy-scheduler completion-time bound scaled to measured T1.

    ``t1`` is the measured serial wall time; ``work``/``span`` come from
    the work/span analyzer in abstract units.  The bound is
    ``T_P <= T1/P + T_inf`` with ``T_inf = t1 * span / work``.
    """
    if processors < 1:
        raise ExecutionError(f"processors must be >= 1, got {processors}")
    if work <= 0:
        return 0.0
    t_inf = t1 * (span / work)
    return t1 / processors + t_inf


def simulate_greedy(events: Sequence[PlanEvent], processors: int) -> float:
    """Makespan (in grid-point units) of list-scheduling the plan's base
    regions onto ``processors`` workers, wave by wave.

    Within each wave, regions are assigned longest-processing-time-first
    onto the least-loaded worker; waves are separated by barriers, the
    execution model of :func:`repro.trap.plan.linearize_waves`.
    """
    if processors < 1:
        raise ExecutionError(f"processors must be >= 1, got {processors}")
    total = 0.0
    for wave in linearize_waves(events):
        costs = sorted((float(r.volume()) for r in wave), reverse=True)
        if not costs:
            continue
        if processors == 1:
            total += sum(costs)
            continue
        loads = [0.0] * min(processors, len(costs))
        heapq.heapify(loads)
        for c in costs:
            lightest = heapq.heappop(loads)
            heapq.heappush(loads, lightest + c)
        total += max(loads)
    return total


def simulated_speedup(events: Sequence[PlanEvent], processors: int) -> float:
    """T1 / T_P under the greedy wave schedule (unit per-point cost)."""
    t1 = simulate_greedy(events, 1)
    tp = simulate_greedy(events, processors)
    return t1 / tp if tp > 0 else 0.0


def _topological_depths(graph: TaskGraph) -> list[int]:
    """Longest edge-count distance from any source — the DAG-native
    analogue of a region's wave index (one forward pass; edges always
    point forward in node-id order)."""
    depth = [0] * len(graph.regions)
    for u in range(len(graph.regions)):
        du = depth[u] + 1
        for v in graph.succs[u]:
            if du > depth[v]:
                depth[v] = du
    return depth


def _list_schedule(graph: TaskGraph, priority: list, processors: int) -> float:
    """Event-driven greedy list scheduling of a task DAG: whenever a
    worker is free and tasks are ready, the ready task with the smallest
    priority key starts immediately; zero-cost join nodes propagate the
    instant their predecessors finish."""
    npred = list(graph.npred)
    regions = graph.regions

    ready: list[tuple] = []  # (priority key, node id)
    running: list[tuple[float, int, int]] = []  # (finish time, seq, node id)
    seq = count()

    def push(nid: int) -> None:
        heapq.heappush(ready, (priority[nid], nid))

    graph.seed_ready(npred, push)

    now = 0.0
    free = processors
    while ready or running:
        while ready and free > 0:
            _, nid = heapq.heappop(ready)
            cost = float(regions[nid].volume())  # type: ignore[union-attr]
            heapq.heappush(running, (now + cost, next(seq), nid))
            free -= 1
        if not running:
            raise ExecutionError(
                "DAG simulation stalled with tasks pending (cyclic graph?)"
            )
        now, _, nid = heapq.heappop(running)
        free += 1
        graph.complete(nid, npred, push)
    return now


def simulate_dag(graph: TaskGraph, processors: int) -> float:
    """Makespan (in grid-point units) of list-scheduling the *true* task
    DAG onto ``processors`` workers — no inter-wave barriers.

    Two standard priority rules are tried and the better schedule is
    reported (a plain greedy scheduler is subject to Graham anomalies, so
    a single rule can lose to the barrier schedule by a hair):

    * *longest critical path first* — bottom levels from
      :func:`repro.trap.graph.critical_path_lengths`; exploits the freed
      overlap aggressively;
    * *shallowest-first, largest-first* — topological depth then LPT, the
      barrier-free analogue of the wave order.

    Compare against :func:`simulate_greedy` on the same plan to quantify
    what removing the barriers buys.
    """
    if processors < 1:
        raise ExecutionError(f"processors must be >= 1, got {processors}")
    bottom = critical_path_lengths(graph)
    lcp = [(-bottom[i],) for i in range(len(graph.regions))]
    depths = _topological_depths(graph)
    wavelike = [
        (
            depths[i],
            -(graph.regions[i].volume() if graph.regions[i] is not None else 0),
        )
        for i in range(len(graph.regions))
    ]
    return min(
        _list_schedule(graph, lcp, processors),
        _list_schedule(graph, wavelike, processors),
    )


def simulated_dag_speedup(graph: TaskGraph, processors: int) -> float:
    """T1 / T_P under the no-barrier DAG schedule (unit per-point cost)."""
    t1 = simulate_dag(graph, 1)
    tp = simulate_dag(graph, processors)
    return t1 / tp if tp > 0 else 0.0
