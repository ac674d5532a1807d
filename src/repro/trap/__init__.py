"""Trapezoidal decomposition: zoids, cuts, walkers, plans and executors.

This package implements Section 3 of the paper:

* :mod:`repro.trap.zoid` — (d+1)-dimensional space-time hypertrapezoids
  ("zoids"), their projection trapezoids, widths and well-definedness.
* :mod:`repro.trap.cuts` — parallel space cuts (trisection), the circular
  cut used for dimensions that wrap the whole torus, hyperspace cuts with
  Lemma-1 dependency levels, and time cuts.
* :mod:`repro.trap.walker` — the recursive TRAP decomposition (hyperspace
  cuts) and the STRAP variant (serial space cuts) that Figure 9 compares.
* :mod:`repro.trap.plan` — the flat plan-event stream (Seq/Par brackets
  around base regions), the one plan representation, plus Lemma 1's
  wave linearization (the analysis model behind the schedule
  simulators).
* :mod:`repro.trap.graph` — dependency-counted task DAGs built
  incrementally from the event stream (predecessor counts + successor
  lists, with join-node edge contraction).
* :mod:`repro.trap.loops` — the LOOPS baseline of Figure 1.
* :mod:`repro.trap.executor` — serial (streaming) and ready-queue
  task-DAG plan execution over a shared worker pool.
* :mod:`repro.trap.driver` — glue from a language-level Problem to a
  compiled, decomposed, executed run.
"""

from repro.trap.zoid import Zoid, full_grid_zoid
from repro.trap.cuts import CutDecision, choose_cut
from repro.trap.walker import WalkOptions, WalkSpec, decompose_events, walk_spec_for
from repro.trap.plan import BaseRegion, linearize_waves
from repro.trap.graph import TaskGraph, TaskGraphBuilder, build_task_graph
from repro.trap.loops import run_loops
from repro.trap.executor import (
    acquire_pool,
    execute_dag,
    release_pool,
    shutdown_pool,
)
from repro.trap.driver import execute_problem

__all__ = [
    "BaseRegion",
    "CutDecision",
    "TaskGraph",
    "TaskGraphBuilder",
    "WalkOptions",
    "WalkSpec",
    "Zoid",
    "acquire_pool",
    "build_task_graph",
    "choose_cut",
    "decompose_events",
    "execute_dag",
    "execute_problem",
    "full_grid_zoid",
    "linearize_waves",
    "release_pool",
    "run_loops",
    "shutdown_pool",
    "walk_spec_for",
]
