"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at laptop
scale (see DESIGN.md's experiment index).  Scale is selected with the
``REPRO_BENCH_SCALE`` environment variable (``small`` default, ``tiny``
for smoke runs); results print as paper-style tables so ``pytest
benchmarks/ --benchmark-only -s`` reproduces the evaluation narrative.
"""

from __future__ import annotations

import os
import time
from typing import Callable


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def is_tiny() -> bool:
    return bench_scale() == "tiny"


def once(benchmark, fn: Callable[[], object]):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Stencil runs mutate state and can take seconds; one round with no
    warmup is the honest measurement mode (matching how the paper times
    whole runs, not microkernels).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def wall(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def per_leaf_plan(problem):
    """The Section-4 cloning ablation's plan: per-leaf base regions only.

    The default ``c`` plan holds compiled-walk subtree tasks, which a
    kernel stripped of its fused clones runs through the Python replay,
    and which a region rebuilt as ``BaseRegion(ta, tb, dims,
    interior=False)`` runs as one whole-subtree boundary region.  Either
    way the ablation would not compare per-step clones, so this raises
    if the plan still holds one.
    """
    from repro.language.stencil import RunOptions
    from repro.trap.driver import build_plan
    from repro.trap.plan import plan_stats

    plan = build_plan(problem, RunOptions(algorithm="trap", compiled_walk=False))
    if plan_stats(plan).subtree_tasks:
        raise RuntimeError("the per-leaf plan holds a subtree task")
    return plan


def wall_clean(fn: Callable[[], object]) -> float:
    """:func:`wall`, raising if any degradation fired during the run (a
    fallback would time a different path than the one named)."""
    from repro.resilience import degradations

    fired: list[str] = []
    with degradations.collect(fired):
        elapsed = wall(fn)
    if fired:
        raise RuntimeError(f"the timed run degraded: {fired}")
    return elapsed


def machine_record() -> dict:
    """The machine fingerprint stamped into every benchmark record.

    CPU count and C toolchain identity are what make two timings
    comparable (or not): a 1-core container's flat worker sweep and a
    12-core host's scaling curve must never be read as the same
    machine's trajectory.  Mirrors the autotune registry's fingerprint
    components.
    """
    from repro.compiler.codegen_c import compiler_identity, find_c_compiler
    from repro.util import detect_cpu_count

    cc = find_c_compiler()
    return {
        "cpu_count": detect_cpu_count(),
        "compiler": compiler_identity(cc) if cc else "none",
    }


def write_bench_json(name: str, payload: dict) -> str:
    """Write ``BENCH_<name>.json`` at the repo root and return its path.

    The machine-readable record of a paper-figure sweep, so successive
    runs can be compared without re-parsing printed tables.  ``scale``, a timestamp, and the
    :func:`machine_record` fingerprint are stamped automatically; the
    payload should carry sizes/steps/timings.
    """
    import json

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, f"BENCH_{name}.json")
    record = {
        "bench": name,
        "scale": bench_scale(),
        "unix_time": round(time.time(), 1),
        "machine": machine_record(),
        **payload,
    }
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


__all__ = [
    "bench_scale",
    "is_tiny",
    "machine_record",
    "once",
    "per_leaf_plan",
    "wall",
    "wall_clean",
    "write_bench_json",
]
