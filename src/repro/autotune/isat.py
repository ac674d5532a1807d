"""ISAT-style autotuning of the base-case coarsening and dispatch space.

The paper: "Since choosing the optimal size of the base case can be
difficult, we integrated the ISAT autotuner into Pochoir … this autotuning
process can take hours", hence the shipped heuristics.  This module
reproduces the autotuner's role at laptop scale with two searches, both
one memoized coordinate descent (:func:`_descent`) over different axes:

* :func:`tune_coarsening` — the (space threshold, time threshold) grid,
  each candidate evaluated by timing a real TRAP run of a small
  representative problem.
* :func:`tune_dispatch` — the *full* dispatch space: per-dimension space
  thresholds, the dt threshold, the codegen mode, the compiled walk's
  thread count, the worker count and the executor.  Its result is a
  :class:`~repro.autotune.registry.TunedConfig`, ready to persist in the
  on-disk registry and to run under via ``TunedConfig.as_options()``.
  Leaf fusion and the compiled walk are not axes: the run always takes
  them where the backend has them.

The memo matters: coordinate descent revisits the incumbent on every
sweep, and re-timing it would waste most of the budget, so a tune costs
tens of runs, not hours.  Both searches run offline, as the paper's did:
no run consults a tuner or its results unless its caller passes them in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.autotune.registry import TunedConfig
from repro.errors import AutotuneError
from repro.language.kernel import Kernel
from repro.language.stencil import EXECUTORS, RunOptions, Stencil


class _Memo:
    """Evaluation cache shared by both searches.

    ``visits`` counts every requested evaluation, ``unique`` only the
    ones actually run; the gap is what memoization saved (asserted by
    the unit tests — the incumbent is revisited on every sweep).
    """

    def __init__(self, run: Callable[[tuple], float]):
        self._run = run
        self._timings: dict[tuple, float] = {}
        self.visits = 0

    def __call__(self, key: tuple) -> float:
        self.visits += 1
        t = self._timings.get(key)
        if t is None:
            t = self._run(key)
            self._timings[key] = t
        return t

    @property
    def unique(self) -> int:
        return len(self._timings)


def _descent(
    evaluate: _Memo,
    start: dict,
    axes: list[tuple[str, Sequence]],
    max_sweeps: int,
) -> tuple[dict, float]:
    """Generic coordinate descent: sweep each axis, keep improvements,
    stop when a full sweep changes nothing.  ``start`` is always
    evaluated first, so the heuristic default can never lose to noise
    without being measured."""
    config = dict(start)

    def key(cfg: dict) -> tuple:
        return tuple(cfg[name] for name, _ in axes)

    best_time = evaluate(key(config))
    for _ in range(max_sweeps):
        improved = False
        for name, candidates in axes:
            for cand in candidates:
                trial = {**config, name: cand}
                t = evaluate(key(trial))
                if t < best_time:
                    best_time, config, improved = t, trial, True
        if not improved:
            break
    return config, best_time


@dataclass
class CoarseningResult:
    """Outcome of a coarsening tune.

    ``evaluations`` counts distinct configurations actually timed;
    ``visits`` counts all evaluation requests (the surplus was served
    from the memo, not re-run).
    """

    space_threshold: int
    dt_threshold: int
    best_time: float
    evaluations: int
    history: list[tuple[int, int, float]]
    visits: int = 0

    def as_options(self, ndim: int, protect_unit_stride: bool | None = None):
        """WalkOptions-style kwargs for Stencil.run."""
        return {
            "space_thresholds": (self.space_threshold,) * ndim,
            "dt_threshold": self.dt_threshold,
            "protect_unit_stride": protect_unit_stride,
        }


def tune_coarsening(
    make_problem: Callable[[], tuple[Stencil, Kernel]],
    steps: int,
    *,
    space_candidates: Sequence[int] = (16, 32, 64, 128, 256),
    dt_candidates: Sequence[int] = (2, 4, 8, 16, 32),
    mode: str = "auto",
    repeats: int = 1,
    max_sweeps: int = 3,
) -> CoarseningResult:
    """Coordinate-descent over (space, time) coarsening thresholds.

    ``make_problem`` must return a *fresh* (stencil, kernel) pair per call
    (runs mutate array state).  Starts from the middle of each candidate
    list and alternates sweeps over the two axes until a sweep makes no
    improvement.  Already-timed points (the incumbent, every sweep) are
    served from the memo, never re-run.
    """
    if not space_candidates or not dt_candidates:
        raise AutotuneError("candidate lists must be non-empty")

    history: list[tuple[int, int, float]] = []

    def run_point(key: tuple) -> float:
        space, dt = key
        best = float("inf")
        for _ in range(repeats):
            stencil, kernel = make_problem()
            ndim = stencil.ndim
            opts = RunOptions(
                algorithm="trap",
                mode=mode,
                space_thresholds=(space,) * ndim,
                dt_threshold=dt,
            )
            t0 = time.perf_counter()
            stencil.run(steps, kernel, opts)
            best = min(best, time.perf_counter() - t0)
        history.append((space, dt, best))
        return best

    evaluate = _Memo(run_point)
    axes = [("space", tuple(space_candidates)), ("dt", tuple(dt_candidates))]
    start = {name: cands[len(cands) // 2] for name, cands in axes}
    best, best_time = _descent(evaluate, start, axes, max_sweeps)

    return CoarseningResult(
        space_threshold=best["space"],
        dt_threshold=best["dt"],
        best_time=best_time,
        evaluations=evaluate.unique,
        history=history,
        visits=evaluate.visits,
    )


# -- the full dispatch space ---------------------------------------------------


@dataclass
class DispatchResult:
    """Outcome of a full dispatch-space tune.

    ``config`` is directly storable in the registry; ``history`` pairs
    each *timed* configuration with its wall time, in evaluation order.
    """

    config: TunedConfig
    best_time: float
    evaluations: int
    visits: int
    history: list[tuple[TunedConfig, float]]


def _geometric_candidates(center: int, *, floor: int = 1) -> tuple[int, ...]:
    """A log grid around a heuristic default: {c/2, c, 2c} clamped."""
    return tuple(sorted({max(floor, center // 2), center, center * 2}))


def tune_dispatch(
    make_problem: Callable[[], tuple[Stencil, Kernel]],
    steps: int,
    *,
    modes: Sequence[str] | None = None,
    space_candidates: Sequence[int] | None = None,
    dt_candidates: Sequence[int] | None = None,
    worker_candidates: Sequence[int | None] | None = None,
    wthreads_candidates: Sequence[int | None] | None = None,
    executor_candidates: Sequence[str | None] = (None,),
    repeats: int = 1,
    max_sweeps: int = 2,
    algorithm: str = "trap",
) -> DispatchResult:
    """Coordinate descent over the full dispatch space.

    Axes: codegen mode, each dimension's space threshold (independently —
    unlike :func:`tune_coarsening`'s single shared threshold), the dt
    threshold, ``walk_threads`` (``None`` = auto: the detected core
    count for the compiled walk's in-.so pthread pool, vs pinned serial —
    in-walk threads compete with DAG workers for the same cores, so the
    right split is workload-dependent and worth measuring),
    ``n_workers``, and ``executor`` (``None`` = the run's auto rule;
    include ``"procs"`` in ``executor_candidates`` to measure whether
    supervised out-of-process execution pays for its shared-memory and
    dispatch overhead on this workload — by default the axis is a
    single ``None`` so the search spends nothing on it).  Defaults
    derive from the backend-aware heuristics
    (a log grid around each default), and the descent *starts at* the
    heuristic configuration, so the tuned result can only match or beat
    it on the tuning workload.  ``algorithm`` selects the walk algorithm
    every candidate is timed under — a config destined for STRAP runs
    must be tuned by timing STRAP, not TRAP.
    """
    from repro.compiler.pipeline import available_modes, resolve_mode
    from repro.trap.coarsening import (
        default_dt_threshold,
        default_space_thresholds,
    )
    from repro.util import detect_cpu_count

    probe_stencil, _ = make_problem()
    ndim = probe_stencil.ndim
    sizes = probe_stencil.sizes

    if modes is None:
        modes = tuple(m for m in available_modes() if m != "auto" and m != "interp")
    if not modes:
        raise AutotuneError("no codegen modes to tune over")
    start_mode = resolve_mode("auto") if resolve_mode("auto") in modes else modes[0]

    default_space = default_space_thresholds(ndim, sizes, start_mode)
    default_dt = default_dt_threshold(ndim, start_mode)
    if dt_candidates is None:
        dt_candidates = _geometric_candidates(default_dt)

    axes: list[tuple[str, Sequence]] = [("mode", tuple(modes))]
    start: dict = {"mode": start_mode}
    for i in range(ndim):
        cands = (
            tuple(space_candidates)
            if space_candidates is not None
            else _geometric_candidates(default_space[i], floor=2)
        )
        axes.append((f"space{i}", cands))
        start[f"space{i}"] = (
            default_space[i] if default_space[i] in cands else cands[len(cands) // 2]
        )
    axes.append(("dt", tuple(dt_candidates)))
    start["dt"] = default_dt if default_dt in dt_candidates else dt_candidates[0]
    if wthreads_candidates is None:
        # None = auto (detected core count), 1 = the walk without a pool; on
        # multi-core hosts both deserve a timing, on single-core they
        # coincide so one candidate suffices.
        wthreads_candidates = (None, 1) if detect_cpu_count() > 1 else (None,)
    axes.append(("wthreads", tuple(wthreads_candidates)))
    start["wthreads"] = wthreads_candidates[0]
    if worker_candidates is None:
        cpus = detect_cpu_count()
        worker_candidates = tuple(sorted({1, min(4, cpus), cpus}))
    axes.append(("workers", tuple(worker_candidates)))
    start["workers"] = worker_candidates[0]
    for cand in executor_candidates:
        if cand is not None and cand not in EXECUTORS:
            raise AutotuneError(f"unknown executor candidate {cand!r}")
    axes.append(("executor", tuple(executor_candidates)))
    start["executor"] = executor_candidates[0]

    history: list[tuple[TunedConfig, float]] = []

    def config_of(key: tuple) -> TunedConfig:
        cfg = dict(zip((name for name, _ in axes), key))
        return TunedConfig(
            space_thresholds=tuple(cfg[f"space{i}"] for i in range(ndim)),
            dt_threshold=cfg["dt"],
            mode=cfg["mode"],
            n_workers=cfg["workers"],
            walk_threads=cfg["wthreads"],
            executor=cfg["executor"],
        )

    def run_point(key: tuple) -> float:
        config = config_of(key)
        best = float("inf")
        for _ in range(repeats):
            stencil, kernel = make_problem()
            opts = RunOptions(
                algorithm=algorithm,
                mode=config.mode,
                space_thresholds=config.space_thresholds,
                dt_threshold=config.dt_threshold,
                executor=config.executor or "auto",
                n_workers=config.n_workers,
                walk_threads=config.walk_threads,
            )
            t0 = time.perf_counter()
            stencil.run(steps, kernel, opts)
            best = min(best, time.perf_counter() - t0)
        history.append((config, best))
        return best

    evaluate = _Memo(run_point)
    best_cfg, best_time = _descent(evaluate, start, axes, max_sweeps)
    key = tuple(best_cfg[name] for name, _ in axes)
    config = replace(
        config_of(key),
        best_time=best_time,
        evaluations=evaluate.unique,
        tuned_unix_time=time.time(),
    )
    return DispatchResult(
        config=config,
        best_time=best_time,
        evaluations=evaluate.unique,
        visits=evaluate.visits,
        history=history,
    )
