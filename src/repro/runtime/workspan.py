"""Exact work/span analysis of TRAP/STRAP decompositions (Cilkview analogue).

Cilkview instruments a Cilk execution to report work T1 (total
instructions) and span T-infinity (critical path), whose ratio is the
*parallelism* plotted in Figure 9.  The decomposition DAG of TRAP/STRAP
is fully determined by the zoid geometry, so we compute T1 and T-infinity
analytically:

* **work** of a zoid is its space-time volume (each point costs one
  kernel application, the unit Cilkview would count up to a constant);
* **span** composes by the recursion: a base case contributes its volume
  (executed serially); a time cut sums its halves; a hyperspace cut sums
  over dependency levels the *maximum* child span per level (Lemma 1),
  plus a Theta(lg m) spawn burden per parallel step — the binary spawn
  tree of a parallel-for with m iterations, exactly the term the paper's
  Lemma 2 accounts as Theta(k^2) per cut.

Zoid geometry is translation-invariant, so results are memoized on
:meth:`repro.trap.zoid.Zoid.signature`; paper-scale grids (N = 6400,
T = 1000, uncoarsened) reduce to a few thousand distinct signatures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from repro.trap.cuts import choose_cut, time_cut_children
from repro.trap.walker import WalkOptions, default_options
from repro.trap.zoid import Zoid, full_grid_zoid


@dataclass(frozen=True)
class WorkSpan:
    """Work/span/parallelism of one decomposition (or loop nest)."""

    work: float
    span: float
    base_cases: int

    @property
    def parallelism(self) -> float:
        return self.work / self.span if self.span > 0 else 0.0

    def __repr__(self) -> str:
        return (
            f"WorkSpan(work={self.work:.4g}, span={self.span:.4g}, "
            f"parallelism={self.parallelism:.4g})"
        )


def _canonical(z: Zoid) -> Zoid:
    """Translate each dimension to xa = 0 (geometry is shift-invariant)."""
    return Zoid(
        0,
        z.height,
        tuple((0, xb - xa, dxa, dxb) for xa, xb, dxa, dxb in z.dims),
    )


def analyze_walk(
    sizes: Sequence[int],
    slopes: Sequence[int],
    height: int,
    *,
    algorithm: str = "trap",
    dt_threshold: int = 1,
    space_thresholds: Sequence[int] | None = None,
    spawn_unit: float = 1.0,
    node_unit: float = 1.0,
    base_unit: float = 1.0,
) -> WorkSpan:
    """Work/span of TRAP (``algorithm="trap"``) or STRAP (``"strap"``)
    on a ``sizes`` grid of ``height`` time steps.

    Defaults analyze the *uncoarsened* recursion, matching the paper's
    Figure 9 measurements ("without base-case coarsening").
    ``spawn_unit`` scales the lg-m parallel-for burden; ``node_unit`` the
    constant per recursion node; ``base_unit`` the per-point kernel cost.
    """
    ndim = len(sizes)
    if space_thresholds is None:
        space_thresholds = (0,) * ndim
    opts = default_options(
        ndim,
        sizes,
        dt_threshold=dt_threshold,
        space_thresholds=tuple(space_thresholds),
        hyperspace=(algorithm == "trap"),
    )
    sizes_t = tuple(int(s) for s in sizes)
    slopes_t = tuple(int(s) for s in slopes)

    memo: dict[tuple, tuple[float, float, int]] = {}

    # Deep decompositions (uncoarsened, large T) nest ~log2(T) time cuts
    # plus d*log2(N) space-cut levels; give the recursion headroom.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        work, span, bases = _analyze(
            _canonical(full_grid_zoid(0, height, sizes_t)),
            sizes_t,
            slopes_t,
            opts,
            memo,
            spawn_unit,
            node_unit,
            base_unit,
        )
    finally:
        sys.setrecursionlimit(limit)
    return WorkSpan(work=work, span=span, base_cases=bases)


def _analyze(
    z: Zoid,
    sizes: tuple[int, ...],
    slopes: tuple[int, ...],
    opts: WalkOptions,
    memo: dict,
    spawn_unit: float,
    node_unit: float,
    base_unit: float,
) -> tuple[float, float, int]:
    sig = z.signature()
    hit = memo.get(sig)
    if hit is not None:
        return hit
    decision = choose_cut(
        z,
        sizes=sizes,
        slopes=slopes,
        space_thresholds=opts.space_thresholds,
        dt_threshold=opts.dt_threshold,
        hyperspace=opts.hyperspace,
    )
    if decision.kind == "base":
        vol = z.volume() * base_unit
        result = (vol, vol, 1)
    elif decision.kind == "time":
        lower, upper = time_cut_children(z, decision.tm)
        w1, s1, b1 = _analyze(
            _canonical(lower), sizes, slopes, opts, memo,
            spawn_unit, node_unit, base_unit,
        )
        w2, s2, b2 = _analyze(
            _canonical(upper), sizes, slopes, opts, memo,
            spawn_unit, node_unit, base_unit,
        )
        result = (w1 + w2, s1 + s2 + node_unit, b1 + b2)
    else:
        work = 0.0
        span = node_unit
        bases = 0
        for level in decision.levels:
            level_span = 0.0
            for sub in level:
                w, s, b = _analyze(
                    _canonical(sub), sizes, slopes, opts, memo,
                    spawn_unit, node_unit, base_unit,
                )
                work += w
                bases += b
                level_span = max(level_span, s)
            burden = spawn_unit * math.ceil(math.log2(max(2, len(level))))
            span += level_span + burden
        result = (work, span, bases)
    memo[sig] = result
    return result


def analyze_loops(
    sizes: Sequence[int],
    height: int,
    *,
    grain: int = 1,
    spawn_unit: float = 1.0,
    base_unit: float = 1.0,
) -> WorkSpan:
    """Work/span of the parallel-loop algorithm (Figure 1).

    Each time step is a parallel-for over the outermost dimension (the
    paper parallelizes only the outer loop); the span per step is one
    chunk of rows (``grain``) times the inner volume plus the lg spawn
    burden, and steps are serial.
    """
    ndim = len(sizes)
    outer = int(sizes[0])
    inner = 1
    for s in sizes[1:]:
        inner *= int(s)
    per_step_work = outer * inner * base_unit
    iters = max(1, outer // max(1, grain))
    per_step_span = (
        grain * inner * base_unit
        + spawn_unit * math.ceil(math.log2(max(2, iters)))
    )
    work = per_step_work * height
    span = per_step_span * height
    return WorkSpan(work=work, span=span, base_cases=height * iters)
