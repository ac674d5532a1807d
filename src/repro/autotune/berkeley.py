"""A blocked-loop stencil autotuner: the Figure 5 comparator.

The Berkeley autotuner (Datta et al.) generates loop nests with tuned
cache blocking and picks the fastest configuration empirically.  Its code
is not redistributable, so per the substitution rule we built the closest
open equivalent: time-unblocked loop sweeps with spatial cache blocking
over the outer dimensions (never blocking the unit-stride dimension, as
their best configurations do), autotuned by exhaustive search over a
small power-of-two block grid.

What Figure 5 establishes — Pochoir's cache-oblivious code is in the same
throughput class as a tuned cache-*aware* loop nest on 3D 7-point and
27-point kernels — is exactly what this comparator lets the benchmark
check, with GStencil/s replaced by points/s on laptop-scale grids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from repro.errors import AutotuneError
from repro.language.kernel import Kernel
from repro.language.stencil import RunOptions, Stencil


@dataclass
class BlockedLoopResult:
    """Best blocking found and its throughput."""

    block: tuple[int, ...]
    best_time: float
    points_per_second: float
    configurations_tried: int
    history: list[tuple[tuple[int, ...], float]]


def run_blocked_loops(
    stencil: Stencil,
    steps: int,
    kernel: Kernel,
    block: tuple[int, ...],
    *,
    mode: str = "auto",
) -> None:
    """One blocked sweep execution: per step, visit spatial blocks.

    Implemented by running the loop baseline over sub-boxes: each time
    step applies the compiled interior clone block by block and the
    boundary clone on the shell — the same code generation as everything
    else, so the comparison isolates the *traversal* policy.
    """
    from repro.compiler.pipeline import compile_kernel
    from repro.trap.loops import _shell_boxes

    problem = stencil.prepare(steps, kernel)
    compiled = compile_kernel(problem, mode)
    sizes = problem.sizes
    d = problem.ndim
    ir = compiled.ir
    lo = tuple(max(0, -m) for m in ir.min_off)
    hi = tuple(min(n, n - M) for n, M in zip(sizes, ir.max_off))
    has_interior = all(l < h for l, h in zip(lo, hi))
    shells = _shell_boxes(sizes, lo, hi) if has_interior else [((0,) * d, sizes)]

    blocks: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if has_interior:
        per_dim: list[list[tuple[int, int]]] = []
        for i in range(d):
            b = max(1, block[i])
            spans = [
                (s, min(s + b, hi[i])) for s in range(lo[i], hi[i], b)
            ]
            per_dim.append(spans)
        for combo in product(*per_dim):
            blocks.append(
                (tuple(c[0] for c in combo), tuple(c[1] for c in combo))
            )

    for t in range(problem.t_start, problem.t_end):
        for b_lo, b_hi in blocks:
            compiled.interior(t, b_lo, b_hi)
        for s_lo, s_hi in shells:
            compiled.boundary(t, s_lo, s_hi)
    stencil.advance_cursor(problem)


def tune_blocked_loops(
    make_problem: Callable[[], tuple[Stencil, Kernel]],
    steps: int,
    *,
    block_candidates: Sequence[int] = (8, 16, 32, 64),
    mode: str = "auto",
) -> BlockedLoopResult:
    """Exhaustively search outer-dimension block sizes; unit-stride
    dimension is never blocked (kept full width)."""
    if not block_candidates:
        raise AutotuneError("block_candidates must be non-empty")

    stencil, _ = make_problem()
    d = stencil.ndim
    outer_dims = max(1, d - 1) if d > 1 else 0

    history: list[tuple[tuple[int, ...], float]] = []
    best_block: tuple[int, ...] | None = None
    best_time = float("inf")

    if outer_dims == 0:
        candidates: list[tuple[int, ...]] = [(1 << 30,)]
    else:
        candidates = [
            tuple(combo) + ((1 << 30),)
            for combo in product(block_candidates, repeat=outer_dims)
        ]

    total_points = 0
    for block in candidates:
        st, kern = make_problem()
        n = 1
        for s in st.sizes:
            n *= s
        total_points = n * steps
        t0 = time.perf_counter()
        run_blocked_loops(st, steps, kern, block, mode=mode)
        elapsed = time.perf_counter() - t0
        history.append((block, elapsed))
        if elapsed < best_time:
            best_time, best_block = elapsed, block

    assert best_block is not None
    return BlockedLoopResult(
        block=best_block,
        best_time=best_time,
        points_per_second=total_points / best_time if best_time > 0 else 0.0,
        configurations_tried=len(candidates),
        history=history,
    )
