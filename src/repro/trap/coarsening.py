"""Base-case coarsening heuristics (Section 4 of the paper).

The paper reports a 36x swing between uncoarsened recursion and a
well-chosen base case, and describes Pochoir's heuristics: for 2D stop at
100x100 space chunks with 5 time steps; for 3D and up never cut the
unit-stride dimension and stop at small blocks (1000x3x3 with 3 steps).
Both tables here keep the first rule literally: for 3D and up the
default unit-stride threshold is :data:`NEVER_CUT`.

Those constants are tuned for compiled C++ where per-point cost is a few
nanoseconds.  Our compiled kernels are NumPy slice operations (or C calls)
whose per-*invocation* overhead is far larger, so the same principle —
make the base case big enough to amortize recursion/dispatch overhead,
small enough to stay cache-resident — lands on larger defaults.  The
paper's exact constants remain available via :func:`paper_thresholds` and
are exercised by the coarsening ablation benchmark; the ISAT-style
autotuner (:mod:`repro.autotune.isat`) searches around either default.

The current defaults were retuned (bench_sec4_coarsening and a
fused-vs-per-step ablation on 2D heat at 256^2..1024^2; CHANGES.md, the
fused-leaf entry) after the fused leaf clones landed: fusion amortizes
per-step dispatch inside one generated call and assembles boundary halos
blockwise, which moves the optimum toward *larger* tiles and taller time
blocks than the per-step clones preferred (2D: 128^2 x 16 -> 256^2 x 24,
~1.4x end-to-end).

The thresholds are now *backend-aware* (``codegen_mode``): the fused C
leaves pay roughly one microsecond of ctypes dispatch per base case and
a few nanoseconds per point, so the optimum sits at markedly *smaller*
zoids than the NumPy leaves want — small enough to stay cache-resident
and to hand the task-DAG runtime real parallelism, large enough that the
Python-side walker/plan overhead stays amortized (2D heat at
512^2 x 64: 128^2 x 16 beats the NumPy-tuned 256^2 x 24 tiles;
CHANGES.md, the fused-C-leaf entry).
"""

from __future__ import annotations

from typing import Sequence

#: Threshold sentinel for a dimension the walker must never cut.  Large
#: enough that no width exceeds it, small enough to fit a C ``i64``
#: argument.
NEVER_CUT = 1 << 62

#: Default per-dimension space thresholds by dimensionality: outer
#: dimensions small, and for >= 3D the last (unit-stride) dimension
#: :data:`NEVER_CUT` (the paper's "never cut the unit-stride dimension").
_DEFAULT_SPACE: dict[int, tuple[int, ...]] = {
    1: (4096,),
    2: (256, 256),
    3: (32, 32, NEVER_CUT),
    4: (8, 8, 8, NEVER_CUT),
}

_DEFAULT_DT: dict[int, int] = {1: 64, 2: 24, 3: 8, 4: 4}

#: The C backend's defaults: cheaper leaves want smaller, cache-resident
#: zoids (and the extra base cases feed the DAG runtime's parallelism).
_C_SPACE: dict[int, tuple[int, ...]] = {
    1: (2048,),
    2: (128, 128),
    3: (16, 16, NEVER_CUT),
    4: (6, 6, 6, NEVER_CUT),
}

_C_DT: dict[int, int] = {1: 32, 2: 16, 3: 6, 4: 3}


def default_space_thresholds(
    ndim: int, sizes: Sequence[int], codegen_mode: str | None = None
) -> tuple[int, ...]:
    """Per-dimension coarsening thresholds (see module docstring).

    ``codegen_mode`` selects the table tuned for the backend that will
    execute the base cases (``"c"`` vs the NumPy-leaf defaults); None or
    an unknown mode keeps the NumPy-tuned defaults.  For ``ndim >= 3``
    the unit-stride (last) threshold is :data:`NEVER_CUT`, unclamped.
    """
    space = _C_SPACE if codegen_mode == "c" else _DEFAULT_SPACE
    if ndim in space:
        base = space[ndim]
    else:
        base = (4,) * (ndim - 1) + (NEVER_CUT,)
    # Never make a threshold smaller than needed to terminate: a threshold
    # of at least 2*slope*dt always exists once the width stops being
    # cuttable, and the recursion terminates regardless, but clamping to
    # the grid keeps tiny problems from decomposing at all.
    return tuple(
        t if t == NEVER_CUT else min(t, max(4, s)) for t, s in zip(base, sizes)
    )


def default_dt_threshold(ndim: int, codegen_mode: str | None = None) -> int:
    dt = _C_DT if codegen_mode == "c" else _DEFAULT_DT
    return dt.get(ndim, 3)


def paper_thresholds(ndim: int) -> tuple[tuple[int, ...], int]:
    """The paper's published heuristics, verbatim.

    2D: 100x100 space chunks, 5 time steps.  3D: 1000 along unit stride,
    3x3 outer, 3 time steps.  Other dimensionalities interpolate in the
    same spirit (wide unit-stride, tiny outer dims).
    """
    if ndim == 1:
        return (1000,), 5
    if ndim == 2:
        return (100, 100), 5
    if ndim == 3:
        return (3, 3, 1000), 3
    return (3,) * (ndim - 1) + (1000,), 3


def uncoarsened(ndim: int) -> tuple[tuple[int, ...], int]:
    """Thresholds for recursion all the way down (Figures 9/10 measure
    the algorithms without coarsening): every width cuttable, dt to 1."""
    return (0,) * ndim, 1
