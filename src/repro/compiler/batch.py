"""Batched compilation: K same-signature problems as one compiled kernel.

A server receiving many small same-shape jobs should not pay K Python
dispatches per region — it should run one compiled call whose innermost
loop runs over the jobs.  Every ``c`` and ``split_pointer`` clone already
has that loop (a local run is simply a batch of one), so this module
only stacks the jobs and binds the same clones to the stack.  The three
pieces the driver's :func:`repro.trap.driver.execute_batch` composes:

* :func:`stack_problems` — validate that the jobs are batchable (same
  problem signature, same time range) and copy each job's arrays into
  one contiguous stacked buffer per array name, ``(nb, slots, *sizes)``,
  whose slab ``[b]`` has exactly the single-job layout.  A stack of one
  is made of views of the job's own arrays: nothing is copied;
* :func:`compile_batch_kernel` — bind the template job's clones to the
  stack through :func:`repro.compiler.pipeline.bind_kernel`, the path
  ``compile_kernel`` takes with a stack of one, packaged as an ordinary
  :class:`~repro.compiler.pipeline.CompiledKernel` — so the existing
  event-stream executor runs a whole batch without knowing it;
* :func:`scatter_results` — copy the stacked slabs back into each job's
  own arrays after the run (nothing to do for views).

Bitwise contract: every clone runs the jobs in index order with the
single-job instruction sequence per slab (the C entry points call the
same ``static`` body with offset base pointers; the NumPy clones rebind
``D_``/``C_`` names inside the job loop).  Batched results are therefore
bitwise identical to running each job alone, and the serve tests pin
that across apps and backends.

Batched kernels are deliberately *not* cached: they close over the
per-request stacked buffers.  The expensive artifact — the loaded C
library — is shared with every other compile of the kernel in the
process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import CompileError, SpecificationError
from repro.compiler import codegen_numpy
from repro.compiler.frontend import KernelIR, build_ir
from repro.compiler.pipeline import CompiledKernel, bind_kernel, resolve_mode
from repro.language.stencil import Problem
from repro.resilience import degradations


@dataclass
class BatchStack:
    """K stacked jobs ready for batched compilation/execution."""

    problems: list[Problem]
    #: array name -> (nb, slots, *sizes), C-contiguous.
    stacked: dict[str, np.ndarray]
    #: const array name -> (nb, *sizes).
    stacked_consts: dict[str, np.ndarray]

    @property
    def nb(self) -> int:
        return len(self.problems)


def batch_signature(problem: Problem) -> tuple:
    """What must match for two jobs to share one batched kernel: the
    tuning/codegen signature plus the time range (one decomposition
    serves every job, so the trapezoid geometry must be identical)."""
    from repro.autotune.registry import problem_signature

    return (problem_signature(problem), problem.t_start, problem.t_end)


def stack_problems(problems: list[Problem]) -> BatchStack:
    """Validate batchability and stack every job's data.

    Raises :class:`SpecificationError` when the jobs disagree on
    signature or time range — batching is only ever attempted on groups
    the admission layer already keyed by :func:`batch_signature`, so a
    mismatch here is a caller bug, not a degradation.
    """
    if not problems:
        raise SpecificationError("stack_problems needs at least one problem")
    template = problems[0]
    if len(problems) == 1:
        return BatchStack(
            [template],
            {name: arr.data[None] for name, arr in template.arrays.items()},
            {name: c.values[None] for name, c in template.const_arrays.items()},
        )
    key = batch_signature(template)
    for p in problems[1:]:
        if batch_signature(p) != key:
            raise SpecificationError(
                "batched problems must share signature and time range"
            )
    nb = len(problems)
    stacked: dict[str, np.ndarray] = {}
    for name, arr in template.arrays.items():
        buf = np.empty((nb,) + arr.data.shape, dtype=np.float64)
        for b, p in enumerate(problems):
            buf[b] = p.arrays[name].data
        stacked[name] = buf
    stacked_consts: dict[str, np.ndarray] = {}
    for name, c in template.const_arrays.items():
        stacked_consts[name] = np.stack(
            [np.asarray(p.const_arrays[name].values) for p in problems]
        )
    return BatchStack(list(problems), stacked, stacked_consts)


def scatter_results(stack: BatchStack) -> None:
    """Copy each job's slab back into its own arrays after the run; a
    slab that is a view of the job's array is already in place."""
    for name, buf in stack.stacked.items():
        for b, p in enumerate(stack.problems):
            dst = p.arrays[name].data
            if not np.may_share_memory(buf[b], dst):
                dst[...] = buf[b]


def _batchable_ir(ir: KernelIR) -> None:
    for arr in ir.arrays.values():
        if not codegen_numpy.is_vectorizable_boundary(arr.boundary):
            raise CompileError(
                f"array {arr.name!r} uses a non-vectorizable boundary; "
                f"batched clones cannot express it — run the jobs unbatched"
            )


def compile_batch_kernel(stack: BatchStack, mode: str = "auto") -> CompiledKernel:
    """Bind the template job's clones to the stack.

    ``"c"`` degrades to NumPy on any compile failure (with the usual
    ``cc:compile-failed->split_pointer`` note); modes without stacked
    clones (``interp``/``macro_shadow``) and non-vectorizable boundaries
    raise :class:`CompileError` — callers run those jobs unbatched
    instead.  The kernel carries the serial compiled walk only: the jobs
    of a call run one after another, and batches do not use the walk's
    thread pool.
    """
    resolved = resolve_mode(mode)
    if resolved not in ("c", "split_pointer"):
        raise CompileError(f"mode {resolved!r} cannot run batched")
    ir = build_ir(stack.problems[0])
    _batchable_ir(ir)
    buffers = (stack.stacked, stack.stacked_consts, stack.nb)
    if resolved == "c":
        try:
            compiled = bind_kernel(ir, "c", *buffers)
            return replace(compiled, walk_par=None, walk_stats=None)
        except CompileError:
            degradations.note("cc:compile-failed->split_pointer")
    return bind_kernel(ir, "split_pointer", *buffers)
