"""Batched compilation: K same-signature problems as one compiled kernel.

A server receiving many small same-shape jobs should not pay K Python
dispatches per region — it should run one compiled call whose innermost
loop runs over the jobs.  Every ``c`` and ``split_pointer`` clone already
has that loop (a local run is simply a batch of one), so this module
only stacks the jobs and binds the same clones to the stack.  The
pieces :func:`repro.trap.driver.execute_problem` composes for a group of
K > 1 jobs:

* :func:`can_stack` — the one stack-or-not rule, asked on the options
  the run will actually use; a group it refuses runs one job at a time;
* :func:`stack_problems` — validate that the jobs are batchable (same
  problem signature, same time range) and copy each job's arrays into
  one contiguous stacked buffer per array name, ``(nb, slots, *sizes)``,
  whose slab ``[b]`` has exactly the single-job layout.  A stack of one
  is made of views of the job's own arrays: nothing is copied;
* :func:`compile_batch_kernel` — bind the template job's clones to the
  stack through :func:`repro.compiler.pipeline.bind_kernel`, the path
  ``compile_kernel`` takes with a stack of one, packaged as an ordinary
  :class:`~repro.compiler.pipeline.CompiledKernel` — so the executors,
  the compiled walk and its thread pool run a whole batch without
  knowing it;
* :func:`scatter_results` — copy the stacked slabs back into each job's
  own arrays after the run (nothing to do for views).

Bitwise contract: every clone runs the jobs in index order with the
single-job instruction sequence per slab (the C entry points call the
same ``static`` body with offset base pointers; the NumPy clones rebind
``D_``/``C_`` names inside the job loop).  Batched results are therefore
bitwise identical to running each job alone, and the serve tests pin
that across apps and backends.

Batched kernels are not cached (no kernel is): they close over the
per-request stacked buffers.  The expensive artifact — the loaded C
library or the NumPy clones' compiled code — is shared with every other
compile of the kernel in the process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SpecificationError
from repro.compiler.frontend import boundaries_expressible, build_ir
from repro.compiler.pipeline import (
    CompiledKernel,
    bind_kernel,
    with_numpy_fallback,
)
from repro.language.array import stack_grids
from repro.language.stencil import Problem, RunOptions, problem_signature


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
    problem signature (the template's generated code, boundary values
    included, must be every job's) plus the time range (one decomposition
    serves every job, so the trapezoid geometry must be identical)."""
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
    if len(problems) > 1:
        key = batch_signature(template)
        if any(batch_signature(p) != key for p in problems[1:]):
            raise SpecificationError(
                "batched problems must share signature and time range"
            )
    stacked = {
        name: stack_grids([p.arrays[name] for p in problems])
        for name in template.arrays
    }
    stacked_consts = {}
    for name, c in template.const_arrays.items():
        values = [p.const_arrays[name].values for p in problems]
        stacked_consts[name] = c.values[None] if len(values) == 1 else np.stack(values)
    return BatchStack(list(problems), stacked, stacked_consts)


def scatter_results(stack: BatchStack) -> None:
    """Copy each job's slab back into its own arrays after the run; a
    slab that is a view of the job's array is already in place."""
    for name, buf in stack.stacked.items():
        for b, p in enumerate(stack.problems):
            arr = p.arrays[name]
            if not np.may_share_memory(buf[b], arr.data):
                arr.load(buf[b])


def can_stack(problem: Problem, options: RunOptions) -> bool:
    """Whether K jobs of ``problem``'s signature run as one stack under
    the run's ``options``: every boundary kind is expressible by the
    backends (the per-point boundary clone has no stacked form), and the
    executor runs in process (``procs`` may rebind the arrays to shared
    memory, and a stack of copies would then scatter stale data).  Every
    mode has stacked clones.  A group that fails it runs one job at a
    time."""
    return (
        boundaries_expressible(problem.arrays.values())
        and options.resolve_executor()[0] != "procs"
    )


def compile_batch_kernel(stack: BatchStack, mode: str = "auto") -> CompiledKernel:
    """Bind the template job's clones to the stack.

    For groups :func:`can_stack` admits.  ``"c"`` degrades to NumPy on
    any compile failure through the same rung as a lone job
    (:func:`~repro.compiler.pipeline.with_numpy_fallback`).  The kernel
    carries every clone a lone job's kernel has, the walk and its thread
    count included: each call runs the jobs one after another.
    """
    ir = build_ir(stack.problems[0])
    buffers = (stack.stacked, stack.stacked_consts, stack.nb)
    return with_numpy_fallback(mode, lambda m: bind_kernel(ir, m, *buffers))
