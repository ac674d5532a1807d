"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConstantBoundary,
    Kernel,
    NeumannBoundary,
    PeriodicBoundary,
    PochoirArray,
    Stencil,
)
from repro.compiler.pipeline import available_modes


def has_c_backend() -> bool:
    return "c" in available_modes()


#: Concrete codegen modes to sweep in equivalence tests (C included when
#: a toolchain exists).  "auto" is excluded: it is an alias for one of
#: the concrete modes, not a distinct backend.
ALL_MODES = [m for m in available_modes() if m != "auto"]

BOUNDARY_FACTORIES = {
    "periodic": PeriodicBoundary,
    "neumann": NeumannBoundary,
    "dirichlet": lambda: ConstantBoundary(1.25),
}


def make_heat_problem(
    sizes: tuple[int, ...],
    *,
    boundary: str = "periodic",
    seed: int = 0,
    alpha: float = 0.1,
):
    """A fresh d-dimensional heat stencil with random initial data."""
    from repro.apps.heat import heat_kernel, heat_shape

    ndim = len(sizes)
    u = PochoirArray("u", sizes).register_boundary(BOUNDARY_FACTORIES[boundary]())
    st = Stencil(ndim, heat_shape(ndim))
    st.register_array(u)
    kern = heat_kernel(u, (alpha,) * ndim)
    u.set_initial(np.random.default_rng(seed).random(sizes))
    return st, u, kern


def run_per_step(stencil, steps, kernel, **options):
    """The per-step reference run: compile, strip the fused clones
    (``CompiledKernel.without_fused_leaves``), and stream a per-leaf
    plan serially through the per-step clones.  Advances the stencil
    exactly as ``Stencil.run`` would."""
    from repro.compiler.pipeline import compile_kernel
    from repro.language.stencil import RunOptions
    from repro.trap.driver import build_events
    from repro.trap.executor import execute_serial_stream

    opts = RunOptions(compiled_walk=False, **options)
    problem = stencil.prepare(steps, kernel)
    compiled = compile_kernel(problem, opts.mode).without_fused_leaves()
    execute_serial_stream(build_events(problem, opts), compiled)
    for arr in problem.arrays.values():
        arr.note_written_through(problem.t_end - 1)
    stencil.advance_cursor(problem)


def run_reference(sizes, steps, *, boundary="periodic", seed=0):
    """Phase-1 reference result for a heat problem."""
    from repro import run_phase1

    st, u, kern = make_heat_problem(sizes, boundary=boundary, seed=seed)
    run_phase1(st, steps, kern)
    return u.snapshot(st.cursor)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
