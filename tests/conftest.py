"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import glob

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


#: Where a served lease's segment lives while it exists (Linux).
_LEASE_SEGMENTS = "/dev/shm/repro_lease_*"


def pytest_sessionstart(session):
    session.config.stash[_LEASES_BEFORE] = set(glob.glob(_LEASE_SEGMENTS))


def pytest_sessionfinish(session, exitstatus):
    """Fail the session if a served lease's segment outlived it: every
    server-created segment must be unlinked when its connection ends."""
    from repro.serve.net import LEASE_PREFIX

    assert _LEASE_SEGMENTS == f"/dev/shm/{LEASE_PREFIX}*"
    left = set(glob.glob(_LEASE_SEGMENTS)) - session.config.stash.get(
        _LEASES_BEFORE, set()
    )
    if left:
        print(f"\nlease segments left behind: {sorted(left)}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


_LEASES_BEFORE = pytest.StashKey[set]()


def has_c_backend() -> bool:
    return "c" in available_modes()


#: Concrete codegen modes to sweep in equivalence tests (C included when
#: a toolchain exists).  "auto" is excluded: it is an alias for one of
#: the concrete modes, not a distinct backend.
ALL_MODES = [m for m in available_modes() if m != "auto"]

#: ``ALL_MODES`` plus ``"macro_shadow"``: the generated per-point clones,
#: whose boundary clone runs every boundary kind the backends cannot
#: express (and whose interior clone is Fig. 13's comparison kernel).
#: Run them with :func:`run_kernel`.
KERNELS = ["macro_shadow"] + ALL_MODES


def run_kernel(stencil, steps, kernel, mode, **options):
    """``stencil.run(steps, kernel, mode=mode, **options)`` and its
    report, or for ``mode="macro_shadow"`` the NumPy backend's plan run
    through the per-point clones
    (``benchmarks.bench_util.run_macro_shadow``) and None."""
    if mode != "macro_shadow":
        return stencil.run(steps, kernel, mode=mode, **options)
    from benchmarks.bench_util import run_macro_shadow

    run_macro_shadow(stencil, steps, kernel, **options)
    return None


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
    stencil.advance_cursor(problem)


def run_subtree_per_leaf(region, compiled):
    """The Python reference for one subtree task (``region.walk`` set):
    decompose its zoid fully with the Python walker, from the task's own
    walk parameters, and run every base case through ``compiled``'s
    per-leaf path (its fused leaves, or the per-step clones of
    ``compiled.without_fused_leaves()``)."""
    from repro.trap.executor import run_base_region
    from repro.trap.plan import iter_base_events
    from repro.trap.walker import WalkOptions, WalkSpec, _events

    slopes, thresholds, dt_threshold, hyperspace, _ = region.walk
    min_off, max_off = compiled.ir.reach()
    spec = WalkSpec(
        sizes=compiled.ir.sizes, slopes=slopes, min_off=min_off, max_off=max_off
    )
    opts = WalkOptions(
        dt_threshold=dt_threshold,
        space_thresholds=thresholds,
        hyperspace=hyperspace,
        compiled_walk=False,
    )
    for sub in iter_base_events(
        _events(region.zoid(), spec, opts, region.interior)
    ):
        run_base_region(sub, compiled)


def base(region):
    """A one-region plan as an event list."""
    return [("base", region)]


def seq(*children):
    """A Seq group of event-list children, as an event list."""
    return [("open", "seq"), *(e for c in children for e in c), ("close", "seq")]


def par(*children):
    """A Par group of event-list children, as an event list."""
    return [("open", "par"), *(e for c in children for e in c), ("close", "par")]


def run_reference(sizes, steps, *, boundary="periodic", seed=0):
    """Phase-1 reference result for a heat problem."""
    from repro import run_phase1

    st, u, kern = make_heat_problem(sizes, boundary=boundary, seed=seed)
    run_phase1(st, steps, kern)
    return u.snapshot(st.cursor)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
