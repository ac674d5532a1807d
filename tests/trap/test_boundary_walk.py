"""Boundary zoids in the compiled walk: generated bitwise equivalence.

With C boundary clones the compiled walk classifies every zoid itself
("interior?" — the paper's code-cloning test, Sec. 4) and bottoms out in
``leaf`` or the row-peeled ``leaf_boundary``, so the planner hands it
boundary and wrapped (virtual-coordinate) zoids as subtree tasks too.
The contract is unchanged: every path is bitwise equal to the Phase-1
interpreter.  Hypothesis (derandomized) draws the run geometry over a
fixed catalog of kernels — fixed because grid sizes bake into the
generated C, and each distinct catalog entry costs one ``cc`` run:

* the row-peeled ``leaf_boundary`` against stepping ``boundary_step``
  (the per-point clone) on random, possibly wrapped, boxes;
* whole runs against ``run_phase1`` through the compiled walk at 1/2/4
  threads, the walk pinned to one thread, and a two-job stack (serial
  stream or DAG, 1 or 2 walk threads).

The catalog spans 1-4D grids; periodic, Neumann, Dirichlet (constant and
time-dependent) and mixed per-dimension boundaries; 1-wide grids; grids
narrower than the stencil reach; and the depth-2 wave stencil.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ConstantBoundary,
    DirichletBoundary,
    Kernel,
    MixedBoundary,
    NeumannBoundary,
    PeriodicBoundary,
    PochoirArray,
    Stencil,
    run_phase1,
)
from repro.apps.heat import heat_kernel, heat_shape
from repro.apps.wave import build_wave, wave_kernel, wave_shape
from repro.compiler.pipeline import compile_kernel
from repro.expr.builder import sum_of
from repro.language.stencil import RunOptions
from repro.trap.driver import build_events, execute_problem
from repro.trap.executor import execute_serial_stream, run_base_region
from repro.trap.coarsening import NEVER_CUT
from repro.trap.plan import BaseRegion, iter_base_events
from tests.conftest import has_c_backend

pytestmark = pytest.mark.skipif(not has_c_backend(), reason="no C compiler")


def _reach2_kernel(u: PochoirArray) -> Kernel:
    """Reads two cells away along every dimension: grids of width <= 2
    are narrower than its reach."""

    def body(t, *axes):
        terms = [0.5 * u(t, *axes)]
        for i in range(u.ndim):
            for off in (-2, 2):
                moved = list(axes)
                moved[i] = axes[i] + off
                terms.append((0.125 / u.ndim) * u(t, *moved))
        return u(t + 1, *axes) << sum_of(terms)

    return Kernel(u.ndim, body, name="reach2")


#: name -> (stencil family, sizes, boundary factory).  Outer sizes of 8+
#: let a circular cut (half the circumference >= 2 * slope * height)
#: produce pieces that still recurse, i.e. boundary subtree tasks; the
#: "1wide"/"narrow" entries are too small to delegate anything.
CATALOG = {
    "heat1d-periodic": ("heat", (13,), PeriodicBoundary),
    "heat1d-neumann-1wide": ("heat", (1,), NeumannBoundary),
    "heat2d-dirichlet": ("heat", (9, 7), lambda: ConstantBoundary(1.25)),
    "heat2d-mixed": ("heat", (10, 9), lambda: MixedBoundary(("periodic", "clamp"))),
    "heat3d-neumann": ("heat", (10, 9, 5), NeumannBoundary),
    "heat3d-mixed": (
        "heat", (9, 10, 3), lambda: MixedBoundary(("clamp", "periodic", "periodic"))
    ),
    "heat4d-periodic": ("heat", (8, 8, 2, 3), PeriodicBoundary),
    "wave2d-dirichlet-t": ("wave", (7, 6), lambda: DirichletBoundary(0.5, 0.25)),
    "wave3d-periodic": ("wave", (9, 8, 4), PeriodicBoundary),
    "reach2-2d-mixed": ("reach2", (16, 16), lambda: MixedBoundary(("periodic", "clamp"))),
    "reach2-1d-narrow": ("reach2", (2,), lambda: ConstantBoundary(0.75)),
    "reach2-2d-narrow": ("reach2", (3, 2), PeriodicBoundary),
}

MAX_STEPS = 7


def _thresholds(values) -> tuple[int, ...]:
    """Explicit space thresholds that, like the defaults, never cut the
    unit-stride dimension of a >=3D grid: its full periodic rows then
    reach the compiled walk whole, which has no circular cut."""
    values = tuple(values)
    return values[:-1] + (NEVER_CUT,) if len(values) >= 3 else values


def _build(name: str, seed: int):
    """A fresh (stencil, kernel) for one catalog entry."""
    family, sizes, boundary = CATALOG[name]
    rng = np.random.default_rng(seed)
    ndim = len(sizes)
    if family == "wave":
        u = PochoirArray("u", sizes, depth=2).register_boundary(boundary())
        stencil = Stencil(ndim, wave_shape(ndim))
        kernel = wave_kernel(u, 0.2)
        u.set_initial(rng.random(sizes), t=0)
        u.set_initial(rng.random(sizes), t=1)
    else:
        u = PochoirArray("u", sizes).register_boundary(boundary())
        if family == "heat":
            stencil = Stencil(ndim, heat_shape(ndim))
            kernel = heat_kernel(u, (0.1,) * ndim)
        else:
            stencil = Stencil(ndim)
            kernel = _reach2_kernel(u)
        u.set_initial(rng.random(sizes))
    stencil.register_array(u)
    return stencil, kernel


@functools.lru_cache(maxsize=None)
def _phase1_history(name: str, seed: int) -> tuple[bytes, ...]:
    """Phase-1 buffers after 1..MAX_STEPS steps (one interpreter pass)."""
    stencil, kernel = _build(name, seed)
    history = []
    for _ in range(MAX_STEPS):
        run_phase1(stencil, 1, kernel)
        history.append(_result(stencil))
    return tuple(history)


def _phase1(name: str, seed: int, steps: int) -> bytes:
    return _phase1_history(name, seed)[steps - 1]


def _result(stencil) -> bytes:
    return stencil.arrays["u"].data.tobytes()


@st.composite
def _runs(draw):
    """A catalog entry plus walk geometry small enough that the root is
    cut into many (mostly boundary) subtree tasks."""
    name = draw(st.sampled_from(sorted(CATALOG)))
    ndim = len(CATALOG[name][1])
    options = RunOptions(
        mode="c",
        executor="serial",
        algorithm=draw(st.sampled_from(["trap", "strap"])),
        space_thresholds=_thresholds(
            draw(st.integers(1, 3)) for _ in range(ndim)
        ),
        dt_threshold=draw(st.integers(1, 2)),
    )
    return name, draw(st.integers(2, MAX_STEPS)), options


class TestRowPeeledLeaf:
    """``leaf_boundary`` (row-peeled) against ``boundary_step`` stepping."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_per_point_boundary_step(self, data):
        name = data.draw(st.sampled_from(sorted(CATALOG)))
        sizes = CATALOG[name][1]
        ta = data.draw(st.integers(2, 3))
        h = data.draw(st.integers(1, 4))
        dims = []
        for n in sizes:
            dlo = data.draw(st.integers(-1, 1))
            dhi = data.draw(st.integers(-1, 1))
            lo = data.draw(st.integers(-n, n))  # wrapped on either side
            width = data.draw(st.integers(0, n))
            dims.append((lo, lo + width, dlo, dhi))
        region = BaseRegion(ta, ta + h, tuple(dims), interior=False)

        got = []
        for fused in (True, False):
            stencil, kernel = _build(name, seed=5)
            compiled = compile_kernel(stencil.prepare(ta + h, kernel), "c")
            assert compiled.leaf_boundary is not None
            run_base_region(
                region, compiled if fused else compiled.without_fused_leaves()
            )
            got.append(_result(stencil))
        assert got[0] == got[1]


class TestBoundarySubtreeRuns:
    """Whole runs with boundary subtree tasks, every path vs Phase 1."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_runs())
    def test_walks_match_phase1(self, case):
        name, steps, options = case
        ref = _phase1(name, 1, steps)
        for threads in (1, 2, 4):
            stencil, kernel = _build(name, 1)
            report = stencil.run(steps, kernel, replace(options, walk_threads=threads))
            assert report.degradations == []
            assert _result(stencil) == ref, f"walk_threads={threads}"

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(_runs())
    def test_parallel_walk_at_one_thread_matches_phase1(self, case):
        """The walk pinned to one thread, whatever thread count the plan
        carries."""
        name, steps, options = case
        stencil, kernel = _build(name, 1)
        problem = stencil.prepare(steps, kernel)
        compiled = compile_kernel(problem, "c")
        one = replace(compiled, walk=lambda *args: compiled.walk(*args[:-1], 1))
        execute_serial_stream(build_events(problem, options), one)
        assert _result(stencil) == _phase1(name, 1, steps)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        _runs(),
        st.sampled_from([("serial", None), ("dag", 2)]),
        st.sampled_from([1, 2]),
    )
    def test_batch_twin_matches_phase1(self, case, executor, walk_threads):
        """A stack of two jobs through the driver, under the serial
        stream or the DAG, and the walk at 1 or 2 threads."""
        name, steps, options = case
        options = replace(
            options,
            executor=executor[0],
            n_workers=executor[1],
            walk_threads=walk_threads,
        )
        built = [_build(name, seed) for seed in (1, 2)]
        problems = [s.prepare(steps, k) for s, k in built]
        reports = execute_problem(problems, options)
        assert all(r.degradations == [] for r in reports)
        # The walk's thread count is reported only if the walk ran.
        ran = reports[0].subtree_tasks > 0
        assert all(r.walk_threads == (walk_threads if ran else 1) for r in reports)
        for seed, (stencil, _) in zip((1, 2), built):
            assert _result(stencil) == _phase1(name, seed, steps)


@pytest.mark.parametrize(
    "name", [n for n in sorted(CATALOG) if "1wide" not in n and "narrow" not in n]
)
def test_catalog_plans_delegate_boundary_subtrees(name):
    """The sweep above really exercises boundary subtrees: with small
    thresholds every catalog plan big enough to cut hands boundary
    zoids to the walk."""
    stencil, kernel = _build(name, 1)
    ndim = stencil.ndim
    options = RunOptions(
        mode="c", space_thresholds=_thresholds((2,) * ndim), dt_threshold=1
    )
    regions = list(iter_base_events(build_events(stencil.prepare(6, kernel), options)))
    assert any(r.walk is not None and not r.interior for r in regions)


def test_default_wave3d_runs_the_compiled_walk():
    """The no-options path is the paper's path: C, boundary zoids in the
    compiled walk, nothing degraded."""
    app = build_wave((32, 32, 32), 8)
    report = app.run()
    assert report.mode == "c"
    assert report.subtree_tasks > 0
    assert report.degradations == []
