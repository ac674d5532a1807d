"""Compiled-walk subtree tasks: planning, execution, and degradation.

The walker (``WalkOptions.compiled_walk``) plans whole subtrees as
single atomic tasks; ``run_base_region`` executes one through the C
``walk_subtree`` clone (one GIL-released call), and raises
``ExecutionError`` for a subtree task that clone cannot take.  Three
properties anchor this suite:

* **Equivalence** — compiled-walk on must be bitwise identical to off,
  for randomized interior zoids (C walk vs per-step),
  for every registered app under every executor, and for every heat
  boundary kind.  Boundary subtrees have their own generated sweep in
  ``tests/trap/test_boundary_walk.py``.
* **Eligibility** — boundary and wrapped (virtual-coordinate) zoids are
  delegated only when the kernel has a C ``leaf_boundary``; a NumPy or
  ``PythonBoundary`` kernel keeps them on the per-leaf path.
* **Degradation** — the run plans subtree tasks only under C; a hidden
  toolchain plans none, with identical results, and a subtree task
  forced onto a kernel without a walk clone (through ``WalkOptions``)
  raises.

The C-specific tests skip cleanly when no C compiler is present; the
planning and degradation tests run everywhere.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionError, PochoirArray, PythonBoundary, Stencil
from repro.apps import available_apps, build
from repro.apps.heat import heat_kernel, heat_shape
from repro.compiler.pipeline import compile_kernel
from repro.language.stencil import RunOptions
from repro.trap.driver import build_events
from repro.trap.executor import execute_serial_stream, run_base_region
from repro.trap.graph import build_task_graph
from repro.trap.plan import BaseRegion, iter_base_events
from repro.trap.walker import (
    NEVER_CUT,
    WALK_GRAIN_SPACE,
    WALK_GRAIN_TIME,
    WalkOptions,
    WalkSpec,
    decompose_events,
    walk_spec_for,
)
from repro.trap.zoid import full_grid_zoid
from tests.conftest import has_c_backend, make_heat_problem, run_subtree_per_leaf

T_MAX = 8

#: Fixed grids (sizes bake into generated C, so fixing them bounds the
#: number of distinct compilations the randomized sweep can trigger).
GRIDS = {1: (16,), 2: (12, 11)}


def _fresh_compiled(sizes, boundary="periodic"):
    stencil, u, kern = make_heat_problem(sizes, boundary=boundary, seed=11)
    problem = stencil.prepare(T_MAX, kern)
    return u, compile_kernel(problem, "c")


def _forced_walk_events(problem, thresholds=(6, 6)):
    """The problem's plan with subtree-task planning forced on, whatever
    the backend: interior zoids that fit the walk grain become subtree
    tasks (boundary zoids never do — no C boundary clone is assumed)."""
    min_off, max_off = problem.shape.min_max_offsets
    spec = walk_spec_for(problem.sizes, problem.slopes, min_off, max_off)
    opts = WalkOptions(
        dt_threshold=2, space_thresholds=thresholds, compiled_walk=True
    )
    top = full_grid_zoid(problem.t_start, problem.t_end, problem.sizes)
    return decompose_events(top, spec, opts)


def _python_boundary_problem(sizes, steps):
    """A 2D heat problem whose boundary is an arbitrary Python function —
    no backend can compile its boundary clone."""
    u = PochoirArray("u", sizes).register_boundary(
        PythonBoundary(lambda arr, t, *X: 0.5 + 0.01 * t)
    )
    u.set_initial(np.random.default_rng(3).random(sizes))
    stencil = Stencil(2, heat_shape(2))
    stencil.register_array(u)
    return stencil.prepare(steps, heat_kernel(u, (0.1, 0.1)))


@st.composite
def _interior_subtrees(draw):
    """A random whole-lifetime-interior subtree task over a fixed grid.

    Every read of the slope-shifted box stays in-domain at both time
    endpoints (extents are linear in t, so endpoints suffice), exactly
    the invariant the planner guarantees before delegating.  Thresholds
    and the dt threshold are drawn small so the subtree really recurses.
    """
    ndim = draw(st.integers(1, 2))
    sizes = GRIDS[ndim]
    ta = draw(st.integers(1, 3))
    h = draw(st.integers(2, 5))
    dims = []
    for n in sizes:
        for _ in range(60):
            lo = draw(st.integers(1, n - 3))
            width = draw(st.integers(2, n - 2))
            dlo = draw(st.integers(-1, 1))
            dhi = draw(st.integers(-1, 1))
            hi = lo + width
            flo, fhi = lo + dlo * (h - 1), hi + dhi * (h - 1)
            if fhi - flo < 0:
                continue
            # Well-defined all the way to the zoid's top time (height h,
            # one past the last computed slice) — the walker never
            # produces a zoid whose top length goes negative, and the
            # cut logic is entitled to assume it.
            if width + (dhi - dlo) * h < 0:
                continue
            if min(lo, flo) >= 1 and max(hi, fhi) <= n - 1:
                dims.append((lo, hi, dlo, dhi))
                break
        else:
            dims.append((1, 3, 0, 0))
    th = tuple(draw(st.integers(2, 5)) for _ in sizes)
    dt_th = draw(st.integers(1, 3))
    hyper = draw(st.booleans())
    region = BaseRegion(
        ta,
        ta + h,
        tuple(dims),
        interior=True,
        walk=((1,) * ndim, th, dt_th, hyper, 1),
    )
    return sizes, region


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
class TestRandomSubtrees:
    """The compiled walk vs per-step execution."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(_interior_subtrees())
    def test_walk_clone_matches_per_step(self, case):
        sizes, region = case
        u_c, compiled = _fresh_compiled(sizes)
        run_base_region(region, compiled)
        got_walk = u_c.data.copy()

        u_s, compiled_s = _fresh_compiled(sizes)
        run_subtree_per_leaf(region, compiled_s.without_fused_leaves())
        assert np.array_equal(got_walk, u_s.data)


class TestEligibility:
    """Boundary and wrapped zoids are delegated only to a walk clone that
    can run them: one with a C ``leaf_boundary``."""

    def _problem(self, sizes=(24, 24), boundary="periodic"):
        stencil, u, kern = make_heat_problem(sizes, boundary=boundary)
        return stencil.prepare(12, kern)

    def _subtree_regions(self, options, sizes=(24, 24), boundary="periodic"):
        events = build_events(self._problem(sizes, boundary), options)
        return sizes, list(iter_base_events(events))

    def _forced_regions(self, boundary="periodic"):
        events = _forced_walk_events(self._problem(boundary=boundary))
        return list(iter_base_events(events))

    @pytest.mark.parametrize("boundary", ["periodic", "neumann", "dirichlet"])
    def test_subtrees_are_interior_and_in_domain(self, boundary):
        """Without a C boundary leaf (here: the walk forced on with
        boundary delegation off) no subtree task may be
        boundary-classified or carry a wrapped (virtual-coordinate) home
        range: the kernel's walk has no boundary clone to resolve them
        with."""
        sizes = (24, 24)  # _problem's default grid
        regions = self._forced_regions(boundary)
        subtrees = [r for r in regions if r.walk is not None]
        assert subtrees, "plan produced no subtree tasks to check"
        for r in subtrees:
            assert r.interior
            z = r.zoid()
            for t in (z.ta, z.tb - 1):
                for (lo, hi), n in zip(z.bounds_at(t), sizes):
                    assert 0 <= lo and hi <= n, (
                        f"subtree home range [{lo},{hi}) leaves the "
                        f"{n}-wide domain (wrapped/virtual coordinates)"
                    )

    @pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
    @pytest.mark.parametrize("boundary", ["periodic", "neumann", "dirichlet"])
    def test_c_boundary_leaf_takes_boundary_and_wrapped_subtrees(self, boundary):
        """With a C ``leaf_boundary`` the walk classifies zoids itself, so
        boundary and wrapped zoids under the grain are subtree tasks too
        and no boundary base case is left to Python dispatch."""
        options = RunOptions(
            mode="c", dt_threshold=2, space_thresholds=(6, 6)
        )
        sizes, regions = self._subtree_regions(options, boundary=boundary)
        boundary_subtrees = [
            r for r in regions if r.walk is not None and not r.interior
        ]
        assert boundary_subtrees
        assert any(
            hi > n
            for r in boundary_subtrees
            for (lo, hi), n in zip(r.zoid().bounds_at(r.tb - 1), sizes)
        ), "no wrapped subtree task"

    def test_boundary_regions_never_delegated(self):
        """Kernels without a C boundary leaf — NumPy, or C with a
        ``PythonBoundary`` — keep every boundary zoid on the per-leaf
        path."""
        regions = self._forced_regions()
        python_boundary = _python_boundary_problem((24, 24), 12)
        options = RunOptions(mode="c", dt_threshold=2, space_thresholds=(6, 6))
        regions += iter_base_events(build_events(python_boundary, options))
        assert any(r.walk is not None for r in regions)
        for r in regions:
            if not r.interior:
                assert r.walk is None

    @pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
    def test_python_boundary_kernel_refuses_boundary_subtrees(self):
        """A boundary subtree handed to a kernel without C boundary
        clones (never planned: see above) raises, leaving the grid
        untouched, instead of running the walk on zoids it cannot
        classify."""
        problem = _python_boundary_problem((13, 11), 6)
        compiled = compile_kernel(problem, "c")
        assert compiled.walk is not None and compiled.leaf_boundary is None
        u = problem.arrays["u"]
        start = u.data.copy()
        region = BaseRegion(
            1, 5, ((9, 16, 0, 0), (0, 11, 0, 0)), interior=False,
            walk=((1, 1), (3, 3), 1, True, 1),
        )
        with pytest.raises(ExecutionError):
            run_base_region(region, compiled)
        assert np.array_equal(u.data, start)

    def test_compiled_walk_off_emits_no_subtrees(self):
        for mode in ("c", "split_pointer"):
            options = RunOptions(
                mode=mode,
                compiled_walk=False,
                dt_threshold=2,
                space_thresholds=(6, 6),
            )
            _, regions = self._subtree_regions(options)
            assert all(r.walk is None for r in regions), mode

    def test_subtrees_respect_the_walk_grain(self):
        regions = self._forced_regions()
        for r in regions:
            if r.walk is None:
                continue
            z = r.zoid()
            assert z.height <= WALK_GRAIN_TIME * 2
            for i in range(z.ndim):
                assert z.width(i) <= WALK_GRAIN_SPACE * 6

    def test_walk_grain_guard_exempts_protected_dims(self):
        """The full-circumference guard exists because the compiled walk
        has no circular cut; a ``NEVER_CUT`` dimension is never cut at
        all, so a >=3D zoid spanning its whole unit-stride row is
        eligible, while a cuttable full-circumference dimension still is
        not."""
        from repro.trap.walker import _fits_walk_grain
        from repro.trap.zoid import Zoid

        spec = WalkSpec(
            sizes=(8, 8, 64), slopes=(1, 1, 1),
            min_off=(-1, -1, -1), max_off=(1, 1, 1),
        )
        opts = WalkOptions(
            dt_threshold=2,
            space_thresholds=(4, 4, NEVER_CUT),
            compiled_walk=True,
            walk_boundary=True,
        )
        row = Zoid(0, 4, ((0, 4, 1, -1), (2, 6, 0, 0), (0, 64, 0, 0)))
        assert _fits_walk_grain(row, spec, opts)
        ring = Zoid(0, 4, ((0, 8, 0, 0), (2, 6, 0, 0), (0, 64, 0, 0)))
        assert not _fits_walk_grain(ring, spec, opts)

    def test_protected_dims_ride_as_never_cut_thresholds(self):
        """The >=3D default never cuts unit stride, and the compiled
        walk gets that as a ``NEVER_CUT`` threshold in every subtree
        task's ``WalkParams``."""
        _, regions = self._subtree_regions(
            RunOptions(mode="c"), sizes=(16, 16, 32)
        )
        thresholds = {r.walk[1] for r in regions if r.walk is not None}
        assert thresholds and all(th[-1] == NEVER_CUT for th in thresholds)

    def test_graph_counts_subtree_tasks(self):
        graph = build_task_graph(_forced_walk_events(self._problem()))
        n = sum(1 for r in graph.iter_regions() if r.walk is not None)
        assert graph.n_subtree_tasks == n > 0


class TestDegradation:
    """Subtree plans are only ever made for a kernel with a walk clone;
    without a toolchain none are planned."""

    def test_numpy_kernel_refuses_subtree_tasks(self):
        """A subtree-task plan handed to a NumPy kernel (no walk clone)
        raises instead of replaying the recursion: every process binds
        the run's resolved mode, so no run reaches this (a supervised
        worker that cannot bind C fails its attach instead)."""
        st_w, u_w, k_w = make_heat_problem((32, 32), seed=7)
        problem = st_w.prepare(12, k_w)
        with pytest.raises(ExecutionError):
            execute_serial_stream(
                _forced_walk_events(problem, thresholds=(8, 8)),
                compile_kernel(problem, "split_pointer"),
            )

    def test_no_cc_degrades_cleanly(self, monkeypatch):
        """With the toolchain hidden, ``auto`` resolves to split_pointer
        and no subtree task is planned (only C has a walk) — the run
        must succeed and match the C-planned result bitwise (same
        points, same arithmetic).  This is the REPRO_NO_CC CI leg's
        contract."""
        st_ref, u_ref, k_ref = make_heat_problem((32, 32), seed=9)
        st_ref.run(10, k_ref, dt_threshold=2)
        ref = u_ref.snapshot(st_ref.cursor)

        monkeypatch.setenv("REPRO_NO_CC", "1")
        from repro.compiler.pipeline import clear_cache

        clear_cache()
        try:
            st_n, u_n, k_n = make_heat_problem((32, 32), seed=9)
            report = st_n.run(10, k_n, dt_threshold=2)
            assert report.mode == "split_pointer"
            assert report.subtree_tasks == 0
            assert np.array_equal(u_n.snapshot(st_n.cursor), ref)
        finally:
            monkeypatch.delenv("REPRO_NO_CC")
            clear_cache()


EXECUTORS = ("serial", "dag")


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
@pytest.mark.parametrize("name", available_apps())
def test_all_apps_compiled_walk_equals_per_leaf(name):
    """Every registered app: compiled-walk plans must reproduce the
    per-leaf C path bit for bit, under every executor."""
    ref_app = build(name, "tiny")
    ref_app.run(dt_threshold=2, mode="c", compiled_walk=False)
    ref = ref_app.result()

    for executor in EXECUTORS:
        app = build(name, "tiny")
        app.run(
            executor=executor,
            mode="c",
            n_workers=None if executor == "serial" else 3,
            dt_threshold=2,
        )
        assert np.array_equal(app.result(), ref), (
            f"{name}: compiled walk under {executor!r} diverged from the "
            f"per-leaf C path"
        )


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
@pytest.mark.parametrize("boundary", ["periodic", "neumann", "dirichlet"])
def test_heat_boundary_kinds_walk_equals_per_leaf(boundary):
    sizes, T = (29, 23), 12
    st_w, u_w, k_w = make_heat_problem(sizes, boundary=boundary, seed=5)
    st_w.run(T, k_w, mode="c", dt_threshold=2, space_thresholds=(5, 5))
    st_p, u_p, k_p = make_heat_problem(sizes, boundary=boundary, seed=5)
    st_p.run(T, k_p, mode="c", dt_threshold=2, space_thresholds=(5, 5),
             compiled_walk=False)
    assert np.array_equal(
        u_w.snapshot(st_w.cursor), u_p.snapshot(st_p.cursor)
    ), f"compiled walk diverged from per-leaf under {boundary}"
