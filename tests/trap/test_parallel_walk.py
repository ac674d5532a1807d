"""The compiled walk across thread counts: bitwise equivalence and
degradation.

The C backend's one walk recursion takes the thread count as an
argument.  Above one, an embedded pthread task pool runs the
independent same-level pieces of each hyperspace cut (Lemma 1) as
tasks, levels join at a barrier, and every task bottoms out in the
unchanged fused leaf.  At one thread — or when the pool cannot start —
the same code spawns nothing and runs every piece inline.  The schedule
may vary but the arithmetic per point cannot, so the contract under
test is *bitwise identity*, not approximate agreement:

* **Equivalence** — randomized interior subtrees, every registered app,
  and every heat boundary kind must produce identical bits at one
  thread, at several, and under the Python replay, and across repeated
  runs (scheduling nondeterminism must not leak into results).
* **Degradation** — ``walk_threads=1`` spawns nothing; a failed pool
  init (``REPRO_WALK_POOL_FAIL``) runs the call without a pool and
  counts it in the fallback slot; a hidden toolchain degrades to the
  NumPy path with the knob silently inert.  No API surface changes in
  any of these.

C-specific tests skip cleanly without a compiler; the option-validation
and no-toolchain tests run everywhere.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import available_apps, build
from repro.compiler.pipeline import compile_kernel
from repro.errors import SpecificationError
from repro.language.stencil import RunOptions
from repro.trap.executor import run_base_region
from repro.trap.plan import BaseRegion
from tests.conftest import has_c_backend, make_heat_problem, run_per_step

T_MAX = 8

#: Fixed grids (sizes bake into generated C, so fixing them bounds the
#: number of distinct compilations the randomized sweep can trigger).
GRIDS = {1: (16,), 2: (12, 11)}

THREAD_COUNTS = (2, 3, 4)


def _fresh_compiled(sizes, boundary="periodic", seed=11):
    stencil, u, kern = make_heat_problem(sizes, boundary=boundary, seed=seed)
    problem = stencil.prepare(T_MAX, kern)
    return u, compile_kernel(problem, "c")


def _with_threads(region: BaseRegion, threads: int) -> BaseRegion:
    """The same subtree task with the thread count swapped in its
    WalkParams."""
    walk = region.walk[:4] + (threads,)
    return replace(region, walk=walk)


@st.composite
def _interior_subtrees(draw):
    """A random whole-lifetime-interior subtree task over a fixed grid.

    Same invariant as ``test_compiled_walk._interior_subtrees`` (every
    read stays in-domain at both time endpoints), with small thresholds
    so the subtree recursion actually spawns same-level tasks.
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
    threads = draw(st.sampled_from(THREAD_COUNTS))
    region = BaseRegion(
        ta,
        ta + h,
        tuple(dims),
        interior=True,
        walk=((1,) * ndim, th, dt_th, hyper, threads),
    )
    return sizes, region


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
class TestRandomSubtrees:
    """N threads vs one thread vs Python replay, randomized."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_interior_subtrees())
    def test_parallel_matches_serial_walk(self, case):
        sizes, region = case
        u_p, compiled = _fresh_compiled(sizes)
        run_base_region(region, compiled)
        got_par = u_p.data.copy()

        u_s, compiled_s = _fresh_compiled(sizes)
        run_base_region(_with_threads(region, 1), compiled_s)
        assert np.array_equal(got_par, u_s.data)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(_interior_subtrees())
    def test_parallel_matches_python_replay(self, case):
        sizes, region = case
        u_p, compiled = _fresh_compiled(sizes)
        run_base_region(region, compiled)
        got_par = u_p.data.copy()

        u_py, compiled_py = _fresh_compiled(sizes)
        run_base_region(region, replace(compiled_py, walk=None))
        assert np.array_equal(got_par, u_py.data)

    def test_repeated_runs_are_bitwise_stable(self):
        """Thirty runs of one task-rich subtree at 3 threads: work
        stealing reorders execution, never results (each point is
        written exactly once, from already-complete neighbors)."""
        region = BaseRegion(
            1, 7, ((1, 11, 0, 0), (1, 10, 1, -1)), interior=True,
            walk=((1, 1), (2, 2), 1, True, 3),
        )
        u0, compiled = _fresh_compiled(GRIDS[2])
        run_base_region(region, compiled)
        ref = u0.data.copy()
        for trial in range(30):
            u, compiled = _fresh_compiled(GRIDS[2])
            run_base_region(region, compiled)
            assert np.array_equal(u.data, ref), f"trial {trial} diverged"


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("name", available_apps())
def test_all_apps_parallel_walk_equals_serial(name, threads):
    """Every registered app, end to end through ``Stencil.run``: the
    walk at N threads must reproduce the walk at one thread bit for bit."""
    ref_app = build(name, "tiny")
    ref_app.run(mode="c", dt_threshold=2, walk_threads=1)
    ref = ref_app.result()

    app = build(name, "tiny")
    app.run(mode="c", dt_threshold=2, walk_threads=threads)
    assert np.array_equal(app.result(), ref), (
        f"{name}: walk at {threads} threads diverged from one thread"
    )


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("boundary", ["periodic", "neumann", "dirichlet"])
def test_heat_boundary_kinds_parallel_equals_serial(boundary, threads):
    """Boundary handling is untouched by the pool (only interior
    subtrees are delegated), but the sweep proves the full run —
    boundary leaves interleaved with parallel interior subtrees — stays
    bitwise identical for every boundary kind."""
    sizes, T = (29, 23), 12
    st_p, u_p, k_p = make_heat_problem(sizes, boundary=boundary, seed=5)
    st_p.run(T, k_p, mode="c", dt_threshold=2, space_thresholds=(5, 5),
             walk_threads=threads)
    st_s, u_s, k_s = make_heat_problem(sizes, boundary=boundary, seed=5)
    st_s.run(T, k_s, mode="c", dt_threshold=2, space_thresholds=(5, 5),
             walk_threads=1)
    assert np.array_equal(
        u_p.snapshot(st_p.cursor), u_s.snapshot(st_s.cursor)
    ), f"walk at {threads} threads diverged from one thread under {boundary}"


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
@pytest.mark.parametrize("executor", ["serial", "dag"])
def test_executors_compose_with_parallel_walk(executor):
    """Outer DAG workers and the inner pool are independent layers;
    stacking them must not change results."""
    st_ref, u_ref, k_ref = make_heat_problem((32, 32), seed=7)
    st_ref.run(10, k_ref, mode="c", dt_threshold=2, space_thresholds=(8, 8),
               walk_threads=1)
    ref = u_ref.snapshot(st_ref.cursor)

    st_x, u_x, k_x = make_heat_problem((32, 32), seed=7)
    st_x.run(10, k_x, mode="c", dt_threshold=2, space_thresholds=(8, 8),
             walk_threads=3, executor=executor,
             n_workers=None if executor == "serial" else 2)
    assert np.array_equal(u_x.snapshot(st_x.cursor), ref)


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
class TestReportCounters:
    """Pool activity surfaces in the RunReport; silence at one thread."""

    def _run(self, **kw):
        st_, u, k = make_heat_problem((48, 50), seed=13)
        report = st_.run(10, k, mode="c", dt_threshold=2,
                         space_thresholds=(4, 4), **kw)
        return u.snapshot(st_.cursor), report

    def test_parallel_run_reports_pool_activity(self):
        ref, _ = self._run(walk_threads=1)
        got, report = self._run(walk_threads=3)
        assert np.array_equal(got, ref)
        assert report.walk_threads == 3
        assert report.walk_spawned > 0
        assert report.walk_barriers > 0
        assert report.walk_stolen >= 0  # timing-dependent, but never negative

    def test_serial_run_reports_zero_counters(self):
        _, report = self._run(walk_threads=1)
        assert report.walk_threads == 1
        assert (report.walk_spawned, report.walk_stolen,
                report.walk_barriers) == (0, 0, 0)

    def test_walk_threads_reported_only_when_a_subtree_task_ran(self):
        _, report = self._run(walk_threads=2, compiled_walk=False)
        assert report.subtree_tasks == 0
        assert report.walk_threads == 1

    def test_pool_fallback_is_recorded_when_the_pool_failed(self, monkeypatch):
        ref, _ = self._run(walk_threads=1)
        monkeypatch.setenv("REPRO_WALK_POOL_FAIL", "1")
        got, report = self._run(walk_threads=2)
        assert report.subtree_tasks > 0
        assert "walk-pool:start-failed->serial" in report.degradations
        assert report.walk_spawned == 0
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "options",
        [dict(walk_threads=2, compiled_walk=False), dict(walk_threads=1)],
        ids=["no-subtree-tasks", "one-thread"],
    )
    def test_no_pool_fallback_without_a_pool_request(self, options, monkeypatch):
        """The tag comes from what the walk did, not from the
        environment: runs that never asked the walk for a pool record
        nothing even with the failure hook armed."""
        monkeypatch.setenv("REPRO_WALK_POOL_FAIL", "1")
        _, report = self._run(**options)
        assert "walk-pool:start-failed->serial" not in report.degradations


class TestDegradation:
    """Every fallback path keeps the API and the bits."""

    @pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
    def test_pool_init_failure_degrades_to_serial(self, monkeypatch):
        """``REPRO_WALK_POOL_FAIL`` makes ``wq_ensure_pool`` report zero
        workers: the walk runs every piece inline in-call — same bits,
        no pool counters, and one count in the fallback slot.  A unique
        grid keeps this kernel's (static, per-.so) pool unpopulated by
        earlier tests."""
        sizes = (17, 13)
        region = BaseRegion(
            1, 6, ((1, 15, 0, 0), (1, 11, 1, -1)), interior=True,
            walk=((1, 1), (2, 2), 1, True, 3),
        )
        monkeypatch.setenv("REPRO_WALK_POOL_FAIL", "1")
        u_f, compiled = _fresh_compiled(sizes)
        before = compiled.walk_stats_snapshot()
        run_base_region(region, compiled)
        after = compiled.walk_stats_snapshot()
        # no pool, no pool counters; one call ran without its pool
        assert [b - a for a, b in zip(before, after)] == [0, 0, 0, 1]
        got = u_f.data.copy()

        monkeypatch.delenv("REPRO_WALK_POOL_FAIL")
        u_s, compiled_s = _fresh_compiled(sizes)
        run_base_region(_with_threads(region, 1), compiled_s)
        assert np.array_equal(got, u_s.data)

    @pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
    def test_walk_threads_one_spawns_nothing(self):
        """``walk_threads=1`` is the same recursion without a pool: it
        spawns nothing, crosses no barrier, and is no fallback."""
        u, compiled = _fresh_compiled(GRIDS[2])
        region = BaseRegion(
            1, 6, ((1, 11, 0, 0), (1, 10, 1, -1)), interior=True,
            walk=((1, 1), (2, 2), 1, True, 1),
        )
        before = compiled.walk_stats_snapshot()
        run_base_region(region, compiled)
        assert compiled.walk_stats_snapshot() == before

    def test_no_cc_accepts_walk_threads_silently(self, monkeypatch):
        """With the toolchain hidden the knob is inert, not an error:
        the run degrades to the NumPy path and matches the reference."""
        st_ref, u_ref, k_ref = make_heat_problem((32, 32), seed=9)
        st_ref.run(10, k_ref, dt_threshold=2)
        ref = u_ref.snapshot(st_ref.cursor)

        monkeypatch.setenv("REPRO_NO_CC", "1")
        from repro.compiler.pipeline import clear_cache

        clear_cache()
        try:
            st_n, u_n, k_n = make_heat_problem((32, 32), seed=9)
            report = st_n.run(10, k_n, dt_threshold=2, walk_threads=4)
            assert report.mode == "split_pointer"
            assert (report.walk_spawned, report.walk_stolen,
                    report.walk_barriers) == (0, 0, 0)
            assert np.array_equal(u_n.snapshot(st_n.cursor), ref)
        finally:
            monkeypatch.delenv("REPRO_NO_CC")
            clear_cache()

    def test_fuse_leaves_off_composes_with_walk_threads(self):
        """The per-step reference (fused leaves off) strips every walk
        clone; the thread knob must ride along harmlessly."""
        st_ref, u_ref, k_ref = make_heat_problem((24, 24), seed=4)
        run_per_step(st_ref, 8, k_ref, dt_threshold=2)
        ref = u_ref.snapshot(st_ref.cursor)
        st_x, u_x, k_x = make_heat_problem((24, 24), seed=4)
        run_per_step(st_x, 8, k_x, dt_threshold=2, walk_threads=3)
        assert np.array_equal(u_x.snapshot(st_x.cursor), ref)


class TestOptionSurface:
    """RunOptions validation and resolution for the new knob."""

    @pytest.mark.parametrize("bad", [0, -1, False])
    def test_invalid_walk_threads_rejected(self, bad):
        with pytest.raises(SpecificationError):
            RunOptions(walk_threads=bad)

    def test_none_resolves_to_detected_cores(self):
        from repro.util import detect_cpu_count

        assert RunOptions().resolve_walk_threads() == max(
            1, detect_cpu_count()
        )

    def test_explicit_count_resolves_verbatim(self):
        assert RunOptions(walk_threads=5).resolve_walk_threads() == 5
        assert RunOptions(walk_threads=1).resolve_walk_threads() == 1
