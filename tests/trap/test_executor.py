"""Tests for plan executors (serial, task DAG) and the driver."""

import numpy as np
import pytest

from repro.errors import ExecutionError, SpecificationError
from repro.language.stencil import RunOptions
from repro.trap.driver import build_plan
from repro.trap.executor import acquire_pool, release_pool
from tests.conftest import ALL_MODES, make_heat_problem, run_reference


class _CountingKernel:
    """A fake CompiledKernel whose clones just count invocations."""

    leaf = leaf_boundary = None  # per-step path only

    def __init__(self):
        self.calls = 0

    def interior(self, t, lo, hi):
        self.calls += 1

    boundary = interior


class TestExecutors:
    @pytest.mark.parametrize("executor", ["serial", "dag"])
    @pytest.mark.parametrize("algorithm", ["trap", "strap"])
    def test_matches_reference(self, executor, algorithm):
        sizes, T = (15, 14), 7
        ref = run_reference(sizes, T)
        st_, u, k = make_heat_problem(sizes)
        rep = st_.run(
            T,
            k,
            algorithm=algorithm,
            executor=executor,
            n_workers=3,
            dt_threshold=2,
            space_thresholds=(5, 5),
        )
        assert np.array_equal(u.snapshot(st_.cursor), ref)
        assert rep.executor == executor
        assert rep.n_workers == (1 if executor == "serial" else 3)

    def test_unknown_executor_rejected(self):
        with pytest.raises(SpecificationError, match="unknown executor"):
            RunOptions(executor="quantum")

    def test_threads_executor_rejected(self):
        """The barrier-wave executor is gone; naming it is an error, not
        a silent fallback."""
        with pytest.raises(SpecificationError, match="unknown executor"):
            RunOptions(executor="threads")

    def test_thread_worker_validation(self):
        with pytest.raises(ExecutionError):
            acquire_pool(0)

    def test_dag_worker_validation(self):
        from repro.trap.executor import execute_dag
        from repro.trap.graph import TaskGraph

        with pytest.raises(ExecutionError):
            execute_dag(TaskGraph(), None, 0)

    def test_dag_stall_raises_instead_of_hanging(self):
        """An inconsistent graph (a predecessor count that never reaches
        zero) must error out, not leave the workers blocked forever."""
        from repro.trap.executor import execute_dag
        from repro.trap.graph import TaskGraph
        from repro.trap.plan import BaseRegion

        r = BaseRegion(0, 1, ((0, 2, 0, 0),), interior=True)
        broken = TaskGraph(
            regions=[r, r], npred=[0, 2], succs=[[1], []], n_tasks=2
        )
        with pytest.raises(ExecutionError, match="stalled"):
            execute_dag(broken, _CountingKernel(), 2)

    def test_dag_kernel_error_propagates(self):
        st_, u, k = make_heat_problem((16, 16))
        problem = st_.prepare(4, k)
        from repro.trap.driver import build_events
        from repro.trap.executor import execute_dag
        from repro.trap.graph import build_task_graph

        class Boom(RuntimeError):
            pass

        class BrokenKernel:
            leaf = leaf_boundary = None

            def _fail(self, *a):
                raise Boom("kernel exploded")

            interior = boundary = property(lambda self: self._fail)

        # The stub has no walk clone, so plan per-leaf regions (NumPy
        # planning) rather than the default C plan's subtree tasks.
        opts = RunOptions(
            mode="split_pointer", dt_threshold=2, space_thresholds=(5, 5)
        )
        graph = build_task_graph(build_events(problem, opts))
        with pytest.raises(Boom):
            execute_dag(graph, BrokenKernel(), 3)


class TestAutoExecutor:
    def test_auto_defaults_to_serial_without_workers(self):
        assert RunOptions().resolve_executor() == ("serial", 1)
        assert RunOptions(n_workers=1).resolve_executor() == ("serial", 1)

    def test_auto_picks_dag_for_parallel_trap(self):
        assert RunOptions(n_workers=4).resolve_executor() == ("dag", 4)

    def test_auto_picks_dag_for_parallel_strap(self):
        opts = RunOptions(algorithm="strap", n_workers=4)
        assert opts.resolve_executor() == ("dag", 4)

    def test_explicit_executor_wins(self):
        opts = RunOptions(executor="serial", n_workers=2)
        assert opts.resolve_executor() == ("serial", 1)

    def test_invalid_options_rejected(self):
        with pytest.raises(SpecificationError):
            RunOptions(executor="quantum")
        with pytest.raises(SpecificationError):
            RunOptions(n_workers=0)

    def test_run_report_records_dag_execution(self):
        sizes, T = (15, 14), 7
        ref = run_reference(sizes, T)
        st_, u, k = make_heat_problem(sizes)
        rep = st_.run(T, k, n_workers=3, dt_threshold=2, space_thresholds=(5, 5))
        assert np.array_equal(u.snapshot(st_.cursor), ref)
        assert rep.executor == "dag"
        assert rep.n_workers == 3
        assert rep.base_cases > 0
        assert 0.0 < rep.busy_time
        assert 0.0 <= rep.idle_fraction < 1.0


class TestSharedPool:
    def test_run_bounded_respects_worker_cap(self):
        """The shared pool may be wider than this run's request (it holds
        the largest count ever asked for); the per-run n_workers cap must
        still bind."""
        import threading
        import time as _time

        from repro.trap.executor import run_bounded

        lock = threading.Lock()
        state = {"now": 0, "max": 0}

        def slow() -> float:
            with lock:
                state["now"] += 1
                state["max"] = max(state["max"], state["now"])
            _time.sleep(0.01)
            with lock:
                state["now"] -= 1
            return 0.01

        pool = acquire_pool(6)  # an earlier run grew the pool
        try:
            busy = run_bounded(pool, [slow] * 8, 2)
        finally:
            release_pool(pool)
        assert busy == pytest.approx(0.08)
        assert state["max"] <= 2

    def test_pool_reused_across_runs(self):
        p1 = acquire_pool(2)
        release_pool(p1)
        p2 = acquire_pool(2)
        release_pool(p2)
        assert p1 is p2

    def test_pool_grows_when_needed(self):
        p_small = acquire_pool(1)
        release_pool(p_small)
        p_big = acquire_pool(max(3, p_small._max_workers + 1))
        release_pool(p_big)
        assert p_big._max_workers >= 3
        p_again = acquire_pool(2)
        release_pool(p_again)
        assert p_again is p_big  # smaller requests keep the big pool

    def test_nested_parallel_run_does_not_deadlock(self):
        """A kernel/boundary callback may invoke Stencil.run; a nested
        parallel run must not wait on the pool that is executing it."""
        from concurrent.futures import TimeoutError as FuturesTimeout

        from repro.trap.executor import execute_dag
        from repro.trap.graph import build_task_graph
        from repro.trap.plan import BaseRegion, PlanNode, plan_events

        plan = PlanNode.par(
            [
                PlanNode.base(
                    BaseRegion(0, 1, ((4 * i, 4 * i + 4, 0, 0),), interior=True)
                )
                for i in range(4)
            ]
        )
        graph = build_task_graph(plan_events(plan))
        kernel = _CountingKernel()

        def nested_dag():
            return execute_dag(graph, kernel, 2).base_cases

        pool = acquire_pool(2)
        try:
            futures = [pool.submit(nested_dag), pool.submit(nested_dag)]
            results = [f.result(timeout=30) for f in futures]
        except FuturesTimeout:
            pytest.fail("nested parallel run deadlocked on the shared pool")
        finally:
            release_pool(pool)
        assert results == [4, 4]

    def test_repeated_runs_share_threads(self):
        import repro.trap.executor as ex

        ex.shutdown_pool()
        st_, u, k = make_heat_problem((16, 16))
        fine = dict(executor="dag", n_workers=2, dt_threshold=1,
                    space_thresholds=(4, 4), compiled_walk=False)
        rep = st_.run(2, k, **fine)
        assert rep.n_workers == 2  # the run really used the pool
        pool = ex._pool
        st_.run(2, k, **fine)
        assert pool is not None and ex._pool is pool
        ex.shutdown_pool()

    def test_retired_pools_do_not_accumulate(self):
        """Regression: outgrown pools used to pile up in _retired_pools
        (threads stranded until interpreter exit).  With no lease held,
        growth must shut the old pool down and drop it immediately."""
        import repro.trap.executor as ex

        ex.shutdown_pool()
        pools = []
        for n in (2, 3, 5, 7):
            pool = acquire_pool(n)
            release_pool(pool)
            pools.append(pool)
        assert ex._retired_pools == []
        for old in pools[:-1]:
            assert old._shutdown, "retired pool left holding threads"
        assert not pools[-1]._shutdown
        ex.shutdown_pool()

    def test_leased_pool_survives_growth_until_drained(self):
        """A pool leased by an in-flight run must stay usable across a
        concurrent regrowth, and be shut down + dropped by its final
        release (the in-flight work has drained)."""
        import repro.trap.executor as ex

        ex.shutdown_pool()
        small = acquire_pool(2)
        big = acquire_pool(small._max_workers + 2)  # a concurrent run outgrows it
        assert big is not small
        assert small in ex._retired_pools
        assert not small._shutdown
        # the leased pool still accepts work (the old failure mode was
        # "cannot schedule new futures after shutdown" mid-flight)
        assert small.submit(lambda: 41 + 1).result(timeout=10) == 42
        release_pool(small)
        assert small._shutdown
        assert small not in ex._retired_pools
        release_pool(big)
        assert not big._shutdown  # the live pool outlasts its leases
        ex.shutdown_pool()

    def test_parallel_runs_drain_retired_pools(self):
        """End to end: runs that grow the pool leave no retired pools
        and no stranded threads behind."""
        import repro.trap.executor as ex

        ex.shutdown_pool()
        st_, u, k = make_heat_problem((16, 16))
        for n in (2, 3, 4):
            st_.run(2, k, executor="dag", n_workers=n, dt_threshold=2)
        assert ex._retired_pools == []
        assert ex._pool_leases == {}
        ex.shutdown_pool()


class TestDriver:
    def test_build_plan_rejects_loops(self):
        st_, u, k = make_heat_problem((8, 8))
        problem = st_.prepare(2, k)
        with pytest.raises(SpecificationError):
            build_plan(problem, RunOptions(algorithm="loops"))

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_all_modes_through_driver(self, mode):
        sizes, T = (12, 12), 5
        ref = run_reference(sizes, T)
        st_, u, k = make_heat_problem(sizes)
        rep = st_.run(T, k, mode=mode, dt_threshold=2, space_thresholds=(4, 4))
        assert rep.mode == mode
        assert rep.points_updated == 12 * 12 * T  # region stats, always on
        assert rep.base_cases > 0
        assert np.array_equal(u.snapshot(st_.cursor), ref)
