"""Tests for the cache-trace generator and the Figure 10 ordering."""

import pytest

from repro.cachesim import (
    loops_miss_bound,
    simulate_loops_cache,
    simulate_plan_cache,
    trap_miss_bound,
)
from repro.language.stencil import RunOptions
from repro.trap.driver import build_events
from tests.conftest import make_heat_problem


def _problem_and_plans(n, T, algorithms=("trap", "strap")):
    st_, u, k = make_heat_problem((n, n))
    problem = st_.prepare(T, k)
    plans = {
        alg: list(
            build_events(
                problem,
                RunOptions(algorithm=alg, dt_threshold=1, space_thresholds=(0, 0)),
            )
        )
        for alg in algorithms
    }
    return problem, plans


class TestRefCounting:
    def test_refs_equal_points_times_cells(self):
        n, T = 16, 8
        problem, plans = _problem_and_plans(n, T, ("trap",))
        stats = simulate_plan_cache(
            problem, plans["trap"], capacity_points=256, line_points=8
        )
        # Heat kernel: 5 reads + 1 write per point.
        assert stats.points == n * n * T
        assert stats.refs == stats.points * 6

    def test_loops_refs_match(self):
        n, T = 16, 8
        problem, _ = _problem_and_plans(n, T, ())
        stats = simulate_loops_cache(
            problem, capacity_points=256, line_points=8
        )
        assert stats.points == n * n * T
        assert stats.refs == stats.points * 6


class TestFigure10Ordering:
    def test_trap_beats_loops_out_of_cache(self):
        """The central Figure 10 claim: cache-oblivious algorithms miss far
        less than loops once the grid exceeds the cache."""
        n, T = 48, 24
        M, B = 1024, 8  # grid (2 copies x 2304 points) >> M
        problem, plans = _problem_and_plans(n, T)
        trap = simulate_plan_cache(
            problem, plans["trap"], capacity_points=M, line_points=B
        )
        strap = simulate_plan_cache(
            problem, plans["strap"], capacity_points=M, line_points=B
        )
        loops = simulate_loops_cache(problem, capacity_points=M, line_points=B)
        assert trap.miss_ratio < loops.miss_ratio / 2
        assert strap.miss_ratio < loops.miss_ratio / 2
        # TRAP and STRAP are in the same class (paper: identical
        # asymptotics; constants differ by the cut order).
        ratio = trap.miss_ratio / strap.miss_ratio
        assert 1 / 4 < ratio < 4

    def test_loops_miss_rate_matches_streaming_model(self):
        n, T = 32, 8
        M, B = 512, 8
        problem, _ = _problem_and_plans(n, T, ())
        loops = simulate_loops_cache(problem, capacity_points=M, line_points=B)
        # Streaming sweep: ~2 lines fetched per B points per step (read row
        # + write row in different time slots).
        predicted = loops_miss_bound((n, n), T, capacity_points=M,
                                     line_points=B) * 2
        assert loops.misses == pytest.approx(predicted, rel=0.35)

    def test_everything_hits_when_cache_is_huge(self):
        n, T = 16, 8
        problem, plans = _problem_and_plans(n, T, ("trap",))
        stats = simulate_plan_cache(
            problem, plans["trap"], capacity_points=1 << 20, line_points=8
        )
        # Only compulsory misses: both time copies fetched once.
        assert stats.misses <= 2 * n * n / 8 + n  # small slack for edges

    def test_trap_within_constant_of_theory_bound(self):
        n, T = 48, 24
        M, B = 1024, 8
        problem, plans = _problem_and_plans(n, T, ("trap",))
        stats = simulate_plan_cache(
            problem, plans["trap"], capacity_points=M, line_points=B
        )
        bound = trap_miss_bound((n, n), T, capacity_points=M, line_points=B)
        assert stats.misses < 40 * bound  # generous constant, right order
        assert stats.misses > bound / 40
