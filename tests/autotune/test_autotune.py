"""Tests for the ISAT-style tuners and the Berkeley comparator."""

import numpy as np
import pytest

from repro.autotune import tune_blocked_loops, tune_coarsening, tune_dispatch
from repro.autotune.berkeley import run_blocked_loops
from repro.errors import AutotuneError
from tests.conftest import make_heat_problem, run_reference


def _maker(sizes=(48, 48)):
    def make():
        st_, u, k = make_heat_problem(sizes)
        return st_, k

    return make


class TestCoarseningTuner:
    def test_returns_candidate_values(self):
        result = tune_coarsening(
            _maker(), 8,
            space_candidates=(8, 16), dt_candidates=(2, 4), repeats=1,
        )
        assert result.space_threshold in (8, 16)
        assert result.dt_threshold in (2, 4)
        assert result.best_time > 0
        assert result.evaluations >= 3
        assert len(result.history) == result.evaluations

    def test_best_time_is_minimum_of_history(self):
        result = tune_coarsening(
            _maker(), 8,
            space_candidates=(8, 32), dt_candidates=(2, 8), repeats=1,
        )
        assert result.best_time == min(t for _, _, t in result.history)

    def test_empty_candidates_rejected(self):
        with pytest.raises(AutotuneError):
            tune_coarsening(_maker(), 4, space_candidates=(), dt_candidates=(2,))

    def test_as_options_roundtrip(self):
        result = tune_coarsening(
            _maker(), 4, space_candidates=(16,), dt_candidates=(4,), repeats=1
        )
        opts = result.as_options(2)
        st_, u, k = make_heat_problem((48, 48))
        st_.run(4, k, **opts)  # tuned thresholds are directly runnable
        assert st_.cursor == 4

    def test_memoization_skips_revisited_points(self):
        """Coordinate descent revisits the incumbent on every sweep; the
        memo must serve those repeats, so the distinct-evaluation count
        drops below the visit count and each distinct point is timed
        exactly ``repeats`` times (one make_problem call per repeat)."""
        calls = {"n": 0}
        base = _maker()

        def counted():
            calls["n"] += 1
            return base()

        result = tune_coarsening(
            counted, 4,
            space_candidates=(8, 16, 32), dt_candidates=(2, 4), repeats=1,
            max_sweeps=3,
        )
        assert result.visits > result.evaluations  # repeats were requested…
        assert calls["n"] == result.evaluations  # …but never re-run
        assert result.evaluations == len(result.history)


class TestDispatchTuner:
    def test_covers_full_dispatch_space(self):
        result = tune_dispatch(
            _maker((32, 32)), 4,
            modes=("split_pointer",),
            space_candidates=(8, 16),
            dt_candidates=(2, 4),
            worker_candidates=(1, 2),
            max_sweeps=1,
        )
        cfg = result.config
        assert cfg.space_thresholds[0] in (8, 16)
        assert cfg.space_thresholds[1] in (8, 16)
        assert cfg.dt_threshold in (2, 4)
        assert cfg.mode == "split_pointer"
        assert cfg.n_workers in (1, 2)
        assert cfg.best_time == result.best_time > 0
        assert result.visits > result.evaluations  # memo served the sweeps
        assert result.evaluations == len(result.history)
        assert cfg.tuned_unix_time > 0

    def test_per_dimension_thresholds_tuned_independently(self):
        # An asymmetric candidate list can land different thresholds per
        # dimension — the config records one entry per dimension.
        result = tune_dispatch(
            _maker((32, 32)), 4,
            modes=("split_pointer",),
            space_candidates=(8, 32),
            dt_candidates=(4,),
            worker_candidates=(1,),
            max_sweeps=1,
        )
        assert len(result.config.space_thresholds) == 2

    def test_best_time_is_minimum_of_history(self):
        result = tune_dispatch(
            _maker((32, 32)), 4,
            modes=("split_pointer",),
            space_candidates=(8, 16),
            dt_candidates=(2,),
            worker_candidates=(1,),
            max_sweeps=1,
        )
        assert result.best_time == min(t for _, t in result.history)

    def test_no_modes_rejected(self):
        with pytest.raises(AutotuneError):
            tune_dispatch(_maker(), 4, modes=())

    @pytest.mark.parametrize("executor", ["threads", "quantum"])
    def test_unknown_executor_candidate_rejected(self, executor):
        with pytest.raises(AutotuneError, match="executor candidate"):
            tune_dispatch(
                _maker(), 4, executor_candidates=(None, "dag", executor)
            )


class TestBerkeleyComparator:
    def test_blocked_loops_match_reference(self):
        sizes, T = (20, 18), 6
        ref = run_reference(sizes, T)
        st_, u, k = make_heat_problem(sizes)
        run_blocked_loops(st_, T, k, block=(7, 1 << 30))
        assert np.array_equal(u.snapshot(st_.cursor), ref)

    def test_tuner_reports_throughput(self):
        result = tune_blocked_loops(
            _maker((32, 32)), 4, block_candidates=(8, 16)
        )
        assert result.configurations_tried == 2
        assert result.points_per_second > 0
        assert result.block[-1] == 1 << 30  # unit-stride never blocked

    def test_3d_blocks_two_outer_dims(self):
        def make():
            st_, u, k = make_heat_problem((12, 12, 12))
            return st_, k

        result = tune_blocked_loops(make, 2, block_candidates=(4, 8))
        assert result.configurations_tried == 4  # 2 outer dims x 2 options
