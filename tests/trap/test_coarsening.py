"""Tests for base-case coarsening heuristics."""

from repro.trap.coarsening import (
    NEVER_CUT,
    default_dt_threshold,
    default_space_thresholds,
    paper_thresholds,
    uncoarsened,
)


def test_defaults_cover_dimensions():
    for ndim in (1, 2, 3, 4, 5):
        sizes = (64,) * ndim
        thr = default_space_thresholds(ndim, sizes)
        assert len(thr) == ndim
        assert all(t >= 1 for t in thr)
        assert default_dt_threshold(ndim) >= 1


def test_defaults_clamped_to_grid():
    thr = default_space_thresholds(2, (16, 16))
    assert all(t <= 16 for t in thr)


def test_unit_stride_kept_wide_for_3d():
    # paper: never cut the unit-stride dimension (>= 3D), on any backend
    # and unclamped by the grid
    for mode in (None, "c"):
        for ndim in (3, 4):
            thr = default_space_thresholds(ndim, (16,) * ndim, mode)
            assert thr[-1] == NEVER_CUT
            assert NEVER_CUT not in thr[:-1]
    assert NEVER_CUT not in default_space_thresholds(2, (1024, 1024))


def test_paper_constants_verbatim():
    assert paper_thresholds(2) == ((100, 100), 5)
    space, dt = paper_thresholds(3)
    assert space == (3, 3, 1000) and dt == 3


def test_uncoarsened_all_zero():
    space, dt = uncoarsened(3)
    assert space == (0, 0, 0) and dt == 1
