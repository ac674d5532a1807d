"""The Pochoir Guarantee, mechanized.

Phase 1 (checked interpreter) is the semantic oracle; every algorithm x
codegen-mode x boundary-kind combination must reproduce its output bit
for bit.  This module is the broadest net in the suite: full cross
products on fixed problems, plus hypothesis sweeps over problem geometry.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import run_phase1
from repro.language.stencil import ALGORITHMS
from repro.trap.coarsening import NEVER_CUT
from tests.conftest import ALL_MODES, BOUNDARY_FACTORIES, make_heat_problem


@pytest.mark.parametrize("boundary", sorted(BOUNDARY_FACTORIES))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cross_product_2d(boundary, algorithm):
    sizes, T = (14, 17), 7
    st1, u1, k1 = make_heat_problem(sizes, boundary=boundary)
    run_phase1(st1, T, k1)
    ref = u1.snapshot(T)
    for mode in ALL_MODES:
        st2, u2, k2 = make_heat_problem(sizes, boundary=boundary)
        st2.run(
            T, k2,
            algorithm=algorithm, mode=mode,
            dt_threshold=2, space_thresholds=(5, 5),
        )
        assert np.array_equal(u2.snapshot(T), ref), (boundary, algorithm, mode)


@pytest.mark.parametrize("sizes", [(29,), (9, 8, 7)])
def test_cross_product_other_dims(sizes):
    T = 5
    st1, u1, k1 = make_heat_problem(sizes)
    run_phase1(st1, T, k1)
    ref = u1.snapshot(T)
    for algorithm in ("trap", "strap"):
        for mode in ALL_MODES:
            st2, u2, k2 = make_heat_problem(sizes)
            thresholds = tuple(3 for _ in sizes)
            if len(sizes) >= 3:  # never cut unit stride, as the defaults
                thresholds = thresholds[:-1] + (NEVER_CUT,)
            st2.run(
                T, k2,
                algorithm=algorithm, mode=mode,
                dt_threshold=2, space_thresholds=thresholds,
            )
            assert np.array_equal(u2.snapshot(T), ref), (sizes, algorithm, mode)


@given(
    nx=st.integers(min_value=2, max_value=24),
    ny=st.integers(min_value=2, max_value=24),
    T=st.integers(min_value=1, max_value=8),
    dt_thr=st.integers(min_value=1, max_value=6),
    s_thr=st.integers(min_value=0, max_value=12),
    boundary=st.sampled_from(sorted(BOUNDARY_FACTORIES)),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_geometry_sweep_trap_vs_loops(nx, ny, T, dt_thr, s_thr, boundary, seed):
    """Property: for random grid shapes, step counts, coarsening settings
    and boundary kinds, TRAP (vectorized) equals Phase 1."""
    sizes = (nx, ny)
    st1, u1, k1 = make_heat_problem(sizes, boundary=boundary, seed=seed)
    run_phase1(st1, T, k1)
    ref = u1.snapshot(st1.cursor)

    st2, u2, k2 = make_heat_problem(sizes, boundary=boundary, seed=seed)
    st2.run(
        T, k2,
        algorithm="trap", mode="split_pointer",
        dt_threshold=dt_thr, space_thresholds=(s_thr, s_thr),
    )
    assert np.array_equal(u2.snapshot(st2.cursor), ref)


@given(
    n=st.integers(min_value=2, max_value=48),
    T=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_geometry_sweep_strap_1d(n, T, seed):
    sizes = (n,)
    st1, u1, k1 = make_heat_problem(sizes, seed=seed)
    run_phase1(st1, T, k1)
    ref = u1.snapshot(st1.cursor)

    st2, u2, k2 = make_heat_problem(sizes, seed=seed)
    st2.run(T, k2, algorithm="strap", mode="split_pointer",
            dt_threshold=1, space_thresholds=(0,))
    assert np.array_equal(u2.snapshot(st2.cursor), ref)
