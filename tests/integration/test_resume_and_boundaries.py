"""Integration tests: resumable runs and boundary re-registration.

Section 2 of the paper specifies both behaviours: `Run` may be called
repeatedly ("the programmer may resume the running of the stencil after
examining the result"), and "the programmer can change boundary functions
by registering a new one".
"""

import numpy as np
import pytest

from repro import (
    ConstantBoundary,
    Kernel,
    PeriodicBoundary,
    PochoirArray,
    Stencil,
    run_phase1,
)
from repro.apps.heat import heat_kernel, heat_shape


def _build(boundary):
    u = PochoirArray("u", (24, 24)).register_boundary(boundary)
    st = Stencil(2, heat_shape(2))
    st.register_array(u)
    k = heat_kernel(u, (0.1, 0.1))
    u.set_initial(np.random.default_rng(0).random((24, 24)))
    return st, u, k


def test_many_small_runs_equal_one_big_run():
    st1, u1, k1 = _build(PeriodicBoundary())
    st1.run(12, k1)
    ref = u1.snapshot(12)

    st2, u2, k2 = _build(PeriodicBoundary())
    for chunk in (1, 2, 3, 6):
        st2.run(chunk, k2)
    assert st2.cursor == 12
    assert np.array_equal(u2.snapshot(12), ref)


def test_resume_across_algorithms():
    """Resuming with a different algorithm/mode continues correctly —
    state lives in the arrays, not the execution engine."""
    st1, u1, k1 = _build(PeriodicBoundary())
    st1.run(10, k1)
    ref = u1.snapshot(10)

    st2, u2, k2 = _build(PeriodicBoundary())
    st2.run(4, k2, algorithm="trap", mode="split_pointer")
    run_phase1(st2, 3, k2)
    st2.run(3, k2, algorithm="strap", mode="split_pointer")
    assert np.array_equal(u2.snapshot(10), ref)


def test_boundary_reregistration_changes_behavior():
    st, u, k = _build(ConstantBoundary(0.0))
    st.run(5, k)
    cold_mean = u.snapshot(st.cursor).mean()

    # Re-register a hot boundary and continue: heat flows in.
    u.register_boundary(ConstantBoundary(50.0))
    st.run(25, k)
    hot_mean = u.snapshot(st.cursor).mean()
    assert hot_mean > cold_mean


def test_intermediate_results_readable_between_runs():
    st, u, k = _build(PeriodicBoundary())
    total_before = u.snapshot(0).sum()
    st.run(3, k)
    mid = u.snapshot(3)
    # Periodic heat conserves total mass.
    assert mid.sum() == pytest.approx(total_before, rel=1e-12)
    st.run(3, k)
    assert u.snapshot(6).sum() == pytest.approx(total_before, rel=1e-12)
