"""Tests for the Stencil object: registration, preparation, execution."""

import numpy as np
import pytest

from repro.errors import SpecificationError
from repro.language.array import ConstArray, PochoirArray
from repro.language.boundary import PeriodicBoundary
from repro.language.kernel import Kernel
from repro.language.shape import Shape
from repro.language.stencil import ALGORITHMS, MODES, RunOptions, Stencil

HEAT_1D = Shape.from_cells([(1, 0), (0, 0), (0, 1), (0, -1)])


def simple_1d(n=16, shape=HEAT_1D):
    u = PochoirArray("u", (n,)).register_boundary(PeriodicBoundary())
    st = Stencil(1, shape)
    st.register_array(u)
    k = Kernel(
        1, lambda t, x: u(t + 1, x) << 0.25 * u(t, x - 1) + 0.5 * u(t, x)
        + 0.25 * u(t, x + 1)
    )
    u.set_initial(np.arange(float(n)))
    return st, u, k


class TestRegistration:
    def test_dim_mismatch_rejected(self):
        st = Stencil(2)
        with pytest.raises(SpecificationError, match="2-D"):
            st.register_array(PochoirArray("u", (4,)))

    def test_size_mismatch_rejected(self):
        st = Stencil(1)
        st.register_array(PochoirArray("u", (4,)))
        with pytest.raises(SpecificationError, match="share spatial sizes"):
            st.register_array(PochoirArray("v", (5,)))

    def test_duplicate_name_rejected(self):
        st = Stencil(1)
        st.register_array(PochoirArray("u", (4,)))
        with pytest.raises(SpecificationError, match="twice"):
            st.register_array(PochoirArray("u", (4,)))

    def test_const_array_name_collision_rejected(self):
        st = Stencil(1)
        st.register_array(PochoirArray("u", (4,)))
        with pytest.raises(SpecificationError, match="in use"):
            st.register_const_array(ConstArray("u", np.zeros(4)))

    def test_shape_dim_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            Stencil(2, HEAT_1D)

    def test_no_arrays_rejected(self):
        st = Stencil(1, HEAT_1D)
        k = Kernel(1, lambda t, x: None)
        with pytest.raises(SpecificationError, match="no arrays"):
            st.prepare(1, k)


class TestPrepare:
    def test_time_levels(self):
        st, u, k = simple_1d()
        p = st.prepare(5, k)
        assert (p.t_start, p.t_end) == (1, 6)

    def test_depth_capacity_checked(self):
        # Depth-2 shape needs 3 slots; a default array has only 2.
        shape = Shape.from_cells([(1, 0), (0, 0), (-1, 0)])
        u = PochoirArray("u", (8,)).register_boundary(PeriodicBoundary())
        st = Stencil(1, shape)
        st.register_array(u)
        k = Kernel(1, lambda t, x: u(t + 1, x) << u(t, x) + u(t - 1, x))
        with pytest.raises(SpecificationError, match="time slots"):
            st.prepare(1, k)

    def test_kernel_dim_mismatch(self):
        st, u, k1 = simple_1d()
        k2 = Kernel(2, lambda t, x, y: None)
        with pytest.raises(SpecificationError, match="2-D"):
            st.prepare(1, k2)

    def test_negative_steps_rejected(self):
        st, u, k = simple_1d()
        with pytest.raises(SpecificationError):
            st.prepare(-1, k)

    def test_shape_inferred_when_undeclared(self):
        st, u, k = simple_1d(shape=None)
        st.shape = None
        p = st.prepare(1, k)
        assert p.shape.slopes == (1,)


class TestRun:
    def test_zero_steps_noop(self):
        st, u, k = simple_1d()
        before = u.snapshot(0)
        report = st.run(0, k)
        assert report.points_updated == 0
        assert np.array_equal(u.snapshot(0), before)

    def test_resume_equals_single_run(self):
        st1, u1, k1 = simple_1d()
        st1.run(10, k1)
        one_shot = u1.snapshot(10)

        st2, u2, k2 = simple_1d()
        st2.run(4, k2)
        st2.run(6, k2)
        assert st2.cursor == 10
        assert np.array_equal(u2.snapshot(10), one_shot)

    def test_report_fields(self):
        st, u, k = simple_1d()
        rep = st.run(4, k)
        assert rep.algorithm == "trap"
        assert rep.points_updated == 16 * 4
        assert rep.base_cases >= 1
        assert rep.t_start == 1 and rep.t_end == 5
        assert rep.points_per_second > 0

    def test_kwarg_overrides(self):
        st, u, k = simple_1d()
        rep = st.run(2, k, algorithm="serial_loops", mode="split_pointer")
        assert rep.algorithm == "serial_loops"
        assert rep.mode == "split_pointer"

    def test_phase1_algorithm_option(self):
        """Phase 1 is run_phase1, not a run option: asking a run for it
        fails before anything runs, and says where Phase 1 is."""
        st, u, k = simple_1d()
        with pytest.raises(SpecificationError, match=r"run_phase1\("):
            st.run(2, k, algorithm="phase1")
        assert st.cursor is None


class TestRunOptions:
    def test_unknown_algorithm(self):
        with pytest.raises(SpecificationError, match="algorithm"):
            RunOptions(algorithm="magic")

    def test_unknown_mode(self):
        with pytest.raises(SpecificationError, match="mode"):
            RunOptions(mode="llvm")

    def test_unknown_executor(self):
        with pytest.raises(SpecificationError, match="executor"):
            RunOptions(executor="gpu")

    def test_options_name_one_list_each(self):
        for mode in MODES:
            assert RunOptions(mode=mode).mode == mode
        for algorithm in ALGORITHMS:
            assert RunOptions(algorithm=algorithm).algorithm == algorithm
        assert MODES == ("auto", "split_pointer", "c")
        assert ALGORITHMS == ("trap", "strap", "loops", "serial_loops")

    def test_params_flow_to_kernel(self):
        from repro.expr.nodes import Param

        n = 8
        u = PochoirArray("u", (n,)).register_boundary(PeriodicBoundary())
        st = Stencil(1)
        st.register_array(u)
        k = Kernel(1, lambda t, x: u(t + 1, x) << u(t, x) * Param("decay"))
        u.set_initial(np.ones(n))
        st.set_param("decay", 0.5)
        st.run(2, k)
        assert np.allclose(u.snapshot(2), 0.25)
