"""Tests for PochoirArray: time windows, accessors, symbolic building."""

import numpy as np
import pytest

from repro.errors import BoundaryError, KernelError, SpecificationError
from repro.expr.nodes import Assign
from repro.language.array import ConstArray, GridAccess, PochoirArray
from repro.language.boundary import ConstantBoundary, PeriodicBoundary
from repro.language.kernel import make_axes


class TestConstruction:
    def test_basic(self):
        u = PochoirArray("u", (4, 6))
        assert u.sizes == (4, 6)
        assert u.slots == 2
        assert u.data.shape == (2, 4, 6)

    def test_depth_two_gets_three_slots(self):
        u = PochoirArray("u", (4,), depth=2)
        assert u.slots == 3

    @pytest.mark.parametrize("bad", ["", "not valid", "1u"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(SpecificationError):
            PochoirArray(bad, (4,))

    def test_bad_sizes_rejected(self):
        with pytest.raises(SpecificationError):
            PochoirArray("u", ())
        with pytest.raises(SpecificationError):
            PochoirArray("u", (0,))

    def test_bad_depth_rejected(self):
        with pytest.raises(SpecificationError):
            PochoirArray("u", (4,), depth=0)


class TestConcreteAccess:
    def test_set_get_roundtrip(self):
        u = PochoirArray("u", (4,))
        u[0, 2] = 7.0
        assert u[0, 2] == 7.0
        assert u(0, 2) == 7.0  # concrete call is a read

    def test_time_window_enforced(self):
        u = PochoirArray("u", (4,))
        u[0, 0] = 1.0
        u[1, 0] = 2.0
        u[2, 0] = 3.0  # overwrote slot of level 0
        with pytest.raises(SpecificationError, match="not live"):
            u.get(0, (0,))
        assert u[1, 0] == 2.0
        assert u[2, 0] == 3.0

    def test_future_read_rejected(self):
        u = PochoirArray("u", (4,))
        with pytest.raises(SpecificationError, match="not live"):
            u.get(5, (0,))

    def test_off_domain_concrete_access_rejected(self):
        u = PochoirArray("u", (4,))
        with pytest.raises(BoundaryError):
            u[0, 9] = 1.0
        with pytest.raises(BoundaryError):
            u.get(0, (9,))

    def test_set_initial_and_snapshot(self):
        u = PochoirArray("u", (3, 3))
        vals = np.arange(9.0).reshape(3, 3)
        u.set_initial(vals)
        assert np.array_equal(u.snapshot(0), vals)

    def test_set_initial_shape_mismatch(self):
        u = PochoirArray("u", (3, 3))
        with pytest.raises(SpecificationError, match="shape"):
            u.set_initial(np.zeros((2, 2)))

    def test_fill_initial(self):
        u = PochoirArray("u", (3, 4))
        u.fill_initial(lambda i, j: 10 * i + j)
        assert u[0, 2, 3] == 23.0


class TestCheckedAccess:
    def test_read_at_in_domain(self):
        u = PochoirArray("u", (4,))
        u[0, 1] = 5.0
        assert u.read_at(0, (1,)) == 5.0

    def test_read_at_off_domain_uses_boundary(self):
        u = PochoirArray("u", (4,)).register_boundary(ConstantBoundary(9.0))
        assert u.read_at(0, (-1,)) == 9.0
        assert u.read_at(0, (4,)) == 9.0

    def test_read_at_off_domain_without_boundary_raises(self):
        u = PochoirArray("u", (4,))
        with pytest.raises(BoundaryError, match="no\\s+boundary"):
            u.read_at(0, (-1,))

    def test_periodic_read_at(self):
        u = PochoirArray("u", (4,)).register_boundary(PeriodicBoundary())
        u[0, 3] = 2.5
        assert u.read_at(0, (-1,)) == 2.5
        assert u.read_at(0, (7,)) == 2.5

    def test_register_boundary_type_checked(self):
        u = PochoirArray("u", (4,))
        with pytest.raises(SpecificationError):
            u.register_boundary(lambda *a: 0.0)  # not a Boundary


class TestSymbolicAccess:
    def test_symbolic_call_builds_access(self):
        u = PochoirArray("u", (4, 4))
        t, x, y = make_axes(2)
        node = u(t + 1, x - 1, y + 2)
        assert isinstance(node, GridAccess)
        assert node.dt == 1
        assert node.offsets == (-1, 2)

    def test_write_via_lshift(self):
        u = PochoirArray("u", (4,))
        t, x = make_axes(1)
        st = u(t + 1, x) << u(t, x)
        assert isinstance(st, Assign)
        assert st.target.array == "u" and st.target.dt == 1

    def test_write_off_home_rejected(self):
        u = PochoirArray("u", (4,))
        t, x = make_axes(1)
        with pytest.raises(KernelError, match="home cell"):
            u(t + 1, x + 1) << u(t, x)

    def test_wrong_arity_rejected(self):
        u = PochoirArray("u", (4, 4))
        t, x, y = make_axes(2)
        with pytest.raises(KernelError, match="subscripts"):
            u(t, x)

    def test_time_axis_required_first(self):
        u = PochoirArray("u", (4,))
        t, x = make_axes(1)
        with pytest.raises(KernelError, match="time axis"):
            u(x, x)

    def test_axis_order_enforced(self):
        u = PochoirArray("u", (4, 4))
        t, x, y = make_axes(2)
        with pytest.raises(KernelError, match="declaration order"):
            u(t, y, x)

    def test_constant_spatial_subscript_rejected(self):
        u = PochoirArray("u", (4,))
        t, x = make_axes(1)
        with pytest.raises(KernelError, match="bare constant"):
            u(t, 3)


class TestConstArray:
    def test_concrete_read(self):
        c = ConstArray("c", np.array([1.0, 2.0, 3.0]))
        assert c(1) == 2.0

    def test_clamped_read(self):
        c = ConstArray("c", np.array([1.0, 2.0, 3.0]))
        assert c.read((-5,)) == 1.0
        assert c.read((99,)) == 3.0

    def test_symbolic_read_any_affine(self):
        c = ConstArray("c", np.arange(8.0))
        t, x = make_axes(1)
        node = c(t + x - 2)  # multi-axis affine is fine for const arrays
        from repro.expr.nodes import ConstArrayRead

        assert isinstance(node, ConstArrayRead)

    def test_arity_checked(self):
        c = ConstArray("c", np.zeros((2, 2)))
        t, x = make_axes(1)
        with pytest.raises(KernelError):
            c(x)


class TestLayoutContract:
    """One layout, ``(slots, *sizes)`` C-contiguous float64, checked where
    a grid enters and kept by every verb that copies into one."""

    BAD_DATA = {
        "wrong-shape": lambda u: np.zeros((u.slots, 8, 9)),
        "float32": lambda u: np.zeros(u.data.shape, dtype=np.float32),
        "non-contiguous": lambda u: np.zeros(u.data.shape[::-1]).T,
    }

    def test_no_dtype_knob(self):
        with pytest.raises(TypeError):
            PochoirArray("u", (4,), dtype=np.float32)

    def test_strides_points_is_the_buffer_layout(self):
        u = PochoirArray("u", (3, 5, 7), depth=2)
        assert u.strides_points() == (105, 35, 7, 1)
        assert tuple(s // 8 for s in u.data.strides) == u.strides_points()

    @pytest.mark.parametrize("bad", sorted(BAD_DATA))
    def test_check_layout_rejects(self, bad):
        u = PochoirArray("u", (9, 8))
        buf = self.BAD_DATA[bad](u)
        with pytest.raises(SpecificationError, match="C-contiguous float64"):
            u.check_layout(buf)
        with pytest.raises(SpecificationError):
            u.load(buf)
        u.data = buf
        with pytest.raises(SpecificationError):
            u.check_layout()

    def test_save_load_round_trip_in_place(self):
        u = PochoirArray("u", (4, 4))
        u.set_initial(np.arange(16.0).reshape(4, 4))
        buf, saved = u.data, u.save()
        u.data[...] = -1.0
        u.load(saved, latest=0)
        assert u.data is buf
        assert np.array_equal(u.snapshot(0), np.arange(16.0).reshape(4, 4))

    def test_clone_is_a_private_twin(self):
        u = PochoirArray("u", (4,), depth=2).register_boundary(PeriodicBoundary())
        u.set_initial(np.arange(4.0), t=0)
        u.set_initial(np.ones(4), t=1)
        twin = u.clone()
        assert (twin.name, twin.sizes, twin.depth) == ("u", (4,), 2)
        assert twin.boundary is u.boundary
        assert np.array_equal(twin.snapshot(1), u.snapshot(1))
        twin.data[...] = 7.0
        assert np.array_equal(u.snapshot(0), np.arange(4.0))

    def test_stack_grids(self):
        from repro.language.array import stack_grids

        a, b = PochoirArray("u", (3, 4)), PochoirArray("u", (3, 4))
        a.data[...], b.data[...] = 1.0, 2.0
        one = stack_grids([a])
        assert one.shape == (1, 2, 3, 4) and np.shares_memory(one, a.data)
        two = stack_grids([a, b])
        assert two.shape == (2, 2, 3, 4) and two.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(two, a.data)
        assert (two[0] == 1.0).all() and (two[1] == 2.0).all()

    def test_unpickling_checks_the_layout(self):
        import pickle

        u = PochoirArray("u", (4, 4))
        assert pickle.loads(pickle.dumps(u)).check_layout().shape == (2, 4, 4)
        u.data = np.zeros((2, 4, 5))
        blob = pickle.dumps(u)
        with pytest.raises(SpecificationError):
            pickle.loads(blob)

    @pytest.mark.parametrize("bad", sorted(BAD_DATA))
    def test_bad_grid_fails_typed_before_compile(self, bad, monkeypatch):
        """Every mode (and Phase 1) refuses the grid in ``prepare``: no
        compile is attempted, so no ``cc:compile-failed`` degradation."""
        from repro import run_phase1
        from repro.compiler import pipeline
        from repro.trap import driver
        from tests.conftest import make_heat_problem

        def no_execute(*a, **kw):
            raise AssertionError("a bad grid reached execution")

        monkeypatch.setattr(driver, "execute_problem", no_execute)
        runs = [
            lambda st, k, m=m: st.run(2, k, mode=m)
            for m in pipeline.available_modes()
        ]
        for run in runs + [lambda st, k: run_phase1(st, 2, k)]:
            st, u, k = make_heat_problem((9, 8))
            u.data = self.BAD_DATA[bad](u)
            with pytest.raises(SpecificationError, match="C-contiguous"):
                run(st, k)
            assert st.cursor is None
