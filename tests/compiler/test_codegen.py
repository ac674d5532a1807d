"""Cross-backend equivalence and generated-source tests.

The compiled backends must agree with the tree-walking reference bit for
bit on every expressible kernel construct — this is the mechanized form
of the Pochoir Guarantee.  A hypothesis test builds random arithmetic
kernels and checks all backends against the interpreter.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ConstantBoundary,
    DirichletBoundary,
    Kernel,
    NeumannBoundary,
    PeriodicBoundary,
    PochoirArray,
    Stencil,
    eq_,
    fmath,
    let,
    local,
    maximum,
    where,
)
from repro.compiler.frontend import build_ir
from repro.compiler import codegen_numpy, codegen_python
from tests.conftest import ALL_MODES, has_c_backend


def run_all_modes(make, T, modes=None):
    """Run a fresh problem in each mode; assert all results identical."""
    modes = modes or ALL_MODES
    results = {}
    for mode in modes:
        stencil, arrays, kernel = make()
        stencil.run(T, kernel, mode=mode, dt_threshold=2,
                    space_thresholds=tuple(4 for _ in stencil.sizes))
        results[mode] = [a.snapshot(stencil.cursor) for a in arrays]
    reference = results[modes[0]]
    for mode, snaps in results.items():
        for ref, got in zip(reference, snaps):
            assert np.array_equal(ref, got), f"{mode} diverged"
    return reference


class TestConstructEquivalence:
    """Each DSL construct, swept across every backend."""

    def test_where_and_comparisons(self):
        def make():
            u = PochoirArray("u", (13,)).register_boundary(PeriodicBoundary())
            s = Stencil(1)
            s.register_array(u)
            k = Kernel(
                1,
                lambda t, x: u(t + 1, x)
                << where(
                    (u(t, x - 1) > u(t, x + 1)) & ~(u(t, x) < 0.3),
                    u(t, x) * 2.0,
                    u(t, x) - 1.0,
                ),
            )
            u.set_initial(np.random.default_rng(3).random(13))
            return s, [u], k

        run_all_modes(make, 5)

    def test_math_calls(self):
        def make():
            u = PochoirArray("u", (11,)).register_boundary(NeumannBoundary())
            s = Stencil(1)
            s.register_array(u)
            k = Kernel(
                1,
                lambda t, x: u(t + 1, x)
                << 0.3 * fmath.exp(-u(t, x)) + 0.2 * fmath.sqrt(
                    fmath.fabs(u(t, x - 1))
                ) + 0.1 * fmath.cos(u(t, x + 1)),
            )
            u.set_initial(np.random.default_rng(4).random(11))
            return s, [u], k

        run_all_modes(make, 4)

    def test_min_max_mod_pow(self):
        def make():
            u = PochoirArray("u", (12,)).register_boundary(ConstantBoundary(0.5))
            s = Stencil(1)
            s.register_array(u)
            k = Kernel(
                1,
                lambda t, x: u(t + 1, x)
                << maximum(u(t, x - 1) % 0.7, u(t, x)) ** 2.0
                + (u(t, x + 1) * 0.5),
            )
            u.set_initial(np.random.default_rng(5).random(12) + 0.1)
            return s, [u], k

        run_all_modes(make, 4)

    def test_lets_and_locals(self):
        def make():
            u = PochoirArray("u", (10,)).register_boundary(PeriodicBoundary())
            v = PochoirArray("v", (10,)).register_boundary(PeriodicBoundary())
            s = Stencil(1)
            s.register_array(u)
            s.register_array(v)

            def body(t, x):
                return [
                    let("avg", 0.5 * (u(t, x - 1) + u(t, x + 1))),
                    u(t + 1, x) << local("avg"),
                    v(t + 1, x) << local("avg") - v(t, x) * 0.1,
                ]

            k = Kernel(1, body)
            rng = np.random.default_rng(6)
            u.set_initial(rng.random(10))
            v.set_initial(rng.random(10))
            return s, [u, v], k

        run_all_modes(make, 4)

    def test_same_level_read_after_write(self):
        def make():
            u = PochoirArray("u", (10,)).register_boundary(PeriodicBoundary())
            w = PochoirArray("w", (10,)).register_boundary(PeriodicBoundary())
            s = Stencil(1)
            s.register_array(u)
            s.register_array(w)

            def body(t, x):
                return [
                    u(t + 1, x) << 0.5 * (u(t, x - 1) + u(t, x + 1)),
                    # reads u's *just written* level at the home point
                    w(t + 1, x) << u(t + 1, x) * 2.0 + w(t, x) * 0.25,
                ]

            k = Kernel(1, body)
            rng = np.random.default_rng(7)
            u.set_initial(rng.random(10))
            w.set_initial(rng.random(10))
            return s, [u, w], k

        run_all_modes(make, 5)

    def test_index_values_in_expressions(self):
        def make():
            u = PochoirArray("u", (9, 7)).register_boundary(PeriodicBoundary())
            s = Stencil(2)
            s.register_array(u)
            k = Kernel(
                2,
                lambda t, x, y: u(t + 1, x, y)
                << u(t, x, y) * 0.5 + 0.001 * (x + 2 * y) + 0.01 * t,
            )
            u.set_initial(np.random.default_rng(8).random((9, 7)))
            return s, [u], k

        run_all_modes(make, 4)

    def test_dirichlet_time_varying_boundary(self):
        from repro import DirichletBoundary

        def make():
            u = PochoirArray("u", (9,)).register_boundary(
                DirichletBoundary(base=10.0, per_step=0.5)
            )
            s = Stencil(1)
            s.register_array(u)
            k = Kernel(
                1, lambda t, x: u(t + 1, x) << 0.25 * u(t, x - 1)
                + 0.5 * u(t, x) + 0.25 * u(t, x + 1)
            )
            u.set_initial(np.zeros(9))
            return s, [u], k

        result = run_all_modes(make, 4)
        assert result[0].max() > 0  # boundary heat leaked in


# Expression specs are drawn eagerly as nested tuples, then materialized
# deterministically per backend — every backend sees the *same* kernel.
_leaf = st.one_of(
    st.integers(min_value=-1, max_value=1).map(lambda o: ("read", o)),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
        lambda c: ("const", c)
    ),
)


def _exprs(depth: int):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from(["+", "-", "*", "min", "max"]), sub, sub),
    )


def _materialize(spec, u, t, x):
    from repro.expr.builder import maximum as mx, minimum as mn
    from repro.expr.nodes import BinOp, as_expr

    if spec[0] == "read":
        return u(t, x + spec[1])
    if spec[0] == "const":
        return as_expr(spec[1])
    op, l_spec, r_spec = spec
    left = as_expr(_materialize(l_spec, u, t, x))
    right = as_expr(_materialize(r_spec, u, t, x))
    if op == "min":
        return mn(left, right)
    if op == "max":
        return mx(left, right)
    return BinOp(op, left, right)


@given(spec=_exprs(3), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_random_kernels_agree_across_backends(spec, seed):
    """Property: arbitrary arithmetic kernels produce identical results in
    every backend (interp / macro_shadow / split_pointer [/ c])."""

    def make():
        u = PochoirArray("u", (9,)).register_boundary(PeriodicBoundary())
        s = Stencil(1)
        s.register_array(u)
        k = Kernel(
            1,
            lambda t, x: u(t + 1, x) << _materialize(spec, u, t, x) * 0.4,
        )
        u.set_initial(np.random.default_rng(seed).random(9))
        return s, [u], k

    # Exclude C from the hypothesis sweep to keep it fast (the C backend
    # is exercised by the parametrized construct tests above).
    run_all_modes(make, 3, modes=["interp", "macro_shadow", "split_pointer"])


class TestGeneratedSources:
    def test_macro_shadow_interior_has_no_checked_access(self):
        from tests.conftest import make_heat_problem

        st_, u, k = make_heat_problem((8, 8))
        ir = build_ir(st_.prepare(1, k))
        src, _ = codegen_python.compile_clone(ir, boundary_mode=False)
        assert "read_at" not in src  # the point of the macro trick
        assert "R_u" not in src
        assert "D_u[" in src

    def test_macro_shadow_boundary_uses_checked_access(self):
        from tests.conftest import make_heat_problem

        st_, u, k = make_heat_problem((8, 8))
        ir = build_ir(st_.prepare(1, k))
        src, _ = codegen_python.compile_clone(ir, boundary_mode=True)
        assert "R_u(" in src
        assert "% 8" in src  # virtual -> true coordinate reduction

    def test_numpy_interior_is_sliced(self):
        from tests.conftest import make_heat_problem

        st_, u, k = make_heat_problem((8, 8))
        ir = build_ir(st_.prepare(1, k))
        kernel = codegen_numpy.compile_numpy_clones(ir)
        src, _, _ = kernel["interior"]
        assert "l0:h0" in src or "l0+1:h0+1" in src
        # fully vectorized: the job loop is the only python loop
        assert src.count("for ") == 1 and "for _b in range(NB):" in src

    @pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
    def test_c_source_structure(self):
        from repro.compiler.codegen_c import generate_c_source
        from tests.conftest import make_heat_problem

        st_, u, k = make_heat_problem((8, 8))
        ir = build_ir(st_.prepare(1, k))
        src = generate_c_source(ir)
        assert "static void interior_step(" in src
        assert "static void boundary_step(" in src
        assert "#define MOD" in src
        assert "for (i64 x0" in src
        # the only exported symbols: one nb-taking entry point per clone
        assert set(re.findall(r"^void (\w+)\(", src, re.M)) == {
            "interior_step_batch",
            "boundary_step_batch",
            "leaf_batch",
            "leaf_boundary_batch",
            "walk_subtree_batch",
        }


#: Boundary and kernel constants every backend must spell exactly: the
#: non-finite doubles (``repr`` gives bare ``inf``/``nan``), a negative
#: NaN, and a negative zero.
_INF, _NAN = float("inf"), float("nan")
NON_FINITE_CASES = {
    "fill-inf": (ConstantBoundary(_INF), None),
    "fill-neg-inf": (ConstantBoundary(-_INF), None),
    "fill-nan": (ConstantBoundary(_NAN), None),
    "dirichlet-inf": (DirichletBoundary(_INF, 0.5), None),
    "kernel-inf": (PeriodicBoundary(), _INF),
    "kernel-neg-nan": (ConstantBoundary(0.0), -_NAN),
    "kernel-neg-zero": (PeriodicBoundary(), -0.0),
}


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_constants_round_trip_bitwise(case, mode):
    """Each backend's constant spelling yields exactly the double Phase 1
    uses: the results match ``run_phase1`` byte for byte."""
    from repro import run_phase1
    from repro.apps.heat import heat_shape

    boundary, const = NON_FINITE_CASES[case]

    def make():
        u = PochoirArray("u", (16, 16)).register_boundary(boundary)
        s = Stencil(2, heat_shape(2))
        s.register_array(u)
        u.set_initial(np.random.default_rng(5).random((16, 16)))

        def body(t, x, y):
            heat = 0.5 * u(t, x, y) + 0.125 * (
                u(t, x + 1, y) + u(t, x - 1, y) + u(t, x, y + 1) + u(t, x, y - 1)
            )
            if const is not None:
                heat = where(u(t, x, y) < 0.3, const, heat)
            return [u(t + 1, x, y) << heat]

        return s, u, Kernel(2, body)

    s_ref, u_ref, k_ref = make()
    run_phase1(s_ref, 5, k_ref)
    s, u, k = make()
    report = s.run(5, k, mode=mode, dt_threshold=2, space_thresholds=(6, 6))
    assert report.degradations == []
    assert u.snapshot(s.cursor).tobytes() == u_ref.snapshot(s_ref.cursor).tobytes()
