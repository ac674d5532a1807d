"""Tests for the compile pipeline: mode dispatch, caching, fallbacks."""

import numpy as np
import pytest

from repro import (
    Kernel,
    PeriodicBoundary,
    PochoirArray,
    PythonBoundary,
    Stencil,
)
from repro.compiler.pipeline import (
    available_modes,
    clear_cache,
    compile_kernel,
    resolve_mode,
)
from repro.errors import CompileError
from tests.conftest import has_c_backend, make_heat_problem


def test_available_modes_minimum():
    modes = available_modes()
    assert "interp" in modes
    assert "macro_shadow" in modes
    assert "split_pointer" in modes


def test_available_modes_includes_auto():
    """The documented default mode must pass validation against the list
    of usable modes (callers gate user-supplied modes on it)."""
    modes = available_modes()
    assert "auto" in modes
    # Every advertised mode must be accepted by RunOptions.
    from repro.language.stencil import RunOptions

    for mode in modes:
        RunOptions(mode=mode)


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
def test_auto_is_c_with_a_toolchain():
    st, u, k = make_heat_problem((8, 8))
    assert resolve_mode("auto") == "c"
    compiled = compile_kernel(st.prepare(1, k), "auto")
    assert compiled.mode == "c"


def test_auto_is_split_pointer_without_a_toolchain(monkeypatch):
    """No toolchain is the documented default path for ``auto``, not a
    fallback: the run lands on NumPy and records no degradation."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    assert resolve_mode("auto") == "split_pointer"
    st, u, k = make_heat_problem((8, 8))
    report = st.run(2, k)
    assert report.mode == "split_pointer"
    assert report.degradations == []


def test_unknown_mode_rejected():
    st, u, k = make_heat_problem((8, 8))
    problem = st.prepare(1, k)
    with pytest.raises(CompileError):
        compile_kernel(problem, "jit")


def test_cache_hits_for_same_problem():
    st, u, k = make_heat_problem((8, 8))
    p1 = st.prepare(1, k)
    c1 = compile_kernel(p1, "split_pointer")
    c2 = compile_kernel(st.prepare(1, k), "split_pointer")
    assert c1 is c2


def test_cache_distinguishes_arrays():
    st1, u1, k1 = make_heat_problem((8, 8), seed=0)
    st2, u2, k2 = make_heat_problem((8, 8), seed=1)
    c1 = compile_kernel(st1.prepare(1, k1), "split_pointer")
    c2 = compile_kernel(st2.prepare(1, k2), "split_pointer")
    assert c1 is not c2  # different backing buffers


def test_cache_is_bounded():
    """Tokens are never reused, so without an eviction bound the cache
    would pin one compiled kernel (and its arrays' buffers) per
    short-lived stencil forever."""
    import repro.compiler.pipeline as pipeline

    clear_cache()
    for _ in range(pipeline._CACHE_LIMIT + 8):
        st, u, k = make_heat_problem((8, 8))
        compile_kernel(st.prepare(1, k), "interp")
    assert len(pipeline._CACHE) <= pipeline._CACHE_LIMIT


def test_cache_distinguishes_const_arrays():
    """Regression: kernels close over ConstArray values, but the IR cache
    key carries only const-array *names* — two stencils with same-named
    const arrays holding different values must not share a kernel."""
    import numpy as np

    from repro import ConstArray, Kernel, PochoirArray, Stencil

    # One shared state array (same cache token) so only the const arrays
    # can tell the two compilations apart.
    u = PochoirArray("u", (4,))
    u.set_initial(np.zeros(4))

    def make(cval):
        c = ConstArray("c", np.full(4, cval))
        st = Stencil(1)
        st.register_array(u)
        st.register_const_array(c)
        k = Kernel(1, lambda t, x: u(t + 1, x) << c(x) + 0.0 * u(t, x))
        return st, k

    st1, k1 = make(1.0)
    st1.run(1, k1, mode="split_pointer")
    assert np.allclose(u.snapshot(st1.cursor), 1.0)
    st2, k2 = make(2.0)
    st2.run(1, k2, mode="split_pointer")
    assert np.allclose(u.snapshot(st2.cursor), 2.0), (
        "second stencil was served the first stencil's kernel "
        "(stale const-array closure)"
    )


def test_array_cache_tokens_never_reused():
    """Tokens stay unique even when arrays (and their buffers) die and
    CPython reuses the heap addresses — the id()-reuse hazard the cache
    key must not have."""
    import gc

    from repro import PochoirArray

    seen = set()
    for _ in range(50):
        u = PochoirArray("u", (8, 8))
        assert u.cache_token not in seen
        seen.add(u.cache_token)
        del u
        gc.collect()


def test_cache_never_serves_stale_kernel_for_new_array(monkeypatch):
    """Regression: keying on id(a.data) hands a *new* array the compiled
    kernel of a dead one whenever CPython recycles the address.  Address
    reuse is nondeterministic, so simulate the collision: shadow id() in
    the pipeline module with a constant.  A key with any id() dependence
    then collides across distinct arrays and serves the stale kernel."""
    import repro.compiler.pipeline as pipeline

    monkeypatch.setattr(pipeline, "id", lambda obj: 0xDEAD, raising=False)
    st1, u1, k1 = make_heat_problem((8, 8), seed=0)
    c1 = compile_kernel(st1.prepare(1, k1), "split_pointer")
    st2, u2, k2 = make_heat_problem((8, 8), seed=1)
    c2 = compile_kernel(st2.prepare(1, k2), "split_pointer")
    assert c2 is not c1
    assert c1.ir.arrays["u"] is u1
    assert c2.ir.arrays["u"] is u2


def test_python_boundary_forces_per_point_boundary_clone():
    n = 10

    def edge(arr, t, X):
        return 2.0 * t  # arbitrary python logic: not vectorizable

    u = PochoirArray("u", (n,)).register_boundary(PythonBoundary(edge))
    st = Stencil(1)
    st.register_array(u)
    k = Kernel(1, lambda t, x: u(t + 1, x) << 0.5 * (u(t, x - 1) + u(t, x + 1)))
    u.set_initial(np.zeros(n))
    compiled = compile_kernel(st.prepare(3, k), "split_pointer")
    assert compiled.mode == "split_pointer"
    assert compiled.boundary_mode == "macro_shadow"  # fallback clone


def test_python_boundary_runs_correctly():
    """End-to-end with an arbitrary Python boundary function."""
    n, T = 10, 4

    def edge(arr, t, X):
        return 100.0 + X  # depends on the off-domain coordinate

    def make():
        u = PochoirArray("u", (n,)).register_boundary(PythonBoundary(edge))
        st = Stencil(1)
        st.register_array(u)
        k = Kernel(
            1, lambda t, x: u(t + 1, x) << 0.5 * (u(t, x - 1) + u(t, x + 1))
        )
        u.set_initial(np.arange(float(n)))
        return st, u, k

    from repro import run_phase1

    st1, u1, k1 = make()
    run_phase1(st1, T, k1)
    ref = u1.snapshot(T)

    for mode in ("split_pointer", "macro_shadow"):
        st2, u2, k2 = make()
        st2.run(T, k2, mode=mode)
        assert np.array_equal(u2.snapshot(T), ref), mode


def test_sources_recorded():
    st, u, k = make_heat_problem((8, 8))
    clear_cache()
    compiled = compile_kernel(st.prepare(1, k), "split_pointer")
    assert "interior" in compiled.sources
    assert "def interior" in compiled.sources["interior"]


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
def test_c_mode_reports_c():
    st, u, k = make_heat_problem((8, 8))
    compiled = compile_kernel(st.prepare(1, k), "c")
    assert compiled.mode == "c"
    assert compiled.boundary_mode == "c"
    assert "interior_step" in compiled.sources["c"]


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
def test_c_mode_has_fused_leaves():
    st, u, k = make_heat_problem((8, 8))
    compiled = compile_kernel(st.prepare(1, k), "c")
    assert compiled.leaf is not None
    assert compiled.leaf_boundary is not None
    assert "void leaf(" in compiled.sources["c"]


@pytest.mark.skipif(not has_c_backend(), reason="no C compiler")
def test_c_mode_python_boundary_keeps_fused_interior():
    """A PythonBoundary kills the C boundary clones (per-point Python
    fallback, per-step stepping) but the *interior* leaf must survive:
    interior regions never consult the boundary."""

    def edge(arr, t, X):
        return 2.0 * t

    u = PochoirArray("u", (10,)).register_boundary(PythonBoundary(edge))
    st = Stencil(1)
    st.register_array(u)
    k = Kernel(1, lambda t, x: u(t + 1, x) << 0.5 * (u(t, x - 1) + u(t, x + 1)))
    u.set_initial(np.zeros(10))
    compiled = compile_kernel(st.prepare(3, k), "c")
    assert compiled.boundary_mode == "macro_shadow"
    assert compiled.leaf is not None
    assert compiled.leaf_boundary is None


def test_no_compiler_degrades_to_split_pointer(monkeypatch):
    """The no-toolchain degradation contract: with REPRO_NO_CC set (the
    CI no-compiler job leg), "c" drops out of available_modes and the
    default "auto" mode still compiles — via split_pointer."""
    monkeypatch.setenv("REPRO_NO_CC", "1")
    assert "c" not in available_modes()
    st, u, k = make_heat_problem((8, 8))
    compiled = compile_kernel(st.prepare(1, k), "auto")
    assert compiled.mode == "split_pointer"


def _bound_buffers(clone):
    """The stacked buffers a bound clone reads and writes: a generated
    NumPy clone's ``BD_`` globals, or a C clone's kept-alive buffers."""
    if "NB" in clone.__globals__:
        return [v for k, v in clone.__globals__.items() if k.startswith("BD_")]
    return clone.__defaults__[-1]


@pytest.mark.parametrize(
    "mode", ["split_pointer"] + (["c"] if has_c_backend() else [])
)
def test_a_local_run_binds_its_own_buffers(mode):
    """A job is a batch of one: ``compile_kernel`` and
    ``stack_problems([p])`` bind views of the job's arrays, and
    scattering such a stack copies nothing."""
    from repro.compiler.batch import (
        compile_batch_kernel,
        scatter_results,
        stack_problems,
    )

    st, u, k = make_heat_problem((8, 8))
    problem = st.prepare(3, k)
    compiled = compile_kernel(problem, mode)
    for clone in (compiled.interior, compiled.leaf):
        (buf,) = _bound_buffers(clone)
        assert np.shares_memory(buf, u.data)

    stack = stack_problems([problem])
    assert np.shares_memory(stack.stacked["u"], u.data)
    batched = compile_batch_kernel(stack, mode)
    before = u.data.copy()
    batched.leaf(1, 2, (1, 1), (7, 7), (0, 0), (0, 0))
    assert not np.array_equal(u.data, before)  # written in place
    after = u.data.copy()
    scatter_results(stack)
    assert np.array_equal(u.data, after)


@pytest.mark.parametrize(
    "mode", ["split_pointer"] + (["c"] if has_c_backend() else [])
)
def test_const_array_shape_is_part_of_the_kernel(mode):
    """C bakes const strides and clamp bounds into the source: two
    problems differing only in a const array's shape, run back to back,
    must each get their own code."""
    from repro import ConstArray, run_phase1

    def make(const_shape):
        u = PochoirArray("u", (6, 6))
        u.set_initial(np.arange(36.0).reshape(6, 6))
        c = ConstArray("c", np.arange(np.prod(const_shape), dtype=float)
                       .reshape(const_shape))
        st = Stencil(2)
        st.register_array(u)
        st.register_const_array(c)
        k = Kernel(2, lambda t, x, y: u(t + 1, x, y) << u(t, x, y) + c(x, y))
        return st, u, k

    for const_shape in ((6, 6), (6, 9)):
        st, u, k = make(const_shape)
        st.run(3, k, mode=mode)
        st_ref, u_ref, k_ref = make(const_shape)
        run_phase1(st_ref, 3, k_ref)
        assert np.array_equal(u.snapshot(st.cursor), u_ref.snapshot(3))
