"""The C backend's source structure and shared-object cache behavior.

Equivalence of the generated kernels is covered by
``tests/compiler/test_codegen.py`` (cross-backend construct sweep) and
``tests/trap/test_c_leaf_fusion.py`` (fused-vs-per-step property tests);
this file checks what the postsource *looks like* (fused clones, scalar
signatures) and that the on-disk ``.so`` cache is keyed on the compiler
identity and self-heals on load failure.
"""

from __future__ import annotations

import ctypes
import re
import shutil
import subprocess

import pytest

from repro.compiler import codegen_c
from repro.compiler.codegen_c import (
    build_shared_object,
    compiler_identity,
    find_c_compiler,
    generate_c_source,
    load_shared_object,
)
from repro.compiler.frontend import build_ir
from tests.conftest import has_c_backend, make_heat_problem

pytestmark = pytest.mark.skipif(not has_c_backend(), reason="no C compiler")


def _heat_ir(sizes=(8, 8)):
    st_, u, k = make_heat_problem(sizes)
    return build_ir(st_.prepare(1, k))


@pytest.fixture
def cc_cache(tmp_path, monkeypatch):
    """Point the on-disk cache at a fresh directory."""
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    return tmp_path


#: One exported nb-taking entry point per clone.
ENTRY_POINTS = {
    "interior_step_batch",
    "boundary_step_batch",
    "leaf_batch",
    "leaf_boundary_batch",
    "walk_subtree_batch",
    "walk_subtree_par_batch",
}


def _exported(src):
    """Names of the non-static functions a source defines."""
    return set(re.findall(r"^void (\w+)\(", src, re.M))


class TestGeneratedSource:
    def test_all_four_clones_present(self):
        src = generate_c_source(_heat_ir())
        for name in ("interior_step", "boundary_step", "leaf", "leaf_boundary"):
            assert f"static void {name}(" in src

    def test_exports_one_nb_entry_point_per_clone(self):
        """Every clone body is ``static``; the source exports exactly one
        entry point per clone, each taking the job count ``nb``."""
        par = generate_c_source(_heat_ir(), include_parallel=True)
        assert _exported(par) == ENTRY_POINTS
        for name in ENTRY_POINTS:
            assert re.search(rf"^void {name}\([^)]*, i64 nb, ", par, re.M)
        serial = generate_c_source(_heat_ir(), include_boundary=False)
        assert _exported(serial) == {
            "interior_step_batch", "leaf_batch", "walk_subtree_batch"
        }

    @pytest.mark.skipif(shutil.which("nm") is None, reason="no nm")
    def test_built_object_exports_only_the_entry_points(self, cc_cache):
        src = generate_c_source(_heat_ir(), include_parallel=True)
        so = build_shared_object(src, extra_flags=("-pthread",))
        out = subprocess.run(
            ["nm", "-D", "--defined-only", str(so)],
            capture_output=True, text=True, check=True,
        ).stdout
        text = {line.split()[-1] for line in out.splitlines() if " T " in line}
        assert text == ENTRY_POINTS

    def test_leaf_fuses_whole_trapezoid(self):
        """The fused clone owns the time loop, the per-step slot
        arithmetic, and the slope shift — the whole Figure-2 base case."""
        src = generate_c_source(_heat_ir())
        assert "for (i64 t = ta; t < tb; ++t)" in src
        assert "l0 += dl0; h0 += dh0;" in src
        assert "MOD(t+0, 2L)" in src or "MOD(t-1, 2L)" in src

    def test_scalar_bounds_no_pointer_arrays(self):
        """Bounds are scalar i64 parameters: calls marshal plain ints
        (no per-call ctypes array construction, nothing for concurrent
        DAG workers to contend on)."""
        src = generate_c_source(_heat_ir())
        assert "i64 l0" in src and "i64 h1" in src
        assert "const i64* lo" not in src and "const i64* hi" not in src

    def test_boundary_leaf_reduces_virtual_coordinates(self):
        src = generate_c_source(_heat_ir())
        assert "MOD(v0, 8L)" in src  # virtual -> true reduction per point

    def test_pointer_params_are_restrict_qualified(self):
        """Every data pointer is ``restrict``: arrays own distinct
        buffers, so the qualifier is sound and frees the optimizer from
        cross-array aliasing assumptions."""
        src = generate_c_source(_heat_ir())
        assert "double* restrict D_u" in src
        assert "double* D_u" not in src  # no unqualified data pointer

    def test_walk_subtree_present_with_scalar_recursion_params(self):
        """The compiled interior recursion: a static recursive helper,
        the exported entry point with scalar threshold/slope arguments,
        and a bottom-out into the fused leaf."""
        src = generate_c_source(_heat_ir())
        assert "static void walk_rec(" in src
        assert "static void walk_subtree(" in src
        assert "i64 th0" in src and "i64 s0" in src and "i64 hyper" in src
        assert "leaf(D_u," in src  # recursion bottoms out in the fused leaf
        # walk is generated even when the boundary clones are not: it
        # only ever touches interior zoids.
        assert "walk_subtree" in generate_c_source(
            _heat_ir(), include_boundary=False
        )

    def test_parallel_walk_section_is_opt_in(self):
        """The pthread pool is emitted only on request (the serial-only
        source must stay buildable on toolchains without -pthread), and
        both recursions share one decomposition helper — the structural
        guarantee behind the bitwise-identity contract."""
        src = generate_c_source(_heat_ir())
        assert "walk_subtree_par" not in src
        assert "pthread.h" not in src
        par = generate_c_source(_heat_ir(), include_parallel=True)
        assert "static void walk_subtree_par(" in par
        assert "#include <pthread.h>" in par
        assert "static void walk_rec_par(" in par
        assert "wq_ensure_pool" in par
        # one walk_cuts, used by both walk_rec and walk_rec_par: the
        # parallel walk cannot drift from the serial decomposition.
        assert par.count("static int walk_cuts(") == 1

    def test_walk_clone_matches_per_leaf_bitwise(self):
        """One subtree through walk_subtree vs the same recursion
        replayed in Python over the fused leaf — bitwise identical (the
        restrict/-fno-math-errno audit would surface here first)."""
        from dataclasses import replace

        import numpy as np

        from repro.compiler.pipeline import compile_kernel
        from repro.trap.executor import run_base_region
        from repro.trap.plan import BaseRegion

        region = BaseRegion(
            1, 4, ((1, 7, 0, 0), (1, 7, 1, -1)), interior=True,
            walk=((1, 1), (2, 2), 1, True, 1),
        )
        st_a, u_a, k_a = make_heat_problem((8, 8), seed=3)
        compiled = compile_kernel(st_a.prepare(5, k_a), "c")
        assert compiled.walk is not None
        run_base_region(region, compiled)
        st_b, u_b, k_b = make_heat_problem((8, 8), seed=3)
        compiled_b = compile_kernel(st_b.prepare(5, k_b), "c")
        run_base_region(region, replace(compiled_b, walk=None))
        assert np.array_equal(u_a.data, u_b.data)


class TestSharedObjectCache:
    SRC = "double kernel_probe(double x) { return x * 2.0; }\n"

    def test_cache_reuses_identical_source(self, cc_cache):
        p1 = build_shared_object(self.SRC)
        mtime = p1.stat().st_mtime_ns
        p2 = build_shared_object(self.SRC)
        assert p1 == p2 and p2.stat().st_mtime_ns == mtime

    def test_cache_keyed_on_compiler_identity(self, cc_cache, monkeypatch):
        """A toolchain upgrade (different identity banner) must map to a
        different cache entry — never load the old compiler's object."""
        p1 = build_shared_object(self.SRC)
        monkeypatch.setattr(
            codegen_c, "compiler_identity", lambda cc: "upgraded-cc|99.0"
        )
        p2 = build_shared_object(self.SRC)
        assert p1 != p2
        assert p1.exists() and p2.exists()

    def test_identity_names_compiler_and_memoizes(self):
        import os

        cc = find_c_compiler()
        ident = compiler_identity(cc)
        assert ident.split("|", 1)[0] == os.path.basename(cc)
        # Memoized: the subprocess runs once per compiler path.
        assert codegen_c._CC_IDENTITY[cc] == ident

    def test_load_failure_evicts_and_rebuilds(self, cc_cache):
        """A corrupt cached object (truncated write, foreign arch) is
        evicted and rebuilt instead of erroring forever."""
        path = build_shared_object(self.SRC)
        path.write_bytes(b"not an ELF object")
        with pytest.raises(OSError):
            ctypes.CDLL(str(path))  # precondition: it really is broken
        lib = load_shared_object(self.SRC)
        fn = lib.kernel_probe
        fn.restype = ctypes.c_double
        fn.argtypes = [ctypes.c_double]
        assert fn(21.0) == 42.0
        # and the cache entry is healthy again
        ctypes.CDLL(str(build_shared_object(self.SRC)))


class TestNoCompilerGate:
    def test_repro_no_cc_hides_the_toolchain(self, monkeypatch):
        """The CI no-toolchain leg sets REPRO_NO_CC to prove degradation;
        the gate must make every discovery path report 'no compiler'."""
        monkeypatch.setenv("REPRO_NO_CC", "1")
        assert find_c_compiler() is None
        from repro.compiler.pipeline import available_modes

        assert "c" not in available_modes()
