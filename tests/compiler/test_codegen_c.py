"""The C backend's source structure and shared-object cache behavior.

Equivalence of the generated kernels is covered by
``tests/compiler/test_codegen.py`` (cross-backend construct sweep) and
``tests/trap/test_c_leaf_fusion.py`` (fused-vs-per-step property tests);
this file checks what the postsource *looks like* (fused clones, scalar
signatures), that gcc vectorizes the leaves' unit-stride loops without
changing Phase 1's bits on IEEE edge values, and that the on-disk ``.so``
cache is keyed on the compiler identity (ISA included) and self-heals on
load failure.
"""

from __future__ import annotations

import ctypes
import os
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
        src = generate_c_source(_heat_ir())
        assert _exported(src) == ENTRY_POINTS
        for name in ENTRY_POINTS:
            assert re.search(rf"^void {name}\([^)]*, i64 nb, ", src, re.M)
        serial = generate_c_source(_heat_ir(), include_boundary=False)
        assert _exported(serial) == {
            "interior_step_batch", "leaf_batch", "walk_subtree_batch"
        }

    @pytest.mark.skipif(shutil.which("nm") is None, reason="no nm")
    def test_built_object_exports_only_the_entry_points(self, cc_cache):
        so = build_shared_object(generate_c_source(_heat_ir()))
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
        the per-job entry with scalar threshold/slope/thread arguments,
        and a bottom-out into the fused leaf."""
        src = generate_c_source(_heat_ir())
        assert "static void walk_subtree(" in src
        assert "i64 th0" in src and "i64 s0" in src and "i64 hyper" in src
        assert "i64 nthreads" in src
        assert "leaf(job->D_u," in src  # bottoms out in the fused leaf
        # walk is generated even when the boundary clones are not: it
        # only ever touches interior zoids.
        assert "walk_subtree" in generate_c_source(
            _heat_ir(), include_boundary=False
        )

    @pytest.mark.parametrize(
        "include_boundary", [True, False], ids=["boundary", "interior-only"]
    )
    def test_one_walk_recursion_with_its_pool(self, include_boundary):
        """One recursion, one decomposition helper and one entry serve
        every thread count: the pool is part of every source, and no
        second (serial or parallel) walk exists to drift from it."""
        src = generate_c_source(_heat_ir(), include_boundary=include_boundary)
        defined = re.findall(r"^static void (walk_\w+)\([^;]*?\{$", src, re.M | re.S)
        assert sorted(defined) == ["walk_rec", "walk_subtree"]
        assert "walk_rec_par" not in src and "walk_subtree_par" not in src
        assert src.count("static int walk_cuts(") == 1
        assert "#include <pthread.h>" in src
        assert "wq_ensure_pool" in src

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
        """A toolchain upgrade (different identity banner) or another
        host ISA (a cache shared across CPUs) must map to a different
        ``.so`` and a different loaded library — never load an object
        built by the old compiler or for the other CPU."""
        ir = _heat_ir()
        monkeypatch.setattr(codegen_c, "_LIBRARIES", {})
        p1 = build_shared_object(self.SRC)
        codegen_c.load_c_kernel(ir)
        keys = set(codegen_c._LIBRARIES)
        # Another CPU: only the ISA probe answers differently.
        monkeypatch.setattr(codegen_c, "_CC_IDENTITY", {})
        monkeypatch.setattr(codegen_c, "_host_isa", lambda cc: "0ther-cpu")
        p_isa = build_shared_object(self.SRC)
        _, hit = codegen_c.load_c_kernel(ir)
        assert not hit and len(set(codegen_c._LIBRARIES) - keys) == 1
        keys = set(codegen_c._LIBRARIES)
        # An upgraded toolchain.
        monkeypatch.setattr(
            codegen_c, "compiler_identity", lambda cc: "upgraded-cc|99.0"
        )
        p2 = build_shared_object(self.SRC)
        _, hit = codegen_c.load_c_kernel(ir)
        assert not hit and len(set(codegen_c._LIBRARIES) - keys) == 1
        assert len({p1, p_isa, p2}) == 3
        assert p1.exists() and p_isa.exists() and p2.exists()

    def test_cc_rejecting_march_native_builds_portable(
        self, cc_cache, tmp_path, monkeypatch
    ):
        """A compiler that rejects ``-march=native`` still builds every
        kernel — without the ISA flag, no degradation — and says
        ``isa:portable`` in its identity."""
        import numpy as np

        from tests.conftest import run_reference

        real = shutil.which(find_c_compiler())
        log = tmp_path / "calls.log"
        fake = tmp_path / "bin" / "nonative-cc"
        fake.parent.mkdir()
        fake.write_text(
            "#!/bin/sh\n"
            f'echo "$*" >> "{log}"\n'
            'for a in "$@"; do\n'
            '  if [ "$a" = "-march=native" ]; then\n'
            '    echo "error: unrecognized -march=native" >&2; exit 1\n'
            "  fi\n"
            "done\n"
            f'exec "{real}" "$@"\n'
        )
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        monkeypatch.setattr(codegen_c, "_LIBRARIES", {})
        assert find_c_compiler() == str(fake)
        assert compiler_identity(str(fake)).endswith("|isa:portable")
        assert "-march=native" not in codegen_c.compile_flags(str(fake))

        st, u, k = make_heat_problem((24, 24), seed=5)
        report = st.run(3, k, mode="c")
        want = run_reference((24, 24), 3, seed=5)
        assert np.array_equal(u.snapshot(st.cursor), want)
        assert report.degradations == []
        builds = [c for c in log.read_text().splitlines() if " -shared " in c]
        assert builds and all("-march=native" not in c for c in builds)

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


def _is_gcc(cc: str) -> bool:
    """gcc itself: it predefines ``__GNUC__`` and, unlike clang, not
    ``__clang__``."""
    out = subprocess.run(
        [cc, "-dM", "-E", "-x", "c", os.devnull], capture_output=True, text=True
    ).stdout
    return "__GNUC__" in out and "__clang__" not in out


class TestVectorizedLeaf:
    """The leaves' unit-stride loops are vectorized by the production
    flags, and the vector code keeps Phase 1's bits on IEEE edge values."""

    @pytest.mark.parametrize("app", ["heat2d", "wave3d"])
    def test_gcc_vectorizes_leaf_inner_loops(self, app, tmp_path):
        """gcc reports "loop vectorized" on ``leaf``'s innermost loop and
        on ``leaf_boundary``'s interior span: losing either (a flag
        dropped, a codegen change that defeats the vectorizer) fails."""
        from repro.apps.registry import build

        cc = find_c_compiler()
        if not _is_gcc(cc):
            pytest.skip("vectorization report is gcc's")
        inst = build(app, "tiny")
        ir = build_ir(inst.stencil.prepare(inst.steps, inst.kernel))
        src = generate_c_source(ir)
        last = ir.ndim - 1
        lines = src.splitlines()

        def line_of(text):
            [n] = [i + 1 for i, line in enumerate(lines) if text in line]
            return n

        leaf_inner = line_of(f"for (i64 x{last} = l{last}; x{last} < h{last};")
        boundary_span = line_of(f"for (; x{last} < ihi; ++x{last})")
        c_path = tmp_path / f"{app}.c"
        c_path.write_text(src)
        res = subprocess.run(
            [cc, *codegen_c.compile_flags(cc), "-fopt-info-vec-optimized",
             "-o", str(tmp_path / f"{app}.so"), str(c_path), "-lm"],
            capture_output=True, text=True, check=True,
        )
        vectorized = {
            int(m.group(1))
            for m in re.finditer(
                rf"^{re.escape(str(c_path))}:(\d+):\d+: optimized: loop vectorized",
                res.stderr, re.M,
            )
        }
        assert leaf_inner in vectorized, res.stderr
        assert boundary_span in vectorized, res.stderr

    @pytest.mark.parametrize("boundary", ["periodic", "constant"])
    def test_ieee_edge_values_match_phase1(self, boundary, cc_cache):
        """``min``/``max``/``where``/``fabs`` over NaN, signed zeros and
        infinities: the C run — interior ``leaf`` and ``leaf_boundary``
        both, vectorized — is bitwise equal to ``run_phase1``."""
        import numpy as np

        from repro import (
            ConstantBoundary, Kernel, PeriodicBoundary, PochoirArray,
            Stencil, run_phase1,
        )
        from repro.apps.heat import heat_shape
        from repro.expr.builder import fmath, maximum, minimum, where

        sizes = (40, 40)
        values = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -2.0])

        def problem():
            st_ = Stencil(2, heat_shape(2))
            arrays = {}
            for name in ("u", "lo", "hi", "sel", "ab", "mix"):
                a = PochoirArray(name, sizes).register_boundary(
                    PeriodicBoundary() if boundary == "periodic"
                    else ConstantBoundary(-0.0)
                )
                st_.register_array(a)
                a.set_initial(np.random.default_rng(3).choice(values, sizes))
                arrays[name] = a
            u = arrays["u"]

            def body(t, x, y):
                c, w, e = u(t, x, y), u(t, x - 1, y), u(t, x, y + 1)
                n, s = u(t, x + 1, y), u(t, x, y - 1)
                return [
                    u(t + 1, x, y) << c,
                    arrays["lo"](t + 1, x, y) << minimum(w, e),
                    arrays["hi"](t + 1, x, y) << maximum(n, -s),
                    arrays["sel"](t + 1, x, y) << where(c > 0, w, -e),
                    arrays["ab"](t + 1, x, y) << fmath.fabs(s) - n,
                    arrays["mix"](t + 1, x, y) << where(
                        c > 0, fmath.fabs(minimum(w, e)), maximum(n, -s)
                    ),
                ]

            return st_, arrays, Kernel(2, body)

        st_ref, ref, k_ref = problem()
        run_phase1(st_ref, 4, k_ref)
        st_c, out, k_c = problem()
        report = st_c.run(
            4, k_c, mode="c", space_thresholds=(10, 10), dt_threshold=2
        )
        assert report.degradations == []
        for name, arr in ref.items():
            want = arr.snapshot(st_ref.cursor).view(np.uint64)
            got = out[name].snapshot(st_c.cursor).view(np.uint64)
            assert np.array_equal(got, want), name


class TestNoCompilerGate:
    def test_repro_no_cc_hides_the_toolchain(self, monkeypatch):
        """The CI no-toolchain leg sets REPRO_NO_CC to prove degradation;
        the gate must make every discovery path report 'no compiler'."""
        monkeypatch.setenv("REPRO_NO_CC", "1")
        assert find_c_compiler() is None
        from repro.compiler.pipeline import available_modes

        assert "c" not in available_modes()
