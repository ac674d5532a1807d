"""The Phase-2 stencil compiler: kernel IR, clone generation, codegen.

The paper's compiler is a Haskell source-to-source translator emitting
Cilk C++; ours consumes the structured kernel AST and emits, per kernel,
two *clones* (Section 4, "Handling boundary conditions by code cloning"):

* an **interior clone** — no boundary checks, raw array indexing — used
  for zoids all of whose reads stay inside the grid, and
* a **boundary clone** — reduces virtual coordinates modulo the grid and
  resolves off-domain reads through the arrays' boundary functions.

Two backends generate these clones:

==================  ========================================================
``split_pointer``   generated vectorized NumPy slice kernels — the
                    ``-split-pointer`` analogue (strength-reduced walking
                    of contiguous memory)
``c``               generated C99, compiled with the system compiler and
                    loaded via ctypes — the closest analogue of Pochoir's
                    optimized postsource
==================  ========================================================

A boundary kind neither backend can express (``PythonBoundary``) runs
through a generated per-point boundary clone (``codegen_python``, the
``-split-macro-shadow`` analogue): the paper's design allows the
boundary clone to be slow.  The checked reference is Phase 1,
:func:`repro.language.phase1.run_phase1`, not a backend.

``mode="auto"`` picks ``c`` when a C toolchain is found (the paper's
path: compiled clones plus the compiled trapezoidal walk) and
``split_pointer`` otherwise (always available; not a degradation).

The ``split_pointer`` and ``c`` clones are generated once per kernel,
as one family over a stack of jobs ``(nb, slots, *sizes)``: a local
run binds a stack of one (views of its own arrays), a served batch a
stack of K (:mod:`repro.compiler.batch`).  Every backend's code (a C
library, the NumPy clones' and the per-point boundary clone's compiled
code) is loaded once per process into the pipeline's one code cache and
bound per run.

The frontend owns boundary lowering (``boundary_modes``,
``boundary_fill_expr``) and the one fact every backend branches on,
``KernelIR.boundary_expressible``.  The ``c`` backend is three parts:
grid addressing (``codegen_c._Grid``, the only reader of the grid's
geometry; padded pitch and runtime extents edit it), one loop-nest
builder (``_nest``: raw interior, per-point MOD and row-peeled nests;
innermost-loop shaping edits it, typed lowering the expression printer
it prints through) and the clone table (``_CLONES``: each clone's
scalar parameters, boundary flag and body, from which the C
definitions, exported entry points, ctypes ``argtypes`` and Python
binders derive).
"""

from repro.compiler.frontend import KernelIR, build_ir
from repro.compiler.pipeline import CompiledKernel, available_modes, compile_kernel

__all__ = [
    "CompiledKernel",
    "KernelIR",
    "available_modes",
    "build_ir",
    "compile_kernel",
]
