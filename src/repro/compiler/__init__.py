"""The Phase-2 stencil compiler: kernel IR, clone generation, codegen.

The paper's compiler is a Haskell source-to-source translator emitting
Cilk C++; ours consumes the structured kernel AST and emits, per kernel,
two *clones* (Section 4, "Handling boundary conditions by code cloning"):

* an **interior clone** — no boundary checks, raw array indexing — used
  for zoids all of whose reads stay inside the grid, and
* a **boundary clone** — reduces virtual coordinates modulo the grid and
  resolves off-domain reads through the arrays' boundary functions.

Four backends generate these clones:

==================  ========================================================
``interp``          tree-walking evaluation (checked; the reference)
``macro_shadow``    generated per-point Python, unchecked direct indexing —
                    the ``-split-macro-shadow`` analogue
``split_pointer``   generated vectorized NumPy slice kernels — the
                    ``-split-pointer`` analogue (strength-reduced walking
                    of contiguous memory)
``c``               generated C99, compiled with the system compiler and
                    loaded via ctypes — the closest analogue of Pochoir's
                    optimized postsource
==================  ========================================================

``mode="auto"`` picks ``c`` when a C toolchain is found (the paper's
path: compiled clones plus the compiled trapezoidal walk) and
``split_pointer`` otherwise (always available; not a degradation).

The ``split_pointer`` and ``c`` clones are generated once per kernel,
as one family over a stack of jobs ``(nb, slots, *sizes)``: a local
run binds a stack of one (views of its own arrays), a served batch a
stack of K (:mod:`repro.compiler.batch`).  Every backend's code (a C
library, the NumPy and per-point clones' compiled code) is loaded once
per process and bound per run.
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
