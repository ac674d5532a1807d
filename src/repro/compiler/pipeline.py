"""The compile driver: pick a backend, load its code once, bind it per run.

``compile_kernel`` is what the execution driver calls.  Mode semantics:

* ``"auto"`` — ``"c"`` when a C toolchain is found, else
  ``split_pointer`` (:func:`resolve_mode`; the no-toolchain fallback is
  the documented default there, not a degradation).
* ``"c"`` — C per-step *and fused leaf* clones plus the compiled walk
  when every boundary kind is expressible, else C interior with the
  per-point Python boundary clone and per-step fallback (the paper's
  design survives: the boundary clone is allowed to be slow).
* ``"split_pointer"`` — NumPy clones, falling back to the per-point
  boundary clone for non-vectorizable boundary kinds.
* ``"macro_shadow"`` / ``"interp"`` — per-point clones.

A job is a batch of one.  The ``c`` and ``split_pointer`` clones always
run over a stack of jobs, ``(nb, slots, *sizes)``, and
:func:`bind_kernel` is their one binding path: ``compile_kernel`` binds
a stack of one made of zero-copy views of the problem's own arrays,
:func:`repro.compiler.batch.compile_batch_kernel` a stack of K.

Nothing here caches a kernel that holds a user buffer.  The expensive,
data-independent artifact — a C kernel's loaded library, the NumPy and
per-point clones' compiled code — is loaded once per process per
problem signature (``KernelIR.signature``, see
:func:`~repro.language.stencil.problem_signature`) into the one code
cache of :func:`load_kernel`, and every compile binds it to the
problem's current buffers, so a kernel lives exactly as long as the run
holding it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import CompileError
from repro.compiler import codegen_c, codegen_numpy, codegen_python
from repro.compiler.codegen_numpy import LeafFn
from repro.compiler.frontend import KernelIR, boundaries_expressible, build_ir
from repro.language.array import stack_grids
from repro.language.stencil import Problem

CloneFn = Callable[[int, tuple[int, ...], tuple[int, ...]], None]


@dataclass
class CompiledKernel:
    """The kernel clones plus provenance for reporting and tests.

    ``interior``/``boundary`` apply one time step to one region; they
    exist in every mode.  ``leaf``/``leaf_boundary`` are the *fused*
    base-case clones (whole trapezoid time loop inside generated code),
    generated by the ``split_pointer`` and ``c`` backends — None in
    modes that cannot fuse (``interp``, ``macro_shadow``) and for
    non-vectorizable boundaries, where executors fall back to stepping
    the per-step clones.  A leaf may also decline a region at runtime by
    returning False (the NumPy snapshot leaf does for wrapped home
    ranges under clip/fill boundaries; the C per-point leaf never does),
    and the caller steps the per-step clones instead.
    """

    interior: CloneFn
    boundary: CloneFn
    mode: str
    boundary_mode: str
    ir: KernelIR
    sources: dict[str, str] = field(default_factory=dict)
    leaf: LeafFn | None = None
    leaf_boundary: LeafFn | None = None
    #: The compiled recursion (``walk_subtree``): one call runs a whole
    #: subtree of the trapezoidal decomposition, GIL released, testing
    #: each zoid for "interior?" itself when ``boundary_mode == "c"``
    #: (else it only ever receives interior zoids).  Its trailing
    #: argument is the thread count: above one, a pthread task pool
    #: inside the shared object runs same-level hyperspace-cut pieces in
    #: parallel; at one the same recursion runs them inline.  Only the
    #: ``c`` backend generates it, and only ``c`` runs are planned with
    #: subtree tasks.
    walk: Callable[..., None] | None = None
    #: The live i64[4] counter buffer ``walk`` accumulates into (pool
    #: tasks spawned, stolen, level barriers, and calls that asked for
    #: more than one thread but ran without a pool).  Every binding has
    #: its own, so after a run it holds that run's counters.
    walk_stats: object | None = None
    #: Whether the ``c`` or ``split_pointer`` code this kernel binds was
    #: already loaded in the process (:func:`load_kernel` hit), rather
    #: than generated or built for this compile.  False for the per-point
    #: modes and for a compile that fell back to NumPy.
    warm: bool = False

    def walk_stats_snapshot(self) -> tuple[int, ...]:
        """Current totals of the four walk counters; zeros when there is
        no compiled walk."""
        if self.walk_stats is None:
            return (0, 0, 0, 0)
        return tuple(int(v) for v in self.walk_stats)

    def without_fused_leaves(self) -> "CompiledKernel":
        """A copy with every fused clone stripped, so base cases step
        through the per-step clones — the per-step reference used by the
        Section-4 cloning benchmarks and the equivalence tests.  The
        compiled walk goes with them (it
        bottoms out in the fused leaf body).  (A copy: the original
        keeps its clones.)"""
        return replace(self, leaf=None, leaf_boundary=None, walk=None)


def available_modes() -> tuple[str, ...]:
    """Codegen modes usable on this machine.

    Includes ``"auto"`` (the documented default), so callers that
    validate a user-supplied mode against this list accept it.
    """
    modes = ["auto", "interp", "macro_shadow", "split_pointer"]
    if codegen_c.find_c_compiler() is not None:
        modes.append("c")
    return tuple(modes)


#: The code cache: (backend or clone, problem signature, and for C the
#: ``.so`` scope) -> loaded code, which holds no buffer.
_LOADED: dict[tuple, object] = {}
_LOADED_LOCK = threading.Lock()


def clear_cache() -> None:
    """Drop every loaded C kernel library and every compiled NumPy and
    per-point clone, so the next compile generates code and reaches
    ``dlopen`` (and cc on a cold ``.so`` cache) again."""
    with _LOADED_LOCK:
        _LOADED.clear()


def resolve_mode(mode: str) -> str:
    """The concrete backend a requested mode compiles with.

    The single source of ``"auto"`` dispatch — the paper's path, C, when
    a toolchain is found, else the always-available NumPy backend.
    The execute driver resolves a run's mode with it once, on entry, so
    the coarsening defaults, the stack-or-not rule and the compile all
    see the backend that runs; ``compile_kernel``, the walk setup and
    the autotuner still accept ``"auto"`` on their own.
    """
    if mode != "auto":
        return mode
    return "c" if codegen_c.find_c_compiler() is not None else "split_pointer"


def walks_boundary(problem: Problem, mode: str) -> bool:
    """Whether ``mode``'s compiled walk for ``problem`` also takes
    boundary zoids: true exactly when the kernel compiles to C with C
    boundary clones (every boundary kind expressible), whose walk
    classifies each zoid itself and bottoms out in ``leaf_boundary``."""
    return resolve_mode(mode) == "c" and boundaries_expressible(
        problem.arrays.values()
    )


def compile_kernel(problem: Problem, mode: str = "auto") -> CompiledKernel:
    """Compile the problem's kernel into interior/boundary clones bound
    to the problem's own arrays (a stack of one).  The code is loaded
    once per process; the binding is fresh on every call."""
    return _compile_ir(build_ir(problem), resolve_mode(mode))


def compile_kernel_resilient(
    problem: Problem, mode: str = "auto"
) -> CompiledKernel:
    """:func:`compile_kernel`, with the C backend allowed to degrade
    (:func:`with_numpy_fallback`)."""
    return with_numpy_fallback(mode, lambda m: compile_kernel(problem, m))


def with_numpy_fallback(
    mode: str, compile: Callable[[str], CompiledKernel]
) -> CompiledKernel:
    """The one C -> NumPy rung: ``compile(resolve_mode(mode))``, except
    that a ``"c"`` compile that fails — no toolchain, a cc that exits
    nonzero or times out, a shared object that will not load even after
    evict-and-rebuild — retries as ``compile("split_pointer")`` and
    records the fallback in the run's ``RunReport.degradations``.  The
    lone-job and the stacked compile both climb it.

    Results are bitwise identical across backends (the equivalence
    tests pin this), so the degradation trades only speed.  A fallback
    is never warm: it paid for a failed C compile.  NumPy-backend
    failures still raise: there is nothing slower-but-working left.
    """
    from repro.resilience import degradations

    resolved = resolve_mode(mode)
    if resolved != "c":
        return compile(resolved)
    try:
        return compile(resolved)
    except CompileError:
        degradations.note("cc:compile-failed->split_pointer")
        compiled = compile("split_pointer")
        compiled.warm = False
        return compiled


def _compile_ir(ir: KernelIR, mode: str) -> CompiledKernel:
    if mode == "interp":
        return CompiledKernel(
            interior=codegen_python.make_interp_interior(ir),
            boundary=codegen_python.make_interp_boundary(ir),
            mode="interp",
            boundary_mode="interp",
            ir=ir,
        )
    if mode == "macro_shadow":
        interior, src_i = _macro_shadow(ir, boundary_mode=False)
        boundary, src_b = _macro_shadow(ir, boundary_mode=True)
        return CompiledKernel(
            interior=interior,
            boundary=boundary,
            mode="macro_shadow",
            boundary_mode="macro_shadow",
            ir=ir,
            sources={"interior": src_i, "boundary": src_b},
        )
    # A local run is a batch of one, bound in place: (1, ...) views of
    # the job's own buffers, so nothing is copied in or out.
    compiled = bind_kernel(
        ir,
        mode,
        {name: stack_grids([arr]) for name, arr in ir.arrays.items()},
        {name: c.values[None] for name, c in ir.const_arrays.items()},
        1,
    )
    if compiled.boundary is None:
        # A boundary kind the backend cannot express: the paper's design
        # survives with the per-point boundary clone (allowed to be
        # slow) and per-step stepping in place of the fused boundary leaf.
        boundary, src_b = _macro_shadow(ir, boundary_mode=True)
        compiled.boundary = boundary
        compiled.boundary_mode = "macro_shadow"
        compiled.sources["boundary"] = src_b
    return compiled


def load_kernel(ir: KernelIR, mode: str) -> tuple[object, bool]:
    """The load-once half of a batched backend: ``(code, hit)``, where
    ``code`` is the ``c`` kernel's loaded library or the
    ``split_pointer`` clones' compiled code for ``ir``, built on the
    first call per process and shared afterwards, and ``hit`` says
    whether this call found it already loaded.  It holds no buffer.

    A C library is keyed on what determines the ``.so`` besides the
    signature (:func:`~repro.compiler.codegen_c.library_scope`), so a
    fresh cache directory or another toolchain reaches cc and ``dlopen``,
    and their fault sites, again."""
    if mode == "c":
        key = ("c", ir.signature, *codegen_c.library_scope())
        return _load_once(key, lambda: codegen_c.load_c_library(ir))
    if mode == "split_pointer":
        key = ("split_pointer", ir.signature)
        return _load_once(key, lambda: codegen_numpy.compile_numpy_clones(ir))
    raise CompileError(f"unknown codegen mode {mode!r}")


def _macro_shadow(ir: KernelIR, *, boundary_mode: bool) -> tuple[CloneFn, str]:
    """One macro_shadow clone bound to ``ir``'s arrays, and its source;
    the code is generated and compiled once per process."""
    key = ("macro_shadow", boundary_mode, ir.signature)
    (src, code), _ = _load_once(
        key, lambda: codegen_python.compile_clone(ir, boundary_mode=boundary_mode)
    )
    return codegen_python.bind_clone(ir, code, boundary_mode=boundary_mode), src


def _load_once(key: tuple, load: Callable[[], object]) -> tuple[object, bool]:
    """``(code, hit)`` for ``key``, running ``load`` on a miss.  Failures
    are not cached.  Two threads that miss together both load (the
    ``.so`` cache's per-digest lock still runs cc once, and ``dlopen`` of
    one path returns one handle); the first entry stored is the one
    every caller gets."""
    with _LOADED_LOCK:
        cached = _LOADED.get(key)
    if cached is not None:
        return cached, True
    loaded = load()
    with _LOADED_LOCK:
        return _LOADED.setdefault(key, loaded), False


def bind_kernel(
    ir: KernelIR,
    mode: str,
    stacked: dict,
    stacked_consts: dict,
    nb: int,
) -> CompiledKernel:
    """The one binding path of the ``c`` and ``split_pointer`` backends:
    their clones closed over a stack of ``nb`` jobs (``stacked[name]`` is
    ``(nb, slots, *sizes)``; see :mod:`repro.compiler.batch`).

    The code comes from :func:`load_kernel`, whose cache hit the result
    carries as ``warm``; nothing here is cached, since the result holds
    the buffers.  ``boundary`` and ``leaf_boundary`` are None for
    boundary kinds the backend cannot express.
    """
    kernel, warm = load_kernel(ir, mode)
    if mode == "c":
        clones = codegen_c.bind_c_clones(kernel, ir, stacked, stacked_consts, nb)
    else:
        clones = codegen_numpy.bind_numpy_clones(
            kernel, stacked, stacked_consts, nb
        )
    return CompiledKernel(
        mode=mode, boundary_mode=mode, ir=ir, warm=warm, **clones
    )
