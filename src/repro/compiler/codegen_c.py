"""The ``c`` backend: generated C99 clones compiled with the system cc.

This is the closest analogue of Pochoir's optimized postsource: the
kernel becomes straight-line C with flat pointer arithmetic (strides
baked in as compile-time constants), built as a shared object and loaded
through ctypes.  The interior clone does raw unchecked indexing; the
boundary clone reduces coordinates with a sign-safe ``MOD`` macro — the
same mod trick as Figure 6 line 1 of the paper — and resolves off-domain
reads per the array's boundary kind (periodic wrap, Neumann clamp,
Dirichlet fill).

Five clones are generated per kernel, mirroring and extending the
``split_pointer`` backend:

* ``interior_step`` / ``boundary_step`` — one time step on one region.
* ``leaf`` / ``leaf_boundary`` — the *fused* base-case clones: the whole
  trapezoid (time loop, per-step slope shifting of the bounds, ping-pong
  slot arithmetic, per-point boundary resolution) runs inside one C
  function, invoked once per base case.  Because the per-point MOD/CLAMP
  mapping is exact for any virtual box, the C fused boundary leaf never
  declines a region — unlike the NumPy snapshot leaf, which must fall
  back for wrapped home ranges under clip/fill boundaries.
* ``walk_subtree`` — the compiled *recursion*: trisection space cuts,
  hyperspace level grouping, time cuts and the per-zoid interior test,
  bottoming out in ``leaf`` or ``leaf_boundary``, so one ctypes call
  executes an entire subtree of the trapezoidal decomposition — boundary
  zoids included — with the GIL released.  Coarsening thresholds,
  slopes and the thread count arrive as scalar arguments, so tuned
  configs apply without recompiling.  The one recursion spawns
  same-level pieces into a pthread pool embedded in the ``.so``; at one
  thread, or when the pool cannot start, it spawns nothing and is the
  serial elision.

The fused boundary leaf is *row-peeled*: only the points whose reads
leave the grid pay for MOD/CLAMP/fill; the rest of each row runs the
interior body, so a zoid that merely touches the boundary — every zoid
of a >=3D grid, whose unit-stride rows are never cut — runs at interior
speed.

Every clone body is ``static``.  The ``.so`` exports exactly one
entry point per clone (``leaf_batch``, ``walk_subtree_batch``, ...)
that runs the body over ``nb`` jobs stacked contiguously as
``(nb, slots, *sizes)``: a served batch is a stack of K jobs, a local
run a stack of one.  Loading is kept apart from binding:
:func:`load_c_kernel` builds, loads (``dlopen``) and prebinds a kernel's
library once per process, and :func:`bind_c_clones` closes it over one
job stack.

Every clone takes its bounds as *scalar* ``i64`` arguments (the
dimensionality is a codegen-time constant), so a call marshals a handful
of ints: no per-call ctypes array construction, no shared argument
buffers for DAG workers to contend on.  ``argtypes``/``restype`` are
prebound once at load.  ctypes releases the GIL for the duration of
every call, so parallel executors get true multicore execution out of
these clones.

Kernels are built for the host ISA with vectorized leaves (:data:`_CFLAGS`)
and cached on disk keyed by a hash of the generated source *and the
compiler's identity* (name + version banner + ISA), so neither a
toolchain upgrade nor another CPU loads a stale object.  A cache entry
that fails to load (truncated write, foreign architecture) is evicted
and rebuilt instead of erroring.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import CompileError, KernelError, SpecificationError
from repro.resilience import degradations, faults
from repro.util import atomic_write_text, durable_replace, interprocess_lock
from repro.compiler.frontend import KernelIR
from repro.expr.analysis import walk
from repro.compiler.codegen_numpy import (
    LeafFn,
    boundary_fill_expr,
    boundary_modes,
    is_vectorizable_boundary,
)
from repro.expr.nodes import (
    Assign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    ConstArrayRead,
    Expr,
    GridRead,
    IndexValue,
    Let,
    LocalRead,
    NotOp,
    Param,
    UnOp,
    Where,
    f64_bits,
)

CloneFn = Callable[[int, tuple[int, ...], tuple[int, ...]], None]

_C_MATH = {
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "sin": "sin",
    "cos": "cos",
    "tanh": "tanh",
    "fabs": "fabs",
    "floor": "floor",
    "ceil": "ceil",
}

_PRELUDE = """\
#include <math.h>
#include <pthread.h>
#include <stdlib.h>
#define MOD(a, n) ((((a) % (n)) + (n)) % (n))
#define CLAMP(a, n) ((a) < 0 ? 0L : ((a) >= (n) ? (n) - 1L : (a)))
typedef long long i64;
"""

#: Phase 1's min/max (Python's: ``a`` unless ``b`` is strictly smaller/
#: larger), for kernels that use them.  libm's fmin/fmax leave signed
#: zeros unspecified and gcc swaps their operands, so their bits vary.
_MINMAX = """\
static inline double pmin(double a, double b) { return b < a ? b : a; }
static inline double pmax(double a, double b) { return b > a ? b : a; }
"""

#: A double by bit pattern: how ``_fmt_const`` spells infinities and NaNs.
_F64_BITS = """\
static inline double f64_bits(unsigned long long u) {
  union { unsigned long long u; double d; } c = { u };
  return c.d;
}
"""


def find_c_compiler() -> str | None:
    """Path of a usable C compiler, or None.

    ``REPRO_NO_CC`` (any non-empty value) forces None — the hook CI's
    no-toolchain job leg uses to prove the ``c`` mode degrades cleanly
    on machines without a compiler.
    """
    if os.environ.get("REPRO_NO_CC"):
        return None
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


#: cc path -> one-line identity ("basename|version banner|isa:..."),
#: memoized per process; subprocessing the compiler per compile_kernel
#: call would cost more than the cache lookup it keys.
_CC_IDENTITY: dict[str, str] = {}
_ISA_FLAG = "-march=native"


def _host_isa(cc: str) -> str | None:
    """Digest of the macros ``cc`` predefines under ``-march=native``
    (the host's ISA extensions), or None when cc rejects the flag."""
    try:
        proc = subprocess.run(
            [cc, _ISA_FLAG, "-E", "-dM", "-x", "c", os.devnull],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    ok = proc.returncode == 0
    return hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] if ok else None


def compiler_identity(cc: str) -> str:
    """Stable one-line identity of the toolchain: name, version banner
    and target ISA (``isa:portable`` when cc rejects ``-march=native``).

    Folded into the on-disk cache digest, the ``_LIBRARIES`` key and the
    autotune fingerprint, so a toolchain change — or a cache shared with
    another CPU — never loads a shared object built for the other one.
    """
    ident = _CC_IDENTITY.get(cc)
    if ident is None:
        banner = ""
        try:
            proc = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=10
            )
            out = (proc.stdout or proc.stderr).strip().splitlines()
            if out:
                banner = out[0]
        except (OSError, subprocess.TimeoutExpired):
            pass
        isa = _host_isa(cc)
        ident = f"{os.path.basename(cc)}|{banner}|isa:{isa or 'portable'}"
        _CC_IDENTITY[cc] = ident
    return ident


def _strides(sizes: tuple[int, ...]) -> tuple[int, ...]:
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return tuple(out)


def _slot_tag(dt: int) -> str:
    return f"m{-dt}" if dt < 0 else f"p{dt}"


def _fmt_const(v: float) -> str:
    """C source for exactly the double ``v``: ``repr`` when finite (valid
    C that round-trips), else the bit pattern through ``f64_bits``."""
    if math.isfinite(v):
        return repr(v)
    return f"f64_bits({f64_bits(v):#x}ULL)"


class _CCodegen:
    """Expression codegen for C (both clones)."""

    def __init__(self, ir: KernelIR, boundary_mode: bool):
        self.ir = ir
        self.boundary_mode = boundary_mode

    def affine(self, index) -> str:
        parts: list[str] = []
        for ax, c in index.terms:
            base = "t" if ax.is_time else f"x{ax.position}"
            parts.append(base if c == 1 else f"{c}*{base}")
        if index.const or not parts:
            parts.append(str(index.const))
        return "(" + " + ".join(parts) + ")"

    def _flat_index(self, array: str, coord_exprs: list[str]) -> str:
        strides = self.ir.arrays[array].strides_points()[1:]
        terms = []
        for expr, stride in zip(coord_exprs, strides):
            terms.append(expr if stride == 1 else f"({expr})*{stride}L")
        return " + ".join(terms) if terms else "0"

    def grid_read(self, node: GridRead) -> str:
        arr = self.ir.arrays[node.array]
        slot = f"s_{node.array}_{_slot_tag(node.dt)}"
        base = f"{slot}*{arr.strides_points()[0]}L"
        if not self.boundary_mode:
            coords = [
                f"x{i}" if off == 0 else f"(x{i}{off:+d})"
                for i, off in enumerate(node.offsets)
            ]
            return f"D_{node.array}[{base} + {self._flat_index(node.array, coords)}]"
        # Boundary clone: x{i} are true coords; map the read coordinate
        # per the array's boundary kind.
        modes = boundary_modes(arr.boundary, self.ir.ndim)
        raw = [
            f"x{i}" if off == 0 else f"(x{i}{off:+d})"
            for i, off in enumerate(node.offsets)
        ]
        if modes is not None:
            mapped = []
            for i, (r, mode) in enumerate(zip(raw, modes)):
                macro = "MOD" if mode == "mod" else "CLAMP"
                mapped.append(f"{macro}({r}, {arr.sizes[i]}L)")
            return (
                f"D_{node.array}[{base} + {self._flat_index(node.array, mapped)}]"
            )
        assert arr.boundary is not None
        # The NumPy backend's fill expression with C's constant spelling
        # — e.g. "0.0" or "(100.0 + 0.2 * (t-1))": t is an integer
        # variable and mixed arithmetic promotes to double.
        fill = boundary_fill_expr(arr.boundary, node.dt, _fmt_const)
        if fill is None:
            raise CompileError(
                f"boundary {arr.boundary.describe()} of array "
                f"{node.array!r} is not expressible in C"
            )
        guard = " && ".join(
            f"({r} >= 0 && {r} < {arr.sizes[i]}L)" for i, r in enumerate(raw)
        )
        in_value = f"D_{node.array}[{base} + {self._flat_index(node.array, raw)}]"
        return f"(({guard}) ? {in_value} : {fill})"

    def const_read(self, node: ConstArrayRead) -> str:
        c = self.ir.const_arrays[node.array]
        sizes = c.sizes
        strides = _strides(tuple(sizes))
        terms = []
        for ix, n, stride in zip(node.indices, sizes, strides):
            clamped = f"CLAMP({self.affine(ix)}, {n}L)"
            terms.append(clamped if stride == 1 else f"({clamped})*{stride}L")
        return f"C_{node.array}[{' + '.join(terms)}]"

    def val(self, e: Expr) -> str:
        if isinstance(e, Const):
            return _fmt_const(e.value)
        if isinstance(e, Param):
            raise CompileError(
                f"parameter {e.name!r} is unbound at codegen; call "
                f"stencil.set_param first"
            )
        if isinstance(e, IndexValue):
            return f"((double){self.affine(e.index)})"
        if isinstance(e, LocalRead):
            return f"L_{e.name}"
        if isinstance(e, GridRead):
            return self.grid_read(e)
        if isinstance(e, ConstArrayRead):
            return self.const_read(e)
        if isinstance(e, BinOp):
            a, b = self.val(e.left), self.val(e.right)
            if e.op in ("min", "max"):
                return f"p{e.op}({a}, {b})"
            if e.op == "%":
                return f"fmod({a}, {b})"
            if e.op == "**":
                return f"pow({a}, {b})"
            return f"({a} {e.op} {b})"
        if isinstance(e, UnOp):
            v = self.val(e.operand)
            return f"(-{v})" if e.op == "neg" else f"fabs({v})"
        if isinstance(e, (Compare, BoolOp, NotOp)):
            return f"({self.cond(e)} ? 1.0 : 0.0)"
        if isinstance(e, Where):
            return (
                f"({self.cond(e.cond)} ? {self.val(e.if_true)} : "
                f"{self.val(e.if_false)})"
            )
        if isinstance(e, Call):
            args = ", ".join(self.val(a) for a in e.args)
            return f"{_C_MATH[e.func]}({args})"
        raise KernelError(f"cannot generate C for {type(e).__name__}")

    def cond(self, e: Expr) -> str:
        if isinstance(e, Compare):
            return f"({self.val(e.left)} {e.op} {self.val(e.right)})"
        if isinstance(e, BoolOp):
            op = "&&" if e.op == "and" else "||"
            return f"({self.cond(e.left)} {op} {self.cond(e.right)})"
        if isinstance(e, NotOp):
            return f"(!{self.cond(e.operand)})"
        return f"({self.val(e)} != 0.0)"


def _ptr_args(ir: KernelIR) -> list[str]:
    """Data-pointer parameters shared by every clone signature.

    Every pointer is ``restrict``-qualified: each registered array and
    each const array owns a distinct buffer (the pipeline never aliases
    them), so the compiler may keep loads in registers across stores to
    other arrays.  Reads and writes *within* one array go through the
    same pointer, so the in-place ping-pong slot scheme stays legal.
    """
    args = [f"double* restrict D_{info.name}" for info in ir.array_infos]
    args.extend(f"const double* restrict C_{c}" for c in sorted(ir.const_arrays))
    return args


def _ptr_names(ir: KernelIR) -> list[str]:
    """The bare pointer identifiers, for forwarding calls between clones."""
    names = [f"D_{info.name}" for info in ir.array_infos]
    names.extend(f"C_{c}" for c in sorted(ir.const_arrays))
    return names


def _slot_lines(ir: KernelIR, indent: str) -> list[str]:
    return [
        f"{indent}const i64 s_{info.name}_{_slot_tag(dt)} = "
        f"MOD(t{dt:+d}, {info.slots}L);"
        for info in ir.array_infos
        for dt in info.dts
    ]


def _stmt_lines(ir: KernelIR, gen: _CCodegen, indent: str) -> list[str]:
    """The kernel body for the point ``(x0, ..)`` (true coordinates)."""
    lines: list[str] = []
    for st in ir.statements:
        if isinstance(st, Let):
            lines.append(f"{indent}const double L_{st.name} = {gen.val(st.expr)};")
        elif isinstance(st, Assign):
            arr_name = st.target.array
            arr = ir.arrays[arr_name]
            coords = [f"x{i}" for i in range(ir.ndim)]
            flat = gen._flat_index(arr_name, coords)
            lines.append(
                f"{indent}D_{arr_name}[s_{arr_name}_{_slot_tag(0)}*"
                f"{arr.strides_points()[0]}L + {flat}] = {gen.val(st.expr)};"
            )
    return lines


def _body_lines(
    ir: KernelIR, gen: _CCodegen, indent: str, *, boundary_mode: bool
) -> list[str]:
    """The per-point loop nest shared by the per-step and fused clones.

    Interior clones loop ``x{i}`` straight over the (in-domain) bounds;
    boundary clones loop virtual ``v{i}`` and reduce to true coordinates
    with the sign-safe MOD.
    """
    d = ir.ndim
    lines: list[str] = []
    loop_var = "v" if boundary_mode else "x"
    for i in range(d):
        lines.append(
            f"{indent}for (i64 {loop_var}{i} = l{i}; "
            f"{loop_var}{i} < h{i}; ++{loop_var}{i}) {{"
        )
        indent += "  "
        if boundary_mode:
            lines.append(f"{indent}const i64 x{i} = MOD(v{i}, {ir.sizes[i]}L);")
    lines.extend(_stmt_lines(ir, gen, indent))
    for _ in range(d):
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    return lines


def _peeled_body_lines(ir: KernelIR, indent: str) -> list[str]:
    """The row-peeled loop nest of the fused ``leaf_boundary``.

    Outer dimensions loop virtual ``v{i}`` reduced by MOD, as in the
    per-point clone, and track whether the row's outer coordinates keep
    every read in-domain (at least the stencil reach from every edge).
    The unit-stride row is split at each periodic seam into spans of
    true coordinates; on such a row, the points whose own reads stay
    in-domain run the *interior* body (raw indexing) and only the
    <= reach head and tail points run the per-point body.  For in-domain
    reads both bodies evaluate the same expression tree, and the points
    are visited in the same order, so the split is bitwise invisible.
    """
    d = ir.ndim
    last = d - 1
    n = ir.sizes[last]
    min_off, max_off = ir.reach()
    interior = _CCodegen(ir, boundary_mode=False)
    boundary = _CCodegen(ir, boundary_mode=True)
    lines: list[str] = []
    ok = "1"
    for i in range(last):
        lines.append(f"{indent}for (i64 v{i} = l{i}; v{i} < h{i}; ++v{i}) {{")
        indent += "  "
        lines.append(f"{indent}const i64 x{i} = MOD(v{i}, {ir.sizes[i]}L);")
        cond = f"x{i} >= {-min_off[i]}L && x{i} < {ir.sizes[i] - max_off[i]}L"
        lines.append(
            f"{indent}const int ok{i} = {cond if i == 0 else f'ok{i - 1} && {cond}'};"
        )
        ok = f"ok{i}"
    x = f"x{last}"
    lines += [
        f"{indent}for (i64 va = l{last}, vb; va < h{last}; va = vb) {{",
        f"{indent}  /* one seam-free span [xs, xe) of true coordinates */",
        f"{indent}  i64 k = va / {n}L;",
        f"{indent}  if (va - k * {n}L < 0) k -= 1;",
        f"{indent}  vb = (k + 1) * {n}L;",
        f"{indent}  if (vb > h{last}) vb = h{last};",
        f"{indent}  const i64 xs = va - k * {n}L, xe = vb - k * {n}L;",
        f"{indent}  i64 ilo = xe, ihi = xe;",
        f"{indent}  if ({ok}) {{",
        f"{indent}    ilo = xs > {-min_off[last]}L ? xs : {-min_off[last]}L;",
        f"{indent}    ihi = xe < {n - max_off[last]}L ? xe : {n - max_off[last]}L;",
        f"{indent}    if (ilo >= ihi) ilo = ihi = xe;",
        f"{indent}  }}",
        f"{indent}  for (i64 {x} = xs; {x} < xe; ++{x}) {{",
        f"{indent}    if ({x} == ilo) {{",
        f"{indent}      for (; {x} < ihi; ++{x}) {{",
        *_stmt_lines(ir, interior, indent + "        "),
        f"{indent}      }}",
        f"{indent}      if ({x} == xe) break;",
        f"{indent}    }}",
        *_stmt_lines(ir, boundary, indent + "    "),
        f"{indent}  }}",
        f"{indent}}}",
    ]
    for _ in range(last):
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    return lines


def _fn_source(ir: KernelIR, *, boundary_mode: bool) -> str:
    """One-time-step clone: ``(ptrs..., t, l0.., h0..)``, scalar bounds.

    ``interior_step`` is the fused ``leaf`` at height one — the same
    body, so one copy fewer for cc to compile.  ``boundary_step`` keeps
    its own per-point loop: it is the reference the row-peeled
    ``leaf_boundary`` is checked against.
    """
    d = ir.ndim
    name = "boundary_step" if boundary_mode else "interior_step"
    args = _ptr_args(ir) + ["i64 t"]
    args += [f"i64 l{i}" for i in range(d)]
    args += [f"i64 h{i}" for i in range(d)]
    lines = [f"static void {name}({', '.join(args)}) {{"]
    if boundary_mode:
        gen = _CCodegen(ir, boundary_mode)
        lines.extend(_slot_lines(ir, "  "))
        lines.extend(_body_lines(ir, gen, "  ", boundary_mode=True))
    else:
        bounds = [f"{v}{i}" for v in ("l", "h") for i in range(d)]
        leaf_args = [*_ptr_names(ir), "t", "t + 1", *bounds, *["0"] * (2 * d)]
        lines.append(f"  leaf({', '.join(leaf_args)});")
    lines.append("}")
    return "\n".join(lines)


def _leaf_fn_source(ir: KernelIR, *, boundary_mode: bool) -> str:
    """The fused base-case clone: the whole trapezoid inside one call.

    ``(ptrs..., ta, tb, l0.., h0.., dl0.., dh0..)`` runs the time loop
    ``[ta, tb)``, shifting each dimension's bounds by its zoid slopes
    after every step (Figure 2, lines 20-28).  Slot arithmetic is
    re-derived per step (the ping-pong MOD); an empty shifted box costs
    one loop-bound test.  Bounds arrive by value, so the slope shift
    mutates the parameters directly.  The boundary clone is row-peeled
    (:func:`_peeled_body_lines`): it runs at interior speed except on
    the points whose reads actually leave the grid.
    """
    d = ir.ndim
    name = "leaf_boundary" if boundary_mode else "leaf"
    args = _ptr_args(ir) + ["i64 ta", "i64 tb"]
    args += [f"i64 l{i}" for i in range(d)]
    args += [f"i64 h{i}" for i in range(d)]
    args += [f"i64 dl{i}" for i in range(d)]
    args += [f"i64 dh{i}" for i in range(d)]
    lines = [f"static void {name}({', '.join(args)}) {{"]
    lines.append("  for (i64 t = ta; t < tb; ++t) {")
    lines.extend(_slot_lines(ir, "    "))
    if boundary_mode:
        lines.extend(_peeled_body_lines(ir, "    "))
    else:
        gen = _CCodegen(ir, boundary_mode=False)
        lines.extend(_body_lines(ir, gen, "    ", boundary_mode=False))
    shift = " ".join(f"l{i} += dl{i}; h{i} += dh{i};" for i in range(d))
    lines.append(f"    {shift}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _leaf_dispatch(ir: KernelIR, ptrs: str, include_boundary: bool) -> str:
    """The walk's base case: the interior or boundary fused leaf for the
    zoid ``(ta, tb, xa.., dxb..)``, by the inherited classification
    ``inter``.  Without C boundary clones only interior zoids ever reach
    the walk, so the base case is always ``leaf``."""
    d = ir.ndim
    args = ", ".join(
        [ptrs, "ta", "tb"]
        + [f"{v}[{i}]" for v in ("xa", "xb", "dxa", "dxb") for i in range(d)]
    )
    if not include_boundary:
        return f"  leaf({args});"
    return f"  if (inter) leaf({args}); else leaf_boundary({args});"


def _interior_test_source(ir: KernelIR) -> str:
    """``walk_interior``: :meth:`repro.trap.walker.WalkSpec.is_interior`
    in C, with the kernel's reach and grid baked in — every read of
    every point stays in-domain at both end slices (extents are linear
    in t).  Virtual coordinates past the seam fail the test, so a
    wrapped zoid is always boundary."""
    min_off, max_off = ir.reach()
    lines = [
        "static int walk_interior(i64 ta, i64 tb, const i64* xa,",
        "    const i64* xb, const i64* dxa, const i64* dxb) {",
        "  const i64 s = tb - 1 - ta;",
    ]
    for i, n in enumerate(ir.sizes):
        lo, hi = -min_off[i], n - max_off[i]
        lines.append(
            f"  if (xa[{i}] < {lo}L || xa[{i}] + dxa[{i}] * s < {lo}L) return 0;"
        )
        lines.append(
            f"  if (xb[{i}] > {hi}L || xb[{i}] + dxb[{i}] * s > {hi}L) return 0;"
        )
    lines += ["  return 1;", "}"]
    return "\n".join(lines)


def _walk_fn_source(ir: KernelIR, include_boundary: bool) -> str:
    """The compiled recursion: ``walk_rec``, its pthread task pool, and
    the per-job entry ``walk_subtree``.

    ``walk_rec`` is a self-contained C implementation of the TRAP/STRAP
    control flow of Figure 2: per-dimension trisection space cuts
    (``walk_cuts``) combined into level-ordered hyperspace cuts (Lemma 1),
    then time cuts.  Like Pochoir's generated code it asks "interior?" of
    each zoid (``walk_interior``) until the answer is yes — every subzoid
    of an interior zoid is interior, so the flag ``inter`` is inherited —
    and bottoms out in the fused ``leaf`` or, for zoids that touch the
    boundary, the row-peeled ``leaf_boundary``.  Without C boundary
    clones the planner hands it interior zoids only and the test is not
    generated.  Circular cuts are deliberately absent: the planner never
    delegates a zoid that could need one
    (:func:`repro.trap.walker._fits_walk_grain`).

    There is one recursion, run at any thread count, as Pochoir's one
    Cilk program is.  ``walk_subtree`` takes ``nthreads`` and sets the
    call's ``pool`` flag from ``wq_ensure_pool``, which lazily grows a
    process-lifetime pool of detached workers over a shared deque.  With
    a pool, the valid pieces of each hyperspace level are spawned as
    tasks — each is held back until the next one is found, so the last
    piece runs inline — and the level joins at a barrier before the next
    starts (Lemma 1: same-level pieces are independent).  The join
    *helps*: while its pieces are outstanding it pops and runs queued
    tasks, so it cannot deadlock even with one worker.  Without a pool
    (``nthreads`` 1, a failed ``pthread_create``, or the test hook
    ``REPRO_WALK_POOL_FAIL``) ``wq_spawn`` declines every piece, so the
    same code is the serial elision: every piece runs inline in
    odometer order, depth-first, with no spawn, lock or barrier.

    Task state is carved from one preallocated static ring (``wq_ring``):
    bounds are copied by value into fixed slots, the per-call pointers
    and knobs live in a ``wjob`` on the entry's stack, and per-level join
    counters on the spawning frame (every spawn is joined before that
    frame returns).  No heap allocation happens anywhere; a full ring
    makes a spawn run its piece inline.  Scheduling cannot change
    results: each point is written once, by one task, from neighbors the
    level barriers have completed, and every leaf runs the same FP
    instructions — the walk is bitwise identical at every thread count.

    Coarsening thresholds, slopes, the hyperspace flag and the thread
    count arrive as scalar ``i64`` arguments, so tuned configurations
    from the autotune registry apply unrebuilt.  The counters (spawned, stolen, level
    barriers, and calls that asked for more than one thread but ran
    without a pool) are flushed once per call into the caller's
    ``i64[4]`` stats buffer with atomic adds, so concurrent DAG workers
    can share one buffer.
    """
    d = ir.ndim
    ptr_names = _ptr_names(ir)
    jp = ", ".join(f"job->{n}" for n in ptr_names)
    lines = [
        "/* Per-dimension trisection cuts: fills the piece lists (np,",
        "   pxa..pbit) and returns whether anything cut. */",
        "static int walk_cuts(i64 h, const i64* xa, const i64* xb,",
        "    const i64* dxa, const i64* dxb, const i64* sl, const i64* th,",
        "    i64 hyper, i64* np, i64 (*pxa)[3], i64 (*pxb)[3],",
        "    i64 (*pdxa)[3], i64 (*pdxb)[3], i64 (*pbit)[3]) {",
        "  int cut = 0;",
        f"  for (int i = 0; i < {d}; ++i) {{",
        "    np[i] = 0;",
        "    if (cut && !hyper) continue;  /* STRAP: first cuttable dim only */",
        "    const i64 bottom = xb[i] - xa[i];",
        "    const i64 top = bottom + (dxb[i] - dxa[i]) * h;",
        "    const i64 w = bottom >= top ? bottom : top;",
        "    if (w <= th[i]) continue;",
        "    const i64 sg = sl[i];",
        "    if (sg == 0) {",
        "      /* dependency-free dimension: plain bisection, no gray */",
        "      if (bottom < 2) continue;",
        "      const i64 mid = xa[i] + bottom / 2;",
        "      pxa[i][0] = xa[i]; pxb[i][0] = mid;",
        "      pdxa[i][0] = dxa[i]; pdxb[i][0] = dxb[i]; pbit[i][0] = 0;",
        "      pxa[i][1] = mid; pxb[i][1] = xb[i];",
        "      pdxa[i][1] = dxa[i]; pdxb[i][1] = dxb[i]; pbit[i][1] = 0;",
        "      np[i] = 2; cut = 1;",
        "    } else if (bottom >= top) {",
        "      /* upright: blacks first, inverted gray after (Fig. 7(a)) */",
        "      const i64 l0 = bottom / 2, l1 = bottom - l0;",
        "      i64 needl = (sg + dxa[i]) * h; if (needl < 1) needl = 1;",
        "      i64 needr = (sg - dxb[i]) * h; if (needr < 1) needr = 1;",
        "      if (l0 < needl || l1 < needr) continue;",
        "      const i64 mid = xa[i] + l0;",
        "      pxa[i][0] = xa[i]; pxb[i][0] = mid;",
        "      pdxa[i][0] = dxa[i]; pdxb[i][0] = -sg; pbit[i][0] = 0;",
        "      pxa[i][1] = mid; pxb[i][1] = mid;",
        "      pdxa[i][1] = -sg; pdxb[i][1] = sg; pbit[i][1] = 1;",
        "      pxa[i][2] = mid; pxb[i][2] = xb[i];",
        "      pdxa[i][2] = sg; pdxb[i][2] = dxb[i]; pbit[i][2] = 0;",
        "      np[i] = 3; cut = 1;",
        "    } else {",
        "      /* inverted: upright gray first, blacks after (Fig. 7(b)) */",
        "      const i64 h0 = top / 2, h1 = top - h0;",
        "      i64 needl = (sg - dxa[i]) * h; if (needl < 1) needl = 1;",
        "      i64 needr = (sg + dxb[i]) * h; if (needr < 1) needr = 1;",
        "      if (h0 < needl || h1 < needr) continue;",
        "      const i64 m_top = xa[i] + dxa[i] * h + h0;",
        "      const i64 ga = m_top - sg * h, gb = m_top + sg * h;",
        "      pxa[i][0] = xa[i]; pxb[i][0] = ga;",
        "      pdxa[i][0] = dxa[i]; pdxb[i][0] = sg; pbit[i][0] = 1;",
        "      pxa[i][1] = ga; pxb[i][1] = gb;",
        "      pdxa[i][1] = sg; pdxb[i][1] = -sg; pbit[i][1] = 0;",
        "      pxa[i][2] = gb; pxb[i][2] = xb[i];",
        "      pdxa[i][2] = -sg; pdxb[i][2] = dxb[i]; pbit[i][2] = 1;",
        "      np[i] = 3; cut = 1;",
        "    }",
        "  }",
        "  return cut;",
        "}",
        "",
        "/* Materialize one piece of the cut product (the odometer's idx)",
        "   into cxa..cdxb; returns 0 for empty degenerate pieces",
        "   (zero-point subzoids), which the walk skips. */",
        "static int walk_piece(i64 h, const i64* xa, const i64* xb,",
        "    const i64* dxa, const i64* dxb, const i64* np, const i64* idx,",
        "    i64 (*pxa)[3], i64 (*pxb)[3], i64 (*pdxa)[3], i64 (*pdxb)[3],",
        "    i64* cxa, i64* cxb, i64* cdxa, i64* cdxb) {",
        f"  for (int i = 0; i < {d}; ++i) {{",
        "    if (np[i] > 0) {",
        "      cxa[i] = pxa[i][idx[i]]; cxb[i] = pxb[i][idx[i]];",
        "      cdxa[i] = pdxa[i][idx[i]]; cdxb[i] = pdxb[i][idx[i]];",
        "    } else {",
        "      cxa[i] = xa[i]; cxb[i] = xb[i];",
        "      cdxa[i] = dxa[i]; cdxb[i] = dxb[i];",
        "    }",
        "    const i64 b = cxb[i] - cxa[i];",
        "    const i64 t = b + (cdxb[i] - cdxa[i]) * h;",
        "    if (b < 0 || t < 0 || (b <= 0 && t <= 0)) return 0;",
        "  }",
        "  return 1;",
        "}",
        "",
        "#define WQ_CAP 512",
        "#define WQ_MAX_WORKERS 64",
        "",
        "/* Per-call shared state: data pointers, tuning knobs, whether this",
        "   call has a pool.  Lives on the walk_subtree stack frame; tasks",
        "   point back at it. */",
        "typedef struct wjob {",
        *[f"  {arg};" for arg in _ptr_args(ir)],
        f"  i64 sl[{d}], th[{d}];",
        "  i64 dt_th, hyper;",
        "  int pool;",
        "  i64 spawned, stolen, barriers;  /* guarded by wq_mu */",
        "} wjob;",
        "",
        "/* One spawned piece: bounds by value, job by pointer.  sync is the",
        "   spawning frame's level-barrier counter. */",
        "typedef struct {",
        "  wjob* job;",
        "  i64* sync;",
        "  i64 ta, tb, inter;",
        f"  i64 xa[{d}], xb[{d}], dxa[{d}], dxb[{d}];",
        "} wtask;",
        "",
        "static pthread_mutex_t wq_mu = PTHREAD_MUTEX_INITIALIZER;",
        "static pthread_cond_t wq_work_cv = PTHREAD_COND_INITIALIZER;",
        "static pthread_cond_t wq_done_cv = PTHREAD_COND_INITIALIZER;",
        "/* The preallocated task arena: a fixed ring of value slots. */",
        "static wtask wq_ring[WQ_CAP];",
        "static i64 wq_head = 0, wq_tail = 0;  /* monotonic; index % WQ_CAP */",
        "static int wq_workers = 0;",
        "static int wq_failed = 0;",
        "",
        "static void walk_rec(wjob* job, i64 ta, i64 tb,",
        "    const i64* xa, const i64* xb, const i64* dxa, const i64* dxb,",
        "    i64 inter);",
        "",
        "static void wq_run_task(wtask t, int stolen) {",
        "  walk_rec(t.job, t.ta, t.tb, t.xa, t.xb, t.dxa, t.dxb, t.inter);",
        "  pthread_mutex_lock(&wq_mu);",
        "  *t.sync -= 1;",
        "  if (stolen) t.job->stolen += 1;",
        "  pthread_cond_broadcast(&wq_done_cv);",
        "  pthread_mutex_unlock(&wq_mu);",
        "}",
        "",
        "static void* wq_worker(void* arg) {",
        "  (void)arg;",
        "  for (;;) {",
        "    pthread_mutex_lock(&wq_mu);",
        "    while (wq_head == wq_tail)",
        "      pthread_cond_wait(&wq_work_cv, &wq_mu);",
        "    wtask t = wq_ring[wq_head % WQ_CAP];",
        "    wq_head += 1;",
        "    pthread_mutex_unlock(&wq_mu);",
        "    wq_run_task(t, 1);",
        "  }",
        "  return 0;",
        "}",
        "",
        "/* Enqueue one piece; returns 0 when the call has no pool or the",
        "   arena is full, and the caller then runs the piece inline. */",
        "static int wq_spawn(wjob* job, i64 ta, i64 tb, const i64* cxa,",
        "    const i64* cxb, const i64* cdxa, const i64* cdxb, i64 inter,",
        "    i64* sync) {",
        "  if (!job->pool) return 0;",
        "  pthread_mutex_lock(&wq_mu);",
        "  if (wq_tail - wq_head >= WQ_CAP) {",
        "    pthread_mutex_unlock(&wq_mu);",
        "    return 0;",
        "  }",
        "  wtask* t = &wq_ring[wq_tail % WQ_CAP];",
        "  t->job = job; t->sync = sync; t->ta = ta; t->tb = tb;",
        "  t->inter = inter;",
        f"  for (int i = 0; i < {d}; ++i) {{",
        "    t->xa[i] = cxa[i]; t->xb[i] = cxb[i];",
        "    t->dxa[i] = cdxa[i]; t->dxb[i] = cdxb[i];",
        "  }",
        "  *sync += 1;",
        "  job->spawned += 1;",
        "  wq_tail += 1;",
        "  pthread_cond_signal(&wq_work_cv);",
        "  pthread_mutex_unlock(&wq_mu);",
        "  return 1;",
        "}",
        "",
        "/* The level barrier.  Help-first: while this level's pieces are",
        "   outstanding, pop and run any queued task instead of blocking —",
        "   every queued task is independent ready work (Lemma 1), so the",
        "   join cannot deadlock even with zero idle workers. */",
        "static void wq_join(wjob* job, i64* sync) {",
        "  pthread_mutex_lock(&wq_mu);",
        "  job->barriers += 1;",
        "  while (*sync > 0) {",
        "    if (wq_head != wq_tail) {",
        "      wtask t = wq_ring[wq_head % WQ_CAP];",
        "      wq_head += 1;",
        "      pthread_mutex_unlock(&wq_mu);",
        "      wq_run_task(t, 0);",
        "      pthread_mutex_lock(&wq_mu);",
        "    } else {",
        "      pthread_cond_wait(&wq_done_cv, &wq_mu);",
        "    }",
        "  }",
        "  pthread_mutex_unlock(&wq_mu);",
        "}",
        "",
        "/* Lazily grow the pool to nthreads-1 detached workers; returns",
        "   the live worker count (0 => the call runs without a pool).  The",
        "   REPRO_WALK_POOL_FAIL env hook forces the failure path so the",
        "   no-pool fallback stays testable on any host. */",
        "static i64 wq_ensure_pool(i64 nthreads) {",
        "  if (nthreads <= 1) return 0;",
        '  if (getenv("REPRO_WALK_POOL_FAIL")) return 0;',
        "  i64 want = nthreads - 1;",
        "  if (want > WQ_MAX_WORKERS) want = WQ_MAX_WORKERS;",
        "  pthread_mutex_lock(&wq_mu);",
        "  while (!wq_failed && wq_workers < want) {",
        "    pthread_t th;",
        "    if (pthread_create(&th, 0, wq_worker, 0) != 0) {",
        "      if (wq_workers == 0) wq_failed = 1;",
        "      break;",
        "    }",
        "    pthread_detach(th);",
        "    wq_workers += 1;",
        "  }",
        "  i64 live = wq_workers;",
        "  pthread_mutex_unlock(&wq_mu);",
        "  return live;",
        "}",
        "",
        "static void walk_rec(wjob* job, i64 ta, i64 tb,",
        "    const i64* xa, const i64* xb, const i64* dxa, const i64* dxb,",
        "    i64 inter) {",
    ]
    if include_boundary:
        lines.append(
            "  if (!inter) inter = walk_interior(ta, tb, xa, xb, dxa, dxb);"
        )
    lines += [
        "  const i64 h = tb - ta;",
        f"  i64 pxa[{d}][3], pxb[{d}][3], pdxa[{d}][3], pdxb[{d}][3];",
        f"  i64 pbit[{d}][3];",
        f"  i64 np[{d}];",
        "  if (walk_cuts(h, xa, xb, dxa, dxb, job->sl, job->th, job->hyper,",
        "                np, pxa, pxb, pdxa, pdxb, pbit)) {",
        "    /* hyperspace cut: the piece product, levels in sequence",
        "       (Lemma 1's dependency levels).  Pieces alternate between",
        "       two buffers: a valid piece waits in its buffer until the",
        "       next one is found, and is then spawned (or run inline when",
        "       there is no pool), so the level's last piece runs inline. */",
        f"    i64 cxa[2][{d}], cxb[2][{d}], cdxa[2][{d}], cdxb[2][{d}];",
        f"    i64 idx[{d}];",
        f"    for (i64 level = 0; level <= {d}; ++level) {{",
        "      i64 sync = 0;",
        "      int cur = 0, pending = 0, spawned = 0;",
        f"      for (int i = 0; i < {d}; ++i) idx[i] = 0;",
        "      for (;;) {",
        "        i64 bits = 0;",
        f"        for (int i = 0; i < {d}; ++i)",
        "          if (np[i] > 0) bits += pbit[i][idx[i]];",
        "        if (bits == level &&",
        "            walk_piece(h, xa, xb, dxa, dxb, np, idx, pxa, pxb, pdxa,",
        "                       pdxb, cxa[cur], cxb[cur], cdxa[cur], cdxb[cur])) {",
        "          const int p = 1 - cur;",
        "          if (pending) {",
        "            if (wq_spawn(job, ta, tb, cxa[p], cxb[p], cdxa[p], cdxb[p],",
        "                         inter, &sync))",
        "              spawned = 1;",
        "            else",
        "              walk_rec(job, ta, tb, cxa[p], cxb[p], cdxa[p], cdxb[p],",
        "                       inter);",
        "          }",
        "          pending = 1;",
        "          cur = p;",
        "        }",
        "        /* odometer over the cut dimensions */",
        "        int carry = 1;",
        f"        for (int i = 0; i < {d} && carry; ++i) {{",
        "          if (np[i] == 0) continue;",
        "          if (++idx[i] < np[i]) carry = 0; else idx[i] = 0;",
        "        }",
        "        if (carry) break;",
        "      }",
        "      const int p = 1 - cur;",
        "      if (pending)",
        "        walk_rec(job, ta, tb, cxa[p], cxb[p], cdxa[p], cdxb[p], inter);",
        "      if (spawned) wq_join(job, &sync);",
        "    }",
        "    return;",
        "  }",
        "  if (h > job->dt_th && h >= 2) {",
        "    /* time cut at the midpoint (Fig. 7(c)): sequential halves */",
        "    const i64 tm = ta + h / 2;",
        "    walk_rec(job, ta, tm, xa, xb, dxa, dxb, inter);",
        f"    i64 nxa[{d}], nxb[{d}];",
        "    const i64 s = tm - ta;",
        f"    for (int i = 0; i < {d}; ++i) {{",
        "      nxa[i] = xa[i] + dxa[i] * s; nxb[i] = xb[i] + dxb[i] * s;",
        "    }",
        "    walk_rec(job, tm, tb, nxa, nxb, dxa, dxb, inter);",
        "    return;",
        "  }",
        _leaf_dispatch(ir, jp, include_boundary),
        "}",
    ]
    if include_boundary:
        lines[:0] = [_interior_test_source(ir), ""]

    # The per-job entry: scalar bounds in, packed into the job and the
    # root zoid; an unknown root classification (0) is tested in
    # walk_rec when boundary zoids may arrive.
    args = _ptr_args(ir) + ["i64 ta", "i64 tb"]
    for prefix in ("l", "h", "dl", "dh", "s", "th"):
        args += [f"i64 {prefix}{i}" for i in range(d)]
    args += ["i64 dt_th", "i64 hyper", "i64 nthreads", "i64* restrict wstats"]

    def vec(prefix: str) -> str:
        return "{" + ", ".join(f"{prefix}{i}" for i in range(d)) + "}"

    lines += [
        "",
        f"static void walk_subtree({', '.join(args)}) {{",
        "  wjob job = {",
        *[f"    .{n} = {n}," for n in ptr_names],
        f"    .sl = {vec('s')}, .th = {vec('th')},",
        "    .dt_th = dt_th, .hyper = hyper,",
        "    .pool = wq_ensure_pool(nthreads) > 0,",
        "  };",
        f"  const i64 xa[{d}] = {vec('l')}, xb[{d}] = {vec('h')};",
        f"  const i64 dxa[{d}] = {vec('dl')}, dxb[{d}] = {vec('dh')};",
        f"  walk_rec(&job, ta, tb, xa, xb, dxa, dxb, "
        f"{0 if include_boundary else 1});",
        "  /* All spawns joined: counters are final (the joins' mutex",
        "     hand-offs order every worker write before these reads). */",
        "  if (!wstats) return;",
        "  if (job.pool) {",
        "    __atomic_fetch_add(&wstats[0], job.spawned, __ATOMIC_RELAXED);",
        "    __atomic_fetch_add(&wstats[1], job.stolen, __ATOMIC_RELAXED);",
        "    __atomic_fetch_add(&wstats[2], job.barriers, __ATOMIC_RELAXED);",
        "  } else if (nthreads > 1) {",
        "    /* asked for a pool and ran without one */",
        "    __atomic_fetch_add(&wstats[3], 1, __ATOMIC_RELAXED);",
        "  }",
        "}",
    ]
    return "\n".join(lines)


def _const_stride(ir: KernelIR, name: str) -> int:
    points = 1
    for s in ir.const_arrays[name].sizes:
        points *= int(s)
    return points


def _entry_fn_source(ir: KernelIR, *, include_boundary: bool) -> str:
    """The exported entry points, one per clone: each wraps its
    ``static`` per-job body in a loop over ``nb`` jobs laid out
    contiguously, offsetting every data pointer by the job's
    codegen-constant stride.  One GIL-released call then runs a whole
    stack of same-shape problems — a local run is a stack of one.
    Bounds pass by value, so every job sees fresh copies (the fused leaf
    mutates its own)."""
    d = ir.ndim
    pa = ", ".join(_ptr_args(ir))
    offs = [
        f"D_{info.name} + b*{ir.arrays[info.name].total_points}L"
        for info in ir.array_infos
    ]
    offs.extend(
        f"C_{c} + b*{_const_stride(ir, c)}L" for c in sorted(ir.const_arrays)
    )
    po = ", ".join(offs)
    step_scalars = ["i64 t"] + [f"i64 l{i}" for i in range(d)] + [
        f"i64 h{i}" for i in range(d)
    ]
    leaf_scalars = ["i64 ta", "i64 tb"]
    for prefix in ("l", "h", "dl", "dh"):
        leaf_scalars += [f"i64 {prefix}{i}" for i in range(d)]
    walk_scalars = ["i64 ta", "i64 tb"]
    for prefix in ("l", "h", "dl", "dh", "s", "th"):
        walk_scalars += [f"i64 {prefix}{i}" for i in range(d)]
    # Every job's walk adds its pool counters into the one wstats.
    walk_scalars += ["i64 dt_th", "i64 hyper", "i64 nthreads"]
    walk_scalars += ["i64* restrict wstats"]

    def wrapper(name: str, target: str, scalars: list[str]) -> str:
        args = ", ".join([pa, "i64 nb"] + scalars)
        fwd = ", ".join(s.split()[-1] for s in scalars)
        return (
            f"void {name}({args}) {{\n"
            f"  for (i64 b = 0; b < nb; ++b)\n"
            f"    {target}({po}, {fwd});\n"
            f"}}"
        )

    parts = [
        wrapper("interior_step_batch", "interior_step", step_scalars),
        wrapper("leaf_batch", "leaf", leaf_scalars),
        wrapper("walk_subtree_batch", "walk_subtree", walk_scalars),
    ]
    if include_boundary:
        parts.append(wrapper("boundary_step_batch", "boundary_step", step_scalars))
        parts.append(wrapper("leaf_boundary_batch", "leaf_boundary", leaf_scalars))
    return "\n\n".join(parts)


def generate_c_source(ir: KernelIR, *, include_boundary: bool = True) -> str:
    """The full postsource: prelude, per-step and fused clone pairs, the
    compiled recursion (``walk_subtree``) with its pthread task pool, all
    ``static``, and the exported nb-taking entry points over them."""
    nodes = (n for st in ir.statements for n in walk(st.expr))
    minmax = any(isinstance(n, BinOp) and n.op in ("min", "max") for n in nodes)
    parts = [
        _leaf_fn_source(ir, boundary_mode=False),
        _fn_source(ir, boundary_mode=False),
    ]
    if include_boundary:
        parts.append(_fn_source(ir, boundary_mode=True))
        parts.append(_leaf_fn_source(ir, boundary_mode=True))
    parts.append(_walk_fn_source(ir, include_boundary))
    parts.append(_entry_fn_source(ir, include_boundary=include_boundary))
    body = "\n\n".join(parts)
    bits = "f64_bits(" in body
    prelude = _PRELUDE + (_MINMAX if minmax else "") + (_F64_BITS if bits else "")
    return prelude + "\n\n" + body + "\n"


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CC_CACHE")
    if root:
        path = Path(root)
    else:
        path = Path(tempfile.gettempdir()) / "repro_cc_cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


#: Compile flags, part of the cache digest (changing them must not load
#: an object built with the old set); :func:`compile_flags` adds the ISA.
#: ``-fvect-cost-model=dynamic`` vectorizes the unit-stride loops of
#: ``leaf`` and ``leaf_boundary``'s interior span, which -O2's default
#: "very-cheap" model refuses (both need a runtime alias check).  That
#: is bitwise-safe: each lane is one point evaluating its own expression
#: tree in source order; ``-ffp-contract=off`` forbids fused
#: multiply-add, no ``-ffast-math`` forbids reassociation (and keeps
#: libm calls scalar); ``-fno-math-errno`` only lets sqrt/fabs lower to
#: their correctly rounded instructions.  Not ``-O3``: it adds 0.2-0.3 s
#: to every cold build, which is part of a run's setup.  ``-pthread`` is
#: for the walk's embedded task pool, which every kernel carries.
_CFLAGS = ("-O2", "-fvect-cost-model=dynamic", "-ffp-contract=off",
           "-fno-math-errno", "-fPIC", "-shared", "-pthread")


def compile_flags(cc: str) -> tuple[str, ...]:
    """:data:`_CFLAGS` plus ``-march=native`` unless ``cc`` rejects it
    (then kernels keep the baseline ISA's vectors)."""
    portable = compiler_identity(cc).endswith("|isa:portable")
    return _CFLAGS if portable else (*_CFLAGS, _ISA_FLAG)


def _cc_timeout() -> float:
    """Wall-clock budget for one cc invocation (``$REPRO_CC_TIMEOUT``,
    seconds).  The default is generous — these are single-file builds
    that normally finish in well under a second — so a hit means a hung
    toolchain (NFS stall, license-server wait, a wedged cc1), not a
    slow machine."""
    try:
        return max(1.0, float(os.environ.get("REPRO_CC_TIMEOUT", "300")))
    except ValueError:
        return 300.0


def _count_cc_invocation() -> None:
    """Test hook: append one line per cc invocation to
    ``$REPRO_CC_COUNT_FILE``.  ``O_APPEND`` of one small write is atomic
    across processes, so the compile-race test asserts "exactly one
    compile for N concurrent requesters" by counting lines."""
    path = os.environ.get("REPRO_CC_COUNT_FILE")
    if not path:
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
        finally:
            os.close(fd)
    except OSError:
        pass


def _run_cc(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """One cc invocation, with the ``cc.hang``/``cc.fail`` fault sites.

    ``cc.hang`` swaps in a genuinely hanging child so the timeout path
    (kill + reap + retry) is exercised for real, not simulated."""
    _count_cc_invocation()
    run_cmd = cmd
    if faults.fire("cc.hang"):
        run_cmd = [sys.executable, "-c", "import time; time.sleep(2147483)"]
    proc = subprocess.run(run_cmd, capture_output=True, text=True, timeout=timeout)
    if faults.fire("cc.fail"):
        return subprocess.CompletedProcess(
            run_cmd, 1, stdout="", stderr="injected fault: cc.fail"
        )
    return proc


def build_shared_object(source: str, *, force: bool = False) -> Path:
    """Compile C source to a cached shared object; return its path.

    The cache key hashes the source, the compile flags *and*
    :func:`compiler_identity`, so a toolchain upgrade, a flag change or
    another CPU compiles afresh instead of loading the old object.
    ``force`` recompiles even when a cached object exists (the
    load-failure eviction path).

    The cc subprocess runs under a timeout (:func:`_cc_timeout`) with
    one short-backoff retry — a wedged toolchain must not hang the run
    when the NumPy backend could serve it.  A second timeout (or any
    nonzero exit) raises :class:`CompileError`, which the pipeline's
    mode fallback turns into a degraded-but-running configuration.
    """
    cc = find_c_compiler()
    if cc is None:
        raise CompileError("no C compiler found (tried $CC, cc, gcc, clang)")
    flags = compile_flags(cc)
    digest = hashlib.sha256(
        f"{compiler_identity(cc)}\n{' '.join(flags)}\n{source}".encode()
    ).hexdigest()[:24]
    cache = _cache_dir()
    so_path = cache / f"kernel_{digest}.so"
    if so_path.exists() and not force:
        return so_path
    # One compiler per digest across processes: a server fanning the
    # same kernel out to many workers must pay cc once, with the herd
    # waiting on the lock and then loading the winner's object.  The
    # re-check under the lock is the usual exit for every waiter; where
    # flock is unavailable this degrades to the old racy-but-atomic
    # compile-twice behavior.
    with interprocess_lock(cache / f"kernel_{digest}.lock"):
        if so_path.exists() and not force:
            return so_path
        c_path = cache / f"kernel_{digest}.c"
        atomic_write_text(c_path, source)
        tmp_so = cache / f"kernel_{digest}.{os.getpid()}.tmp.so"
        cmd = [cc, *flags, "-o", str(tmp_so), str(c_path), "-lm"]
        timeout = _cc_timeout()
        for attempt in (0, 1):
            try:
                proc = _run_cc(cmd, timeout)
            except subprocess.TimeoutExpired:
                if attempt == 0:
                    degradations.note("cc:timeout-retry")
                    time.sleep(min(1.0, timeout / 20))
                    continue
                raise CompileError(
                    f"C compilation timed out twice ({timeout:g}s each) — "
                    f"wedged toolchain? ({' '.join(cmd)})"
                ) from None
            if proc.returncode != 0:
                raise CompileError(
                    f"C compilation failed ({' '.join(cmd)}):\n{proc.stderr}"
                )
            break
        # fsync the object and its directory entry before publishing: a
        # half-written .so surviving a crash would cost a (detected,
        # evicted) load failure on every later process.
        durable_replace(tmp_so, so_path)
    return so_path


def load_shared_object(source: str) -> ctypes.CDLL:
    """Build (or reuse) and load the shared object for ``source``.

    A cached object that fails to load — truncated write from a killed
    process, an object built for another architecture carried over in a
    shared cache dir — is *evicted* and rebuilt once, instead of pinning
    the cache in a permanently broken state.  A rebuild that *still*
    fails to load raises :class:`CompileError` (not a raw ``OSError``),
    so callers' backend fallbacks treat it like any other toolchain
    failure.
    """
    so_path = build_shared_object(source)
    try:
        if faults.fire("so.load"):
            raise OSError("injected fault: so.load")
        return ctypes.CDLL(str(so_path))
    except OSError:
        degradations.note("so-cache:evicted-rebuilt")
        try:
            so_path.unlink()
        except OSError:
            pass
        rebuilt = build_shared_object(source, force=True)
        try:
            if faults.fire("so.load"):
                raise OSError("injected fault: so.load")
            return ctypes.CDLL(str(rebuilt))
        except OSError as exc:
            raise CompileError(
                f"shared object {rebuilt} failed to load even after "
                f"evict-and-rebuild: {exc}"
            ) from exc


@dataclass(frozen=True)
class CLibrary:
    """One kernel's loaded ``.so``: its exported nb-taking entry points,
    ``argtypes``/``restype`` prebound, and the source they were built
    from.  It holds no buffer (:func:`bind_c_clones` closes it over a
    job stack), so one load serves every run and batch of the kernel
    in the process.

    ``boundary``/``leaf_boundary`` are None when some array uses a
    boundary kind C cannot express (PythonBoundary).  ``walk`` exists
    regardless: without C boundary clones it is built without the
    interior test and only ever receives interior zoids.
    """

    source: str
    interior: Callable[..., None]
    leaf: Callable[..., None]
    walk: Callable[..., None]
    boundary: Callable[..., None] | None
    leaf_boundary: Callable[..., None] | None


#: (problem signature, $REPRO_CC_CACHE, compiler identity) -> CLibrary.
_LIBRARIES: dict[tuple, CLibrary] = {}
_LIBRARIES_LOCK = threading.Lock()


def clear_library_cache() -> None:
    with _LIBRARIES_LOCK:
        _LIBRARIES.clear()


def load_c_kernel(ir: KernelIR) -> tuple[CLibrary, bool]:
    """The load-once half: generate, build, ``dlopen`` and prebind the
    kernel library for ``ir``, once per process; returns the library and
    whether it was already loaded.

    Cached on what determines the ``.so``: the problem signature
    (``ir.signature``, which also fixes whether boundary clones are
    emitted), the ``$REPRO_CC_CACHE`` directory and the compiler
    identity — so a fresh cache directory or another toolchain reaches
    cc and ``dlopen``, and their fault sites, again.  Failures are not
    cached.  Two threads that miss together both load: the ``.so``
    cache's per-digest lock runs cc once, ``dlopen`` of one path returns
    one handle, and the first library stored is the one every caller
    gets.
    """
    cc = find_c_compiler()
    if cc is None:
        raise CompileError("no C compiler found (tried $CC, cc, gcc, clang)")
    key = (
        ir.signature,
        os.environ.get("REPRO_CC_CACHE"),
        compiler_identity(cc),
    )
    with _LIBRARIES_LOCK:
        cached = _LIBRARIES.get(key)
    if cached is not None:
        return cached, True
    loaded = _load_library(ir)
    with _LIBRARIES_LOCK:
        return _LIBRARIES.setdefault(key, loaded), False


def _load_library(ir: KernelIR) -> CLibrary:
    boundary_ok = all(
        is_vectorizable_boundary(a.boundary) for a in ir.arrays.values()
    )
    source = generate_c_source(ir, include_boundary=boundary_ok)
    lib = load_shared_object(source)

    d = ir.ndim
    n_ptrs = len(ir.array_infos) + len(ir.const_arrays)
    ptr_types = [ctypes.POINTER(ctypes.c_double)] * n_ptrs
    i64 = ctypes.c_longlong

    def entry(name: str, n_scalars: int, *tail) -> Callable[..., None]:
        fn = getattr(lib, name)
        # nb, then the per-job clone's scalar arguments.
        fn.argtypes = ptr_types + [i64] * (1 + n_scalars) + list(tail)
        fn.restype = None
        return fn

    # The walk's scalars end in nthreads, then the wstats pointer.
    step, leaf, walk = 1 + 2 * d, 2 + 4 * d, 5 + 6 * d
    return CLibrary(
        source=source,
        interior=entry("interior_step_batch", step),
        leaf=entry("leaf_batch", leaf),
        walk=entry("walk_subtree_batch", walk, ctypes.POINTER(i64)),
        boundary=entry("boundary_step_batch", step) if boundary_ok else None,
        leaf_boundary=entry("leaf_boundary_batch", leaf) if boundary_ok else None,
    )


def _checked_buffer(name: str, buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The last guard before a pointer goes to foreign code.  Grids are
    checked where they enter (``PochoirArray.check_layout``), so a miss
    here is a caller bug, not a reason to retry on NumPy."""
    if buf.dtype != np.float64 or not buf.flags["C_CONTIGUOUS"] or buf.shape != shape:
        raise SpecificationError(
            f"stacked buffer for {name!r} must be a C-contiguous float64 "
            f"array of shape {shape}, got {buf.dtype} {buf.shape}"
        )
    return buf


def bind_c_clones(
    lib: CLibrary,
    ir: KernelIR,
    stacked: dict[str, np.ndarray],
    stacked_consts: dict[str, np.ndarray],
    nb: int,
) -> dict:
    """The bind-per-buffers half: close ``lib``'s entry points over one
    job stack; returns the :class:`~repro.compiler.pipeline.CompiledKernel`
    clone fields.

    ``stacked[name]`` is a C-contiguous float64 ``(nb, slots, *sizes)``
    buffer whose slab ``[b]`` is job ``b``'s modular time buffer (a
    local run passes a zero-copy view of its own array with ``nb=1``);
    ``stacked_consts[name]`` stacks each job's const array likewise.
    Each returned clone has the ordinary call shape and runs every job
    of the stack per call.  Calls marshal plain Python ints into scalar
    ``i64`` parameters — no per-call ctypes arrays, no shared mutable
    argument buffers — so DAG workers invoke one clone concurrently
    without contending, and ctypes drops the GIL for each call.
    """
    nb = int(nb)
    bufs = [
        _checked_buffer(
            info.name, stacked[info.name], (nb, info.slots, *info.sizes)
        )
        for info in ir.array_infos
    ]
    for name in sorted(ir.const_arrays):
        buf = np.ascontiguousarray(stacked_consts[name], dtype=np.float64)
        bufs.append(
            _checked_buffer(name, buf, (nb, *ir.const_arrays[name].sizes))
        )
    # ctypes pointers do not keep their arrays alive: every closure
    # below holds ``bufs`` for as long as it may be called.
    ptrs = tuple(b.ctypes.data_as(ctypes.POINTER(ctypes.c_double)) for b in bufs)

    def bind_step(fn) -> CloneFn:
        def clone(t, lo, hi, _keepalive=bufs):
            fn(*ptrs, nb, t, *lo, *hi)

        return clone

    def bind_leaf(fn) -> LeafFn:
        def leaf(ta, tb, lo, hi, dlo, dhi, _keepalive=bufs):
            fn(*ptrs, nb, ta, tb, *lo, *hi, *dlo, *dhi)
            # Per-point MOD/CLAMP/fill resolution is exact for any
            # virtual box, so the C leaf never declines a region.
            return True

        return leaf

    walk_fn = lib.walk
    # One counter buffer per binding (spawned, stolen, level barriers,
    # calls that wanted a pool and ran without one); concurrent calls
    # from DAG workers accumulate into it with C atomic adds, and the
    # driver reports it after the run.
    stats = np.zeros(4, dtype=np.int64)
    stats_ptr = stats.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong))

    def walk(
        ta, tb, lo, hi, dlo, dhi, slopes, thresholds, dt_th, hyper, threads,
        _keepalive=(bufs, stats),
    ):
        walk_fn(
            *ptrs, nb, ta, tb, *lo, *hi, *dlo, *dhi, *slopes, *thresholds,
            dt_th, 1 if hyper else 0, threads, stats_ptr,
        )

    has_boundary = lib.boundary is not None
    return {
        "interior": bind_step(lib.interior),
        "boundary": bind_step(lib.boundary) if has_boundary else None,
        "leaf": bind_leaf(lib.leaf),
        "leaf_boundary": bind_leaf(lib.leaf_boundary) if has_boundary else None,
        "walk": walk,
        "walk_stats": stats,
        "sources": {"c": lib.source},
    }
