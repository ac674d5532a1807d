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
run a stack of one.  :func:`load_c_library` builds, loads (``dlopen``)
and prebinds a kernel's library (once per process, through
:func:`repro.compiler.pipeline.load_kernel`), and :func:`bind_c_clones`
closes it over one job stack.

The backend is three parts, and each states its decision once:

* **Grid addressing** (:class:`_Grid`): slot bases and flat offsets,
  MOD/CLAMP/fill resolution with its in-domain guard, const-array
  clamps, each pointer's per-job stride and the in-domain box derived
  from the kernel's reach.  Nothing else reads the grid's geometry.
  Padded pitch (ROADMAP 1b) and runtime extents (10) edit this part.
* **Loop nests** (:func:`_nest`): one builder for the three nests of
  one time step — raw interior, per-point virtual-plus-MOD, and
  row-peeled.  Innermost-loop shaping and per-slot ``restrict`` (7a)
  edit this part; typed lowering (2a) edits the expression printer
  (:class:`_CCodegen`) every nest prints its statements through.
* **The clone table** (:data:`_CLONES`): each clone's scalar
  parameters, whether it exists only with C boundary clones, and its
  body.  The ``static`` definitions, the exported ``*_batch`` wrappers,
  the ctypes ``argtypes`` and the Python binders all derive from it.

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
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import CompileError, KernelError, SpecificationError
from repro.resilience import degradations, faults
from repro.util import atomic_write_text, durable_replace, interprocess_lock
from repro.compiler.frontend import KernelIR, boundary_fill_expr, boundary_modes
from repro.expr.analysis import walk
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


#: ``(REPRO_NO_CC, CC, PATH)`` -> what :func:`find_c_compiler` found
#: under them: every run asks, and each search stats the ``PATH``.
_FOUND_CC: dict[tuple, str | None] = {}


def find_c_compiler() -> str | None:
    """Path of a usable C compiler, or None.

    ``REPRO_NO_CC`` (any non-empty value) forces None — the hook CI's
    no-toolchain job leg uses to prove the ``c`` mode degrades cleanly
    on machines without a compiler.  Memoized per process on the three
    variables it reads, so changing any of them searches again.
    """
    env = os.environ
    key = (env.get("REPRO_NO_CC"), env.get("CC"), env.get("PATH"))
    if key not in _FOUND_CC:
        _FOUND_CC[key] = None if key[0] else next(
            (c for c in (key[1], "cc", "gcc", "clang") if c and shutil.which(c)),
            None,
        )
    return _FOUND_CC[key]


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

    Folded into the on-disk cache digest, the loaded-library key and the
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


def _slot_tag(dt: int) -> str:
    return f"m{-dt}" if dt < 0 else f"p{dt}"


def _fmt_const(v: float) -> str:
    """C source for exactly the double ``v``: ``repr`` when finite (valid
    C that round-trips), else the bit pattern through ``f64_bits``."""
    if math.isfinite(v):
        return repr(v)
    return f"f64_bits({f64_bits(v):#x}ULL)"


# -- grid addressing ----------------------------------------------------------


def _strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    out = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        out[i] = out[i + 1] * shape[i + 1]
    return tuple(out)


class _Grid:
    """Grid addressing: the one reader of the kernel's geometry.

    Every address the generated C computes is spelled here — a slot's
    base and a point's flat offset, the MOD/CLAMP/fill resolution of a
    read with its in-domain guard, a const array's clamped read, each
    data pointer's per-job stride — along with the in-domain box
    (``inner``, from :meth:`KernelIR.reach`) the row peel and
    ``walk_interior`` test against.  Extents and strides are baked in as
    compile-time constants: padded pitch changes this class alone, and
    runtime extents change it plus the clone table's parameters.
    """

    def __init__(self, ir: KernelIR):
        self.ir = ir
        lo, hi = ir.reach()
        #: Per dimension, the true coordinates whose every read and
        #: write stays in-domain: ``[inner[i][0], inner[i][1])``.
        self.inner = tuple(
            (-lo[i], n - hi[i]) for i, n in enumerate(ir.sizes)
        )
        #: Data pointer -> one job's shape: ``(slots, *sizes)`` for a
        #: registered array's ``D_``, the const array's for its ``C_``.
        self.job_shape = {
            **{f"D_{i.name}": (i.slots, *i.sizes) for i in ir.array_infos},
            **{f"C_{n}": tuple(c.sizes) for n, c in ir.const_arrays.items()},
        }
        self._strides = {
            name: _strides(shape) for name, shape in self.job_shape.items()
        }

    def extent(self, i: int) -> str:
        return f"{self.ir.sizes[i]}L"

    def wrap(self, i: int, v: str) -> str:
        """The true coordinate of virtual coordinate ``v`` in dim ``i``."""
        return f"MOD({v}, {self.extent(i)})"

    def job_offset(self, ptr: str) -> str:
        """``ptr`` advanced to job ``b`` of a stack."""
        return f"{ptr} + b*{math.prod(self.job_shape[ptr])}L"

    @staticmethod
    def _flat(strides: tuple[int, ...], coords: list[str]) -> str:
        terms = [c if s == 1 else f"({c})*{s}L" for c, s in zip(coords, strides)]
        return " + ".join(terms) if terms else "0"

    def element(self, array: str, slot: str, coords: list[str]) -> str:
        """The grid value of ``array`` at slot ``slot``, true ``coords``."""
        ptr = f"D_{array}"
        strides = self._strides[ptr]
        return f"{ptr}[{slot}*{strides[0]}L + {self._flat(strides[1:], coords)}]"

    def home(self, array: str) -> str:
        """The point ``(x0, ..)`` of ``array`` at the written level."""
        coords = [f"x{i}" for i in range(self.ir.ndim)]
        return self.element(array, f"s_{array}_{_slot_tag(0)}", coords)

    def read(self, node: GridRead, resolve: bool) -> str:
        """A grid read at the point ``(x0, ..)`` plus the node's offsets:
        raw (every read in-domain), or with ``resolve`` mapped per the
        array's boundary kind (periodic wrap, Neumann clamp, fill)."""
        slot = f"s_{node.array}_{_slot_tag(node.dt)}"
        raw = [
            f"x{i}" if off == 0 else f"(x{i}{off:+d})"
            for i, off in enumerate(node.offsets)
        ]
        if not resolve:
            return self.element(node.array, slot, raw)
        b = self.ir.arrays[node.array].boundary
        modes = boundary_modes(b, self.ir.ndim)
        if modes is not None:
            mapped = [
                f"{'MOD' if mode == 'mod' else 'CLAMP'}({r}, {self.extent(i)})"
                for i, (r, mode) in enumerate(zip(raw, modes))
            ]
            return self.element(node.array, slot, mapped)
        assert b is not None
        # The fill expression with C's constant spelling — e.g. "0.0" or
        # "(100.0 + 0.2 * (t-1))": t is an integer variable and mixed
        # arithmetic promotes to double.
        fill = boundary_fill_expr(b, node.dt, _fmt_const)
        if fill is None:
            raise CompileError(
                f"boundary {b.describe()} of array {node.array!r} is not "
                f"expressible in C"
            )
        guard = " && ".join(
            f"({r} >= 0 && {r} < {self.extent(i)})" for i, r in enumerate(raw)
        )
        return f"(({guard}) ? {self.element(node.array, slot, raw)} : {fill})"

    def const(self, array: str, indices: list[str]) -> str:
        """A const-array read, each index clamped into the array."""
        ptr = f"C_{array}"
        clamped = [
            f"CLAMP({ix}, {n}L)" for ix, n in zip(indices, self.job_shape[ptr])
        ]
        return f"{ptr}[{self._flat(self._strides[ptr], clamped)}]"


# -- expressions --------------------------------------------------------------


class _CCodegen:
    """Expression codegen for C: raw reads, or reads resolved per the
    boundary kind (``resolve``)."""

    def __init__(self, grid: _Grid, resolve: bool):
        self.grid = grid
        self.resolve = resolve

    def affine(self, index) -> str:
        parts: list[str] = []
        for ax, c in index.terms:
            base = "t" if ax.is_time else f"x{ax.position}"
            parts.append(base if c == 1 else f"{c}*{base}")
        if index.const or not parts:
            parts.append(str(index.const))
        return "(" + " + ".join(parts) + ")"

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
            return self.grid.read(e, self.resolve)
        if isinstance(e, ConstArrayRead):
            return self.grid.const(e.array, [self.affine(ix) for ix in e.indices])
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


# -- loop nests ---------------------------------------------------------------


def _stmt_lines(ir: KernelIR, gen: _CCodegen, indent: str) -> list[str]:
    """The kernel body for the point ``(x0, ..)`` (true coordinates)."""
    lines: list[str] = []
    for st in ir.statements:
        if isinstance(st, Let):
            lines.append(f"{indent}const double L_{st.name} = {gen.val(st.expr)};")
        elif isinstance(st, Assign):
            lines.append(
                f"{indent}{gen.grid.home(st.target.array)} = {gen.val(st.expr)};"
            )
    return lines


def _nest(ir: KernelIR, grid: _Grid, indent: str, kind: str) -> list[str]:
    """One time step's loop nest over the box ``[l, h)``, of one of three
    kinds:

    * ``"interior"`` loops ``x{i}`` straight over in-domain bounds and
      reads raw;
    * ``"boundary"`` loops virtual ``v{i}``, reduces each to the true
      ``x{i}`` with the sign-safe MOD and resolves every read per point;
    * ``"peeled"`` is the boundary nest with its unit-stride row split
      (:func:`_row_peel`): the outer loops also track whether the row's
      outer coordinates keep every read in-domain (``ok{i}``).
    """
    d = ir.ndim
    virtual = kind != "interior"
    outer = d - 1 if kind == "peeled" else d
    v = "v" if virtual else "x"
    lines: list[str] = []
    for i in range(outer):
        lines.append(f"{indent}for (i64 {v}{i} = l{i}; {v}{i} < h{i}; ++{v}{i}) {{")
        indent += "  "
        if virtual:
            lines.append(f"{indent}const i64 x{i} = {grid.wrap(i, f'v{i}')};")
        if kind == "peeled":
            lo, hi = grid.inner[i]
            cond = f"x{i} >= {lo}L && x{i} < {hi}L"
            lines.append(
                f"{indent}const int ok{i} = "
                f"{cond if i == 0 else f'ok{i - 1} && {cond}'};"
            )
    if kind == "peeled":
        lines += _row_peel(ir, grid, indent, f"ok{outer - 1}" if outer else "1")
    else:
        lines += _stmt_lines(ir, _CCodegen(grid, resolve=virtual), indent)
    for _ in range(outer):
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    return lines


def _row_peel(ir: KernelIR, grid: _Grid, indent: str, ok: str) -> list[str]:
    """The innermost loop of the ``"peeled"`` nest.

    The unit-stride row is split at each periodic seam into spans of
    true coordinates; on a row whose outer coordinates are in-domain
    (``ok``), the points whose own reads stay in-domain run the
    *interior* body (raw indexing) and only the <= reach head and tail
    points run the per-point body.  For in-domain reads both bodies
    evaluate the same expression tree, and the points are visited in the
    same order, so the split is bitwise invisible.
    """
    last = ir.ndim - 1
    n = grid.extent(last)
    lo, hi = grid.inner[last]
    x = f"x{last}"
    return [
        f"{indent}for (i64 va = l{last}, vb; va < h{last}; va = vb) {{",
        f"{indent}  /* one seam-free span [xs, xe) of true coordinates */",
        f"{indent}  i64 k = va / {n};",
        f"{indent}  if (va - k * {n} < 0) k -= 1;",
        f"{indent}  vb = (k + 1) * {n};",
        f"{indent}  if (vb > h{last}) vb = h{last};",
        f"{indent}  const i64 xs = va - k * {n}, xe = vb - k * {n};",
        f"{indent}  i64 ilo = xe, ihi = xe;",
        f"{indent}  if ({ok}) {{",
        f"{indent}    ilo = xs > {lo}L ? xs : {lo}L;",
        f"{indent}    ihi = xe < {hi}L ? xe : {hi}L;",
        f"{indent}    if (ilo >= ihi) ilo = ihi = xe;",
        f"{indent}  }}",
        f"{indent}  for (i64 {x} = xs; {x} < xe; ++{x}) {{",
        f"{indent}    if ({x} == ilo) {{",
        f"{indent}      for (; {x} < ihi; ++{x}) {{",
        *_stmt_lines(ir, _CCodegen(grid, resolve=False), indent + "        "),
        f"{indent}      }}",
        f"{indent}      if ({x} == xe) break;",
        f"{indent}    }}",
        *_stmt_lines(ir, _CCodegen(grid, resolve=True), indent + "    "),
        f"{indent}  }}",
        f"{indent}}}",
    ]


def _slot_lines(ir: KernelIR, indent: str) -> list[str]:
    """Each array's ping-pong slot for each time offset the kernel uses."""
    return [
        f"{indent}const i64 s_{info.name}_{_slot_tag(dt)} = "
        f"MOD(t{dt:+d}, {info.slots}L);"
        for info in ir.array_infos
        for dt in info.dts
    ]


# -- clone bodies -------------------------------------------------------------


def _leaf_body(ir: KernelIR, grid: _Grid, kind: str) -> list[str]:
    """The fused base case: the time loop ``[ta, tb)`` around one step's
    nest of ``kind``, shifting each dimension's bounds by its zoid slopes
    after every step (Figure 2, lines 20-28).  Slot arithmetic is
    re-derived per step (the ping-pong MOD); an empty shifted box costs
    one loop-bound test.  Bounds arrive by value, so the slope shift
    mutates the parameters directly."""
    shift = " ".join(f"l{i} += dl{i}; h{i} += dh{i};" for i in range(ir.ndim))
    return [
        "  for (i64 t = ta; t < tb; ++t) {",
        *_slot_lines(ir, "    "),
        *_nest(ir, grid, "    ", kind),
        f"    {shift}",
        "  }",
    ]


def _interior_step_body(ir: KernelIR, grid: _Grid, walks_boundary: bool) -> list[str]:
    """The fused ``leaf`` at height one — the same body, so one copy
    fewer for cc to compile."""
    args = _args(_CLONES["leaf"], ir.ndim, ta="t", tb="t + 1", dl="0", dh="0")
    return [f"  leaf({', '.join([*_pointers(ir), *args])});"]


def _boundary_step_body(ir: KernelIR, grid: _Grid, walks_boundary: bool) -> list[str]:
    """The per-point boundary nest: the reference the row-peeled
    ``leaf_boundary`` is checked against."""
    return [*_slot_lines(ir, "  "), *_nest(ir, grid, "  ", "boundary")]


def _interior_test(grid: _Grid) -> str:
    """``walk_interior``: :meth:`repro.trap.walker.WalkSpec.is_interior`
    in C, with the kernel's in-domain box baked in — every read of every
    point stays in-domain at both end slices (extents are linear in t).
    Virtual coordinates past the seam fail the test, so a wrapped zoid is
    always boundary."""
    lines = [
        "static int walk_interior(i64 ta, i64 tb, const i64* xa,",
        "    const i64* xb, const i64* dxa, const i64* dxb) {",
        "  const i64 s = tb - 1 - ta;",
    ]
    for i, (lo, hi) in enumerate(grid.inner):
        lines.append(
            f"  if (xa[{i}] < {lo}L || xa[{i}] + dxa[{i}] * s < {lo}L) return 0;"
        )
        lines.append(
            f"  if (xb[{i}] > {hi}L || xb[{i}] + dxb[{i}] * s > {hi}L) return 0;"
        )
    lines += ["  return 1;", "}"]
    return "\n".join(lines)


def _leaf_dispatch(ir: KernelIR, walks_boundary: bool) -> str:
    """The walk's base case: the interior or boundary fused leaf for the
    zoid ``(ta, tb, xa.., dxb..)``, by the inherited classification
    ``inter``.  Without C boundary clones only interior zoids ever reach
    the walk, so the base case is always ``leaf``."""
    args = ", ".join([
        *(f"job->{p}" for p in _pointers(ir)),
        *_args(_CLONES["leaf"], ir.ndim, l="xa[{i}]", h="xb[{i}]",
               dl="dxa[{i}]", dh="dxb[{i}]"),
    ])
    if not walks_boundary:
        return f"  leaf({args});"
    return f"  if (inter) leaf({args}); else leaf_boundary({args});"


def _walk_helpers(ir: KernelIR, grid: _Grid, walks_boundary: bool) -> str:
    """The compiled recursion that ``walk_subtree`` enters: ``walk_rec``
    and its pthread task pool.

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
    count arrive as scalar ``i64`` arguments, so whatever coarsening and
    thread count a run's options choose apply unrebuilt.  The counters
    (spawned, stolen, level barriers, and calls that asked for more than
    one thread but ran without a pool) are flushed once per call into the
    caller's ``i64[4]`` stats buffer with atomic adds, so concurrent DAG
    workers can share one buffer.
    """
    d = ir.ndim
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
    if walks_boundary:
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
        _leaf_dispatch(ir, walks_boundary),
        "}",
    ]
    if walks_boundary:
        lines[:0] = [_interior_test(grid), ""]
    return "\n".join(lines)


def _walk_body(ir: KernelIR, grid: _Grid, walks_boundary: bool) -> list[str]:
    """The per-job entry: scalar bounds in, packed into the job and the
    root zoid; an unknown root classification (0) is tested in
    ``walk_rec`` when boundary zoids may arrive."""
    d = ir.ndim

    def vec(prefix: str) -> str:
        return "{" + ", ".join(f"{prefix}{i}" for i in range(d)) + "}"

    return [
        "  wjob job = {",
        *[f"    .{p} = {p}," for p in _pointers(ir)],
        f"    .sl = {vec('s')}, .th = {vec('th')},",
        "    .dt_th = dt_th, .hyper = hyper,",
        "    .pool = wq_ensure_pool(nthreads) > 0,",
        "  };",
        f"  const i64 xa[{d}] = {vec('l')}, xb[{d}] = {vec('h')};",
        f"  const i64 dxa[{d}] = {vec('dl')}, dxb[{d}] = {vec('dh')};",
        f"  walk_rec(&job, ta, tb, xa, xb, dxa, dxb, {0 if walks_boundary else 1});",
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
    ]


# -- the clone ABI ------------------------------------------------------------


def _pointers(ir: KernelIR) -> list[str]:
    """The data pointers every clone takes first, in ABI order: each
    registered array's ``D_`` buffer, then each const array's ``C_``, by
    name."""
    return [f"D_{info.name}" for info in ir.array_infos] + [
        f"C_{c}" for c in sorted(ir.const_arrays)
    ]


def _ptr_args(ir: KernelIR) -> list[str]:
    """:func:`_pointers` as parameter declarations.

    Every pointer is ``restrict``-qualified: each registered array and
    each const array owns a distinct buffer (the pipeline never aliases
    them), so the compiler may keep loads in registers across stores to
    other arrays.  Reads and writes *within* one array go through the
    same pointer, so the in-place ping-pong slot scheme stays legal.
    """
    return [
        f"{'const double' if p.startswith('C_') else 'double'}* restrict {p}"
        for p in _pointers(ir)
    ]


@dataclass(frozen=True)
class _Param:
    """One scalar parameter of a clone: ``i64 name``, or one per
    dimension (``name0, name1, ..``) when ``per_dim``.  A ``pointer``
    parameter is an ``i64*`` the binding supplies, not the caller; it
    comes last."""

    name: str
    per_dim: bool = False
    pointer: bool = False


@dataclass(frozen=True)
class _Clone:
    """One row of the clone table: a ``static`` C function after the
    data pointers and these scalars, and its exported ``<name>_batch``
    entry point over ``nb`` stacked jobs."""

    name: str
    #: The :class:`~repro.compiler.pipeline.CompiledKernel` field it binds.
    field: str
    params: tuple[_Param, ...]
    #: Emitted only with C boundary clones (every boundary expressible).
    boundary: bool
    #: ``(ir, grid, walks_boundary) -> lines`` between the braces.
    body: Callable[[KernelIR, _Grid, bool], list[str]]
    #: C text the definition needs right before it.
    helpers: Callable[[KernelIR, _Grid, bool], str] | None = None


_STEP = (_Param("t"), _Param("l", True), _Param("h", True))
_FUSED = (
    _Param("ta"), _Param("tb"),
    *(_Param(v, True) for v in ("l", "h", "dl", "dh")),
)

#: Every clone, callees before callers (the order of the definitions):
#: ``interior_step`` calls ``leaf``, the walk bottoms out in both leaves.
#: The tuned walk knobs (slopes ``s``, thresholds ``th``, ``dt_th``,
#: ``hyper``) and the thread count are scalars, so tuned configurations
#: apply unrebuilt; every job of a stack adds its pool counters into the
#: one ``i64[4]`` ``wstats``.
_CLONES: dict[str, _Clone] = {
    c.name: c
    for c in (
        _Clone("leaf", "leaf", _FUSED, boundary=False,
               body=lambda ir, grid, wb: _leaf_body(ir, grid, "interior")),
        _Clone("interior_step", "interior", _STEP, boundary=False,
               body=_interior_step_body),
        _Clone("boundary_step", "boundary", _STEP, boundary=True,
               body=_boundary_step_body),
        _Clone("leaf_boundary", "leaf_boundary", _FUSED, boundary=True,
               body=lambda ir, grid, wb: _leaf_body(ir, grid, "peeled")),
        _Clone(
            "walk_subtree", "walk",
            (*_FUSED, _Param("s", True), _Param("th", True), _Param("dt_th"),
             _Param("hyper"), _Param("nthreads"), _Param("wstats", pointer=True)),
            boundary=False, body=_walk_body, helpers=_walk_helpers,
        ),
    )
}

#: The order the ``*_batch`` entry points are emitted in.  It only fixes
#: the source's bytes, and with them the ``.so`` cache digest.
_EXPORTS = ("interior_step", "leaf", "walk_subtree", "boundary_step",
            "leaf_boundary")


def _emitted(include_boundary: bool) -> list[_Clone]:
    return [c for c in _CLONES.values() if include_boundary or not c.boundary]


def _decls(clone: _Clone, d: int) -> list[str]:
    out: list[str] = []
    for p in clone.params:
        names = [f"{p.name}{i}" for i in range(d)] if p.per_dim else [p.name]
        out += [f"i64* restrict {n}" if p.pointer else f"i64 {n}" for n in names]
    return out


def _args(clone: _Clone, d: int, **spell: str) -> list[str]:
    """A call's scalar arguments in ABI order: each parameter's own name
    unless ``spell`` maps it (per-dimension spellings format ``{i}``)."""
    out: list[str] = []
    for p in clone.params:
        s = spell.get(p.name)
        if not p.per_dim:
            out.append(p.name if s is None else s)
        elif s is None:
            out += [f"{p.name}{i}" for i in range(d)]
        else:
            out += [s.format(i=i) for i in range(d)]
    return out


def _entry(clone: _Clone, params: list[str], offsets: str, d: int) -> str:
    """The exported entry point: the ``static`` per-job body in a loop
    over ``nb`` jobs laid out contiguously, every data pointer offset by
    the job's stride (``offsets``).  One GIL-released call then runs a
    whole stack of same-shape problems — a local run is a stack of one.
    Bounds pass by value, so every job sees fresh copies (the fused leaf
    mutates its own)."""
    return (
        f"void {clone.name}_batch({', '.join(params)}) {{\n"
        f"  for (i64 b = 0; b < nb; ++b)\n"
        f"    {clone.name}({offsets}, {', '.join(_args(clone, d))});\n"
        f"}}"
    )


def generate_c_source(ir: KernelIR, *, include_boundary: bool = True) -> str:
    """The full postsource: prelude, then every clone of the table that
    is emitted (the boundary ones only with ``include_boundary``) as a
    ``static`` definition, then their exported nb-taking entry points."""
    grid = _Grid(ir)
    nodes = (n for st in ir.statements for n in walk(st.expr))
    minmax = any(isinstance(n, BinOp) and n.op in ("min", "max") for n in nodes)
    ptr_args = _ptr_args(ir)
    decls = {c.name: _decls(c, ir.ndim) for c in _emitted(include_boundary)}
    parts: list[str] = []
    for name in decls:
        c = _CLONES[name]
        if c.helpers is not None:
            parts.append(c.helpers(ir, grid, include_boundary))
        head = f"static void {name}({', '.join([*ptr_args, *decls[name]])}) {{"
        parts.append("\n".join([head, *c.body(ir, grid, include_boundary), "}"]))
    offsets = ", ".join(grid.job_offset(p) for p in _pointers(ir))
    parts += [
        _entry(_CLONES[n], [*ptr_args, "i64 nb", *decls[n]], offsets, ir.ndim)
        for n in _EXPORTS
        if n in decls
    ]
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
    """One kernel's loaded ``.so``: the exported entry point of every
    clone it emits, keyed by clone name with ``argtypes``/``restype``
    prebound, and the source they were built from.  It holds no buffer
    (:func:`bind_c_clones` closes it over a job stack), so one load
    serves every run and batch of the kernel in the process.

    ``boundary_step``/``leaf_boundary`` are absent when some array uses
    a boundary kind C cannot express (PythonBoundary).  ``walk_subtree``
    exists regardless: without C boundary clones it is built without the
    interior test and only ever receives interior zoids.
    """

    source: str
    entries: dict[str, Callable[..., None]]


def library_scope() -> tuple[str | None, str]:
    """What besides the problem signature determines a loaded library:
    the ``$REPRO_CC_CACHE`` directory and the compiler identity.  Raises
    :class:`CompileError` when there is no compiler."""
    cc = find_c_compiler()
    if cc is None:
        raise CompileError("no C compiler found (tried $CC, cc, gcc, clang)")
    return os.environ.get("REPRO_CC_CACHE"), compiler_identity(cc)


def load_c_library(ir: KernelIR) -> CLibrary:
    """Generate, build, ``dlopen`` and prebind the kernel library for
    ``ir``.  Uncached: :func:`repro.compiler.pipeline.load_kernel` loads
    each library once per process."""
    include_boundary = ir.boundary_expressible
    source = generate_c_source(ir, include_boundary=include_boundary)
    lib = load_shared_object(source)
    i64 = ctypes.c_longlong
    ptr_types = [ctypes.POINTER(ctypes.c_double)] * len(_pointers(ir))
    entries = {}
    for clone in _emitted(include_boundary):
        fn = getattr(lib, f"{clone.name}_batch")
        # The data pointers, nb, then the per-job clone's scalars.
        fn.argtypes = ptr_types + [i64] + [
            ctypes.POINTER(i64) if p.pointer else i64
            for p in clone.params
            for _ in range(ir.ndim if p.per_dim else 1)
        ]
        fn.restype = None
        entries[clone.name] = fn
    return CLibrary(source=source, entries=entries)


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


def _binder(clone: _Clone) -> Callable[..., Callable]:
    """Generate the factory of ``clone``'s Python caller: one argument
    per parameter (a sequence for a per-dimension one), forwarded to the
    entry point after the data pointers and ``nb``, then the binding's
    pointer parameters (``tail``).  A C clone never declines a region
    (per-point MOD/CLAMP/fill resolution is exact for any virtual box),
    so the call answers True."""
    params = [p for p in clone.params if not p.pointer]
    fwd = ", ".join(f"*{p.name}" if p.per_dim else p.name for p in params)
    source = (
        "def make(fn, ptrs, nb, tail, keep):\n"
        f"    def {clone.field}({', '.join(p.name for p in params)}, "
        "_keepalive=keep):\n"
        f"        fn(*ptrs, nb, {fwd}, *tail)\n"
        "        return True\n"
        f"    return {clone.field}\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<c_binder_{clone.name}>", "exec"), namespace)
    return namespace["make"]


_BINDERS = {name: _binder(clone) for name, clone in _CLONES.items()}


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
    grid = _Grid(ir)
    bufs = []
    for p in _pointers(ir):
        name = p[2:]
        buf = (
            stacked[name] if p.startswith("D_")
            else np.ascontiguousarray(stacked_consts[name], dtype=np.float64)
        )
        bufs.append(_checked_buffer(name, buf, (nb, *grid.job_shape[p])))
    # Every clone holds ``bufs`` for as long as it may be called, on top
    # of the reference ``data_as`` pointers keep to their arrays.
    ptrs = tuple(b.ctypes.data_as(ctypes.POINTER(ctypes.c_double)) for b in bufs)
    # One counter buffer per binding (spawned, stolen, level barriers,
    # calls that wanted a pool and ran without one); concurrent calls
    # from DAG workers accumulate into it with C atomic adds, and the
    # driver reports it after the run.
    stats = np.zeros(4, dtype=np.int64)
    bound = {"wstats": stats.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong))}
    clones: dict = {"walk_stats": stats, "sources": {"c": lib.source}}
    for name, clone in _CLONES.items():
        fn = lib.entries.get(name)
        tail = tuple(bound[p.name] for p in clone.params if p.pointer)
        clones[clone.field] = (
            None if fn is None else _BINDERS[name](fn, ptrs, nb, tail, bufs)
        )
    return clones
