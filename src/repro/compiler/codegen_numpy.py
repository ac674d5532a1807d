"""The ``split_pointer`` backend: vectorized NumPy slice kernels.

This is the analogue of the paper's ``-split-pointer`` optimization
(Figure 12(c)): where Pochoir turns each stencil term into a C pointer
incremented along the unit-stride dimension, we turn each term into a
NumPy *slice view* of the underlying buffer — the same strength reduction
(no per-point index arithmetic, contiguous walks of memory), expressed in
the idiom the platform optimizes.

Three clones are generated:

* **interior** — one time step on a rectangular region, pure slice
  arithmetic (no boundary checks).
* **boundary** — one time step over *true* (modulo-reduced) coordinates,
  gathering neighbor values through the per-array boundary remap/fill
  helpers of :mod:`repro.compiler.runtime_support`.
* **leaf** / **leaf_boundary** — the fused base-case clone: the *whole*
  trapezoid time loop runs inside generated code (Figure 2's base case),
  with the slope-shifted bounds, slot arithmetic, a single ``errstate``
  context, and coordinate vectors hoisted around the loop.

Every clone body runs inside a job loop over stacked ``(nb, slots,
*sizes)`` buffers, rebinding the ``D_``/``C_`` names to job ``_b``'s
slab: a served batch is a stack of K jobs, a local run a stack of one
(zero-copy views of its own arrays).  :func:`compile_numpy_clones`
compiles the clones (once per process, through
:func:`repro.compiler.pipeline.load_kernel`), :func:`bind_numpy_clones`
binds one stack.

All clone bodies are lowered to **three-address code**: the kernel AST is
first run through common-subexpression elimination
(:func:`repro.expr.transform.cse_statements`) and then flattened into
single-op ufunc calls targeting views of a per-thread scratch-buffer pool
(``np.multiply(a, b, out=T0)``), with liveness-based slot recycling.  A
leaf invocation therefore performs O(pool slots) allocations instead of
one fresh temporary per expression node per time step, and the final op
of each assignment writes straight into the destination slot's slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import CompileError, KernelError
from repro.compiler.frontend import KernelIR, boundary_fill_expr, boundary_modes
from repro.compiler import runtime_support
from repro.expr.analysis import walk
from repro.expr.transform import cse_statements
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
    Statement,
    UnOp,
    Where,
    py_float,
)

#: The fused base-case clone: (ta, tb, lo, hi, dlo, dhi) -> ran?  False
#: means the leaf declined and the caller must step the per-step clones.
LeafFn = Callable[
    [int, int, tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]],
    bool,
]

_NP_MATH = {
    "exp": "np.exp",
    "log": "np.log",
    "sqrt": "np.sqrt",
    "sin": "np.sin",
    "cos": "np.cos",
    "tanh": "np.tanh",
    "fabs": "np.abs",
    "floor": "np.floor",
    "ceil": "np.ceil",
}

#: Binary operators as ufuncs (the three-address spellings).
_UFUNC = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "/": "np.divide",
    "%": "np.fmod",
    "**": "np.power",
}

_CMP_UFUNC = {
    "<": "np.less",
    "<=": "np.less_equal",
    ">": "np.greater",
    ">=": "np.greater_equal",
    "==": "np.equal",
    "!=": "np.not_equal",
}


def _slot_tag(dt: int) -> str:
    return f"m{-dt}" if dt < 0 else f"p{dt}"


def _woff_name(i: int, off: int) -> str:
    """Name of the precomputed home-coordinate vector for offset ``off``."""
    if off == 0:
        return f"W{i}"
    return f"W{i}_{'m' if off < 0 else 'p'}{abs(off)}"


@dataclass
class _Ref:
    """One lowered operand.

    ``slot`` is the scratch-pool slot this ref *owns* (the consumer must
    release or adopt it); None for borrowed values — scalars, slice
    views, gather results, and Let-bound names.
    """

    text: str
    slot: int | None = None
    scalar: bool = False
    dtype: str = "f"  # 'f' float | 'b' bool


class _Emitter:
    """Three-address lowering of one (CSE'd) kernel body.

    Produces unindented body lines plus the pool/axis bookkeeping the
    source assemblers turn into a clone prologue.  Slot allocation is a
    stack-machine register allocator: each temp dies at the op that
    consumes it, so its slot is recycled immediately; Let-bound temps
    live until the last statement that reads them.
    """

    def __init__(
        self, ir: KernelIR, boundary_mode: bool, snapshot_mode: bool = False
    ):
        self.ir = ir
        self.boundary_mode = boundary_mode
        #: Snapshot mode (the fused boundary leaf): instead of one fancy
        #: gather per neighbor read, assemble one blockwise halo snapshot
        #: per (array, dt) per step and read plain slices of it.
        self.snapshot_mode = snapshot_mode
        self.used_axes: set[int] = set()
        self.used_woffsets: set[tuple[int, int]] = set()
        self.lines: list[str] = []
        self.n_slots = 0
        self.slot_dtypes: dict[int, str] = {}
        self._free: dict[str, list[int]] = {"f": [], "b": []}
        self._let_refs: dict[str, _Ref] = {}
        self._let_slot: dict[str, int] = {}
        # Snapshot bookkeeping: (array, dt) -> dedicated pool slot, the
        # set assembled so far this step, dims whose home range must be
        # in-domain (clip/fill boundaries), and the halo pads.
        self._snap_slots: dict[tuple[str, int], int] = {}
        self._snap_ready: set[tuple[str, int]] = set()
        self.snapshot_slot_ids: set[int] = set()
        self.snap_clip_dims: set[int] = set()
        self.pad_lo = tuple(max(0, -m) for m in ir.min_off)
        self.pad_hi = tuple(max(0, m) for m in ir.max_off)

    # -- slot allocation ---------------------------------------------------
    def _acquire(self, dtype: str) -> int:
        free = self._free[dtype]
        if free:
            return free.pop()
        slot = self.n_slots
        self.n_slots += 1
        self.slot_dtypes[slot] = dtype
        return slot

    def _release(self, ref: _Ref) -> None:
        if ref.slot is not None:
            self._free[ref.dtype].append(ref.slot)
            ref.slot = None

    # -- leaf references ---------------------------------------------------
    def axis_ref(self, i: int) -> str:
        self.used_axes.add(i)
        return f"AX{i}R"

    def affine(self, index) -> tuple[str, bool]:
        """(source text, is_scalar) of an affine index expression."""
        parts: list[str] = []
        scalar = True
        for ax, c in index.terms:
            if ax.is_time:
                base = "t"
            else:
                base = self.axis_ref(ax.position)
                scalar = False
            parts.append(base if c == 1 else f"{c}*{base}")
        if index.const or not parts:
            parts.append(str(index.const))
        return "(" + " + ".join(parts) + ")", scalar

    def _snapshot_ref(self, node: GridRead) -> _Ref:
        """Slice of the per-(array, dt) halo snapshot for one read."""
        arr = self.ir.arrays[node.array]
        key = (node.array, node.dt)
        name = f"SN_{node.array}_{_slot_tag(node.dt)}"
        if key not in self._snap_ready:
            slot = self._snap_slots.get(key)
            if slot is None:
                # Fresh slot, never from the temp free list: recycled ids
                # would collide with the T{k} views bound per step.
                slot = self.n_slots
                self.n_slots += 1
                self.slot_dtypes[slot] = "f"
                self._snap_slots[key] = slot
                self.snapshot_slot_ids.add(slot)
            d = self.ir.ndim
            lo = ", ".join(
                f"l{i}-{p}" if p else f"l{i}" for i, p in enumerate(self.pad_lo)
            )
            hi = ", ".join(
                f"h{i}+{p}" if p else f"h{i}" for i, p in enumerate(self.pad_hi)
            )
            time_slot = f"s_{node.array}_{_slot_tag(node.dt)}"
            self.lines.append(
                f"{name} = POOL.view({slot}, SHPH, np.float64)"
            )
            modes = boundary_modes(arr.boundary, d)
            if modes is not None:
                for i, m in enumerate(modes):
                    if m == "clip":
                        self.snap_clip_dims.add(i)
                self.lines.append(
                    f"SB(D_{node.array}, {time_slot}, ({lo},), ({hi},), "
                    f"{tuple(modes)!r}, {arr.sizes!r}, {name})"
                )
            else:
                assert arr.boundary is not None
                fill = boundary_fill_expr(arr.boundary, node.dt)
                if fill is None:
                    raise CompileError(
                        f"boundary {arr.boundary.describe()} of array "
                        f"{node.array!r} is not vectorizable"
                    )
                self.snap_clip_dims.update(range(d))
                self.lines.append(
                    f"SBF(D_{node.array}, {time_slot}, ({lo},), ({hi},), "
                    f"{arr.sizes!r}, {fill}, {name})"
                )
            self._snap_ready.add(key)
        subs = []
        for i, off in enumerate(node.offsets):
            start = self.pad_lo[i] + off
            stop = off - self.pad_hi[i]  # relative to the snapshot's end
            subs.append(f"{start}:{stop if stop else ''}")
        return _Ref(f"{name}[{', '.join(subs)}]")

    def grid_read(self, node: GridRead) -> _Ref:
        if self.snapshot_mode:
            return self._snapshot_ref(node)
        if not self.boundary_mode:
            subs = []
            for i, off in enumerate(node.offsets):
                lo = f"l{i}" if off == 0 else f"l{i}{off:+d}"
                hi = f"h{i}" if off == 0 else f"h{i}{off:+d}"
                subs.append(f"{lo}:{hi}")
            return _Ref(
                f"D_{node.array}[s_{node.array}_{_slot_tag(node.dt)}, "
                f"{', '.join(subs)}]"
            )
        arr = self.ir.arrays[node.array]
        coords = []
        for i, off in enumerate(node.offsets):
            self.used_woffsets.add((i, off))
            coords.append(_woff_name(i, off))
        coord_text = ", ".join(coords)
        slot = f"s_{node.array}_{_slot_tag(node.dt)}"
        modes = boundary_modes(arr.boundary, self.ir.ndim)
        if modes is not None:
            return _Ref(
                f"GR(D_{node.array}, {slot}, ({coord_text},), "
                f"{tuple(modes)!r}, {arr.sizes!r})"
            )
        assert arr.boundary is not None
        fill = boundary_fill_expr(arr.boundary, node.dt)
        if fill is None:
            raise CompileError(
                f"boundary {arr.boundary.describe()} of array "
                f"{node.array!r} is not vectorizable"
            )
        return _Ref(
            f"GF(D_{node.array}, {slot}, ({coord_text},), {arr.sizes!r}, {fill})"
        )

    # -- expression lowering -----------------------------------------------
    def ref(self, e: Expr) -> _Ref:
        if isinstance(e, Const):
            return _Ref(py_float(e.value), scalar=True)
        if isinstance(e, Param):
            raise CompileError(
                f"parameter {e.name!r} is unbound at codegen; call "
                f"stencil.set_param first"
            )
        if isinstance(e, IndexValue):
            text, scalar = self.affine(e.index)
            return _Ref(f"({text} * 1.0)", scalar=scalar)
        if isinstance(e, LocalRead):
            return self._let_refs[e.name]
        if isinstance(e, GridRead):
            return self.grid_read(e)
        if isinstance(e, ConstArrayRead):
            idx = ", ".join(self.affine(ix)[0] for ix in e.indices)
            return _Ref(f"GC(C_{e.array}, ({idx},))")
        if isinstance(e, BinOp) and e.op in ("min", "max"):
            return self._minmax(e)
        if isinstance(e, BinOp):
            return self._op(_UFUNC[e.op], [e.left, e.right], "f", e)
        if isinstance(e, UnOp):
            fn = "np.negative" if e.op == "neg" else "np.abs"
            return self._op(fn, [e.operand], "f", e)
        if isinstance(e, Compare):
            return self._op(_CMP_UFUNC[e.op], [e.left, e.right], "b", e)
        if isinstance(e, BoolOp):
            fn = "np.logical_and" if e.op == "and" else "np.logical_or"
            return self._op(fn, [e.left, e.right], "b", e)
        if isinstance(e, NotOp):
            return self._op("np.logical_not", [e.operand], "b", e)
        if isinstance(e, Where):
            return self._where(e)
        if isinstance(e, Call):
            return self._op(_NP_MATH[e.func], list(e.args), "f", e)
        raise KernelError(f"cannot generate code for {type(e).__name__}")

    def _scalar_text(self, e: Expr, refs: list[_Ref]) -> str:
        """All-scalar operands: keep the seed's nested-expression spelling
        so scalar arithmetic stays in Python-float land, bit for bit."""
        t = [r.text for r in refs]
        if isinstance(e, BinOp):
            if e.op == "%":
                return f"np.fmod({t[0]}, {t[1]})"
            if e.op == "**":
                return f"({t[0]} ** {t[1]})"
            return f"({t[0]} {e.op} {t[1]})"
        if isinstance(e, UnOp):
            return f"(-{t[0]})" if e.op == "neg" else f"np.abs({t[0]})"
        if isinstance(e, Compare):
            return f"({t[0]} {e.op} {t[1]})"
        if isinstance(e, BoolOp):
            fn = "np.logical_and" if e.op == "and" else "np.logical_or"
            return f"{fn}({t[0]}, {t[1]})"
        if isinstance(e, NotOp):
            return f"np.logical_not({t[0]})"
        if isinstance(e, Call):
            return f"{_NP_MATH[e.func]}({', '.join(t)})"
        raise KernelError(f"no scalar form for {type(e).__name__}")

    def _op(self, fn: str, operands: list[Expr], dtype: str, e: Expr) -> _Ref:
        refs = [self.ref(o) for o in operands]
        if all(r.scalar for r in refs):
            return _Ref(self._scalar_text(e, refs), scalar=True, dtype=dtype)
        # Operand temps die here; the destination may recycle one of their
        # slots — exact aliasing of a ufunc input with ``out`` is safe.
        for r in refs:
            self._release(r)
        dst = self._acquire(dtype)
        args = ", ".join(r.text for r in refs)
        self.lines.append(f"{fn}({args}, out=T{dst})")
        return _Ref(f"T{dst}", slot=dst, dtype=dtype)

    def _minmax(self, e: BinOp) -> _Ref:
        """Phase 1's ``min``/``max``: ``a`` unless ``b`` is strictly
        smaller/larger, like C's ``pmin``/``pmax``.  ``np.minimum`` and
        ``np.maximum`` differ from it on NaNs and signed zeros."""
        a, b = self.ref(e.left), self.ref(e.right)
        if a.scalar and b.scalar:
            return _Ref(f"{e.op}({a.text}, {b.text})", scalar=True)
        take_b = self._acquire("b")
        cmp = "np.less" if e.op == "min" else "np.greater"
        self.lines.append(f"{cmp}({b.text}, {a.text}, out=T{take_b})")
        return self._select(_Ref(f"T{take_b}", slot=take_b, dtype="b"), b, a)

    def _where(self, e: Where) -> _Ref:
        return self._select(
            self.ref(e.cond), self.ref(e.if_true), self.ref(e.if_false)
        )

    def _select(self, cond: _Ref, if_true: _Ref, if_false: _Ref) -> _Ref:
        if cond.scalar and if_true.scalar and if_false.scalar:
            return _Ref(
                f"np.where({cond.text}, {if_true.text}, {if_false.text})",
                scalar=True,
            )
        dtype = "b" if (if_true.dtype == "b" and if_false.dtype == "b") else "f"
        # np.where has no ``out``; lower to a copy + masked copy.  The
        # destination must NOT alias the mask or the taken branch (the
        # first copyto would clobber them), so acquire before releasing.
        dst = self._acquire(dtype)
        mask = cond.text if cond.dtype == "b" else f"({cond.text} != 0)"
        self.lines.append(f"np.copyto(T{dst}, {if_false.text})")
        self.lines.append(f"np.copyto(T{dst}, {if_true.text}, where={mask})")
        for r in (cond, if_true, if_false):
            self._release(r)
        return _Ref(f"T{dst}", slot=dst, dtype=dtype)

    # -- statements ----------------------------------------------------------
    def _emit_let(self, st: Let) -> None:
        r = self.ref(st.expr)
        self.lines.append(f"L_{st.name} = {r.text}")
        if r.slot is not None:
            # Adopt the temp: the slot now lives until the let's last use.
            self._let_slot[st.name] = r.slot
        self._let_refs[st.name] = _Ref(f"L_{st.name}", None, r.scalar, r.dtype)

    def _write_target(self, arr: str) -> str:
        d = self.ir.ndim
        target = ", ".join(f"l{i}:h{i}" for i in range(d))
        return f"D_{arr}[s_{arr}_{_slot_tag(0)}, {target}]"

    def _emit_assign(self, st: Assign) -> None:
        arr = st.target.array
        e = st.expr
        if not self.boundary_mode:
            dest = self._write_target(arr)
            # Fuse the root op into the destination store.  Only float
            # ufunc roots qualify; a dt==0 home read of the written array
            # aliases the destination *exactly*, which ufuncs permit.
            root: tuple[str, list[Expr]] | None = None
            if isinstance(e, BinOp) and e.op in _UFUNC:
                root = (_UFUNC[e.op], [e.left, e.right])
            elif isinstance(e, UnOp):
                root = ("np.negative" if e.op == "neg" else "np.abs", [e.operand])
            elif isinstance(e, Call):
                root = (_NP_MATH[e.func], list(e.args))
            if root is not None:
                fn, operands = root
                refs = [self.ref(o) for o in operands]
                if not all(r.scalar for r in refs):
                    args = ", ".join(r.text for r in refs)
                    self.lines.append(f"{fn}({args}, out={dest})")
                    for r in refs:
                        self._release(r)
                    return
                self.lines.append(f"{dest} = {self._scalar_text(e, refs)}")
                return
            r = self.ref(e)
            self.lines.append(f"{dest} = {r.text}")
            self._release(r)
            return
        d = self.ir.ndim
        if self.snapshot_mode:
            lo = ", ".join(f"l{i}" for i in range(d))
            hi = ", ".join(f"h{i}" for i in range(d))
            r = self.ref(e)
            self.lines.append(
                f"SC(D_{arr}, s_{arr}_{_slot_tag(0)}, ({lo},), ({hi},), "
                f"{self.ir.arrays[arr].sizes!r}, {r.text})"
            )
            self._release(r)
            # The written level changed: a later dt==0 read of this array
            # must re-assemble its snapshot.
            self._snap_ready.discard((arr, 0))
            return
        for i in range(d):
            self.used_woffsets.add((i, 0))
        coords = ", ".join(f"W{i}" for i in range(d))
        r = self.ref(e)
        self.lines.append(
            f"SW(D_{arr}, s_{arr}_{_slot_tag(0)}, ({coords},), {r.text})"
        )
        self._release(r)

    def emit_body(self, stmts: Sequence[Statement]) -> None:
        last_use: dict[str, int] = {}
        for i, st in enumerate(stmts):
            for node in walk(st.expr):
                if isinstance(node, LocalRead):
                    last_use[node.name] = i
        for i, st in enumerate(stmts):
            if isinstance(st, Let):
                self._emit_let(st)
            elif isinstance(st, Assign):
                self._emit_assign(st)
            else:
                raise KernelError(f"unknown statement {type(st).__name__}")
            for name in list(self._let_slot):
                if last_use.get(name, -1) <= i:
                    slot = self._let_slot.pop(name)
                    self._free[self._let_refs[name].dtype].append(slot)


def _lower(
    ir: KernelIR, boundary_mode: bool, snapshot_mode: bool = False
) -> _Emitter:
    """CSE + three-address lowering of the kernel body."""
    em = _Emitter(ir, boundary_mode, snapshot_mode)
    em.emit_body(cse_statements(ir.statements))
    return em


# -- source assembly ----------------------------------------------------------


#: Scratch dtypes by emitter kind: grids are float64 (``repro.language.array``).
_NP_DTYPE = {"f": "np.float64", "b": "np.bool_"}


def _slot_lines(ir: KernelIR, indent: str) -> list[str]:
    lines = []
    for info in ir.array_infos:
        for dt in info.dts:
            lines.append(
                f"{indent}s_{info.name}_{_slot_tag(dt)} = "
                f"(t{dt:+d}) % {info.slots}"
            )
    return lines


def _pool_lines(ir: KernelIR, em: _Emitter, indent: str) -> list[str]:
    """Bind the scratch views for the current step's region shape.

    Snapshot slots are excluded — the body binds those itself (at halo
    shape ``SHPH``) when it assembles each snapshot.
    """
    if em.n_slots == 0:
        return []
    d = ir.ndim
    shp = ", ".join(f"h{i} - l{i}" for i in range(d))
    lines = [f"{indent}SHP = ({shp},)"]
    if em.snapshot_slot_ids:
        shph = ", ".join(
            f"h{i} - l{i} + {em.pad_lo[i] + em.pad_hi[i]}" for i in range(d)
        )
        lines.append(f"{indent}SHPH = ({shph},)")
    for slot in range(em.n_slots):
        if slot in em.snapshot_slot_ids:
            continue
        dt = _NP_DTYPE[em.slot_dtypes[slot]]
        lines.append(f"{indent}T{slot} = POOL.view({slot}, SHP, {dt})")
    return lines


def _w_lines(ir: KernelIR, em: _Emitter, indent: str) -> list[str]:
    """True home-coordinate vectors (virtual reduced modulo the grid) plus
    the shifted copies every gather offset needs, computed once."""
    lines = []
    by_dim: dict[int, list[int]] = {}
    for i, off in sorted(em.used_woffsets):
        by_dim.setdefault(i, []).append(off)
    for i in range(ir.ndim):
        lines.append(f"{indent}W{i} = np.arange(l{i}, h{i}) % {ir.sizes[i]}")
        for off in by_dim.get(i, ()):
            if off != 0:
                lines.append(f"{indent}{_woff_name(i, off)} = W{i} {off:+d}")
    for i in sorted(em.used_axes):
        shape = ["1"] * ir.ndim
        shape[i] = "-1"
        lines.append(f"{indent}AX{i}R = W{i}.reshape({', '.join(shape)})")
    return lines


def _job_lines(ir: KernelIR, indent: str) -> list[str]:
    """The job loop's head: bind every ``D_``/``C_`` name to job
    ``_b``'s slab of the stacked buffers — the clone bodies reference
    arrays only through these names."""
    lines = [f"{indent}for _b in range(NB):"]
    indent += "    "
    lines.extend(f"{indent}D_{name} = BD_{name}[_b]" for name in ir.arrays)
    lines.extend(f"{indent}C_{name} = BC_{name}[_b]" for name in ir.const_arrays)
    return lines


def _interior_source(ir: KernelIR) -> str:
    em = _lower(ir, boundary_mode=False)
    d = ir.ndim
    lines = ["def interior(t, lo, hi):"]
    for i in range(d):
        lines.append(f"    l{i} = lo[{i}]; h{i} = hi[{i}]")
    empty = " or ".join(f"h{i} <= l{i}" for i in range(d))
    lines.append(f"    if {empty}:")
    lines.append("        return")
    lines.extend(_slot_lines(ir, "    "))
    if em.n_slots:
        lines.append("    POOL = P.get()")
    for i in sorted(em.used_axes):
        shape = ["1"] * d
        shape[i] = "-1"
        lines.append(
            f"    AX{i}R = np.arange(l{i}, h{i}).reshape({', '.join(shape)})"
        )
    lines.extend(_pool_lines(ir, em, "    "))
    lines.append("    with np.errstate(divide='ignore', invalid='ignore'):")
    # Everything geometric (slots, axes, pool views) is shared; only the
    # data bindings differ per job.
    lines.extend(_job_lines(ir, "        "))
    lines.extend(f"            {b}" for b in em.lines)
    return "\n".join(lines)


def _boundary_source(ir: KernelIR) -> str:
    em = _lower(ir, boundary_mode=True)
    d = ir.ndim
    lines = ["def boundary(t, lo, hi):"]
    for i in range(d):
        lines.append(f"    l{i} = lo[{i}]; h{i} = hi[{i}]")
    empty = " or ".join(f"h{i} <= l{i}" for i in range(d))
    lines.append(f"    if {empty}:")
    lines.append("        return")
    lines.extend(_slot_lines(ir, "    "))
    if em.n_slots:
        lines.append("    POOL = P.get()")
    lines.extend(_w_lines(ir, em, "    "))
    lines.extend(_pool_lines(ir, em, "    "))
    lines.append("    with np.errstate(divide='ignore', invalid='ignore'):")
    lines.extend(_job_lines(ir, "        "))
    lines.extend(f"            {b}" for b in em.lines)
    return "\n".join(lines)


def _leaf_source(ir: KernelIR, boundary_mode: bool) -> str:
    """The fused base-case clone (see module docstring).

    Runs ``[ta, tb)`` time steps over a box whose per-dim bounds shift by
    the zoid slopes after each step.  Everything invariant across steps
    is hoisted: the errstate context, the pool capacity (sized to the
    trapezoid's widest step, so slot views never reallocate mid-leaf),
    and — when a dimension's slopes are zero — its coordinate vectors.

    The boundary leaf uses the *snapshot* strategy: one blockwise halo
    snapshot per (array, dt) per step, every neighbor read a plain slice
    of it.  Clip/fill boundary dimensions require the home range to stay
    in-domain for that to be exact; the generated prologue checks and
    returns False (caller falls back to per-step clones) otherwise.
    Returns True when the leaf ran.
    """
    em = _lower(ir, boundary_mode, snapshot_mode=boundary_mode)
    d = ir.ndim
    name = "leaf_boundary" if boundary_mode else "leaf"
    lines = [f"def {name}(ta, tb, lo, hi, dlo, dhi):"]
    for i in range(d):
        lines.append(
            f"    l{i} = lo[{i}]; h{i} = hi[{i}]; "
            f"d_l{i} = dlo[{i}]; d_h{i} = dhi[{i}]"
        )
    lines.append("    if tb <= ta:")
    lines.append("        return True")
    for i in sorted(em.snap_clip_dims):
        # Clip/fill snapshots are exact only for in-domain home ranges
        # (a wrapped home coordinate would clamp differently); bounds are
        # linear in the step, so checking both ends covers every step.
        lines.append(
            f"    if (min(l{i}, l{i} + d_l{i} * (tb - ta - 1)) < 0 or "
            f"max(h{i}, h{i} + d_h{i} * (tb - ta - 1)) > {ir.sizes[i]}):"
        )
        lines.append("        return False")
    if em.n_slots:
        lines.append("    POOL = P.get()")
        # Widest step of each projection trapezoid: the extent is linear
        # in the step, so the max is at one of the two ends.
        for i in range(d):
            lines.append(
                f"    _m{i} = max(h{i} - l{i}, "
                f"h{i} - l{i} + (d_h{i} - d_l{i}) * (tb - ta - 1))"
            )
        cap = " * ".join(
            f"max(_m{i} + {em.pad_lo[i] + em.pad_hi[i]}, 0)" for i in range(d)
        )
        lines.append(f"    POOL.require({cap})")
    # Per-dimension coordinate caches (IndexValue uses only): rebuilt per
    # step only when the slopes actually move the bounds.  They stay
    # valid *across* jobs too — every job restarts from the same bounds,
    # and nonzero slopes force the per-step recompute.
    for i in sorted(em.used_axes):
        lines.append(f"    AX{i}R = None")
    empty = " or ".join(f"h{i} <= l{i}" for i in range(d))
    lines.append("    with np.errstate(divide='ignore', invalid='ignore'):")
    # The decline checks above ran once for the whole stack (pure
    # geometry, before any write), so a False return is all-or-none.
    lines.extend(_job_lines(ir, "        "))
    for i in range(d):
        # Re-unpack: the time loop below mutates the bounds in place.
        lines.append(f"            l{i} = lo[{i}]; h{i} = hi[{i}]")
    lines.append("            for t in range(ta, tb):")
    lines.append(f"                if not ({empty}):")
    ind = "                    "
    lines.extend(_slot_lines(ir, ind))
    for i in sorted(em.used_axes):
        shape = ["1"] * d
        shape[i] = "-1"
        base = (
            f"(np.arange(l{i}, h{i}) % {ir.sizes[i]})"
            if boundary_mode
            else f"np.arange(l{i}, h{i})"
        )
        lines.append(f"{ind}if AX{i}R is None or d_l{i} != 0 or d_h{i} != 0:")
        lines.append(f"{ind}    AX{i}R = {base}.reshape({', '.join(shape)})")
    lines.extend(_pool_lines(ir, em, ind))
    lines.extend(f"{ind}{b}" for b in em.lines)
    for i in range(d):
        lines.append(f"                l{i} += d_l{i}; h{i} += d_h{i}")
    lines.append("    return True")
    return "\n".join(lines)


def compile_numpy_clones(ir: KernelIR) -> dict[str, tuple]:
    """Generate and compile the clones for ``ir``: clone name -> (source,
    code object, scratch pools).  They hold no buffer, so one load serves
    every run and batch of the kernel
    (:func:`repro.compiler.pipeline.load_kernel` loads them once per
    process); the pools are thread-local, so every binding shares them
    and a warm run reuses its scratch buffers.  ``boundary`` and
    ``leaf_boundary`` are absent when some array's boundary kind is not
    expressible; callers substitute the per-point clone."""
    sources = {
        "interior": _interior_source(ir),
        "leaf": _leaf_source(ir, boundary_mode=False),
    }
    if ir.boundary_expressible:
        sources["boundary"] = _boundary_source(ir)
        sources["leaf_boundary"] = _leaf_source(ir, boundary_mode=True)
    tag = "_".join(ir.write_arrays)
    return {
        name: (
            src,
            compile(src, f"<split_pointer_{name}:{tag}>", "exec"),
            runtime_support.LocalPools(),  # each clone sizes its own views
        )
        for name, src in sources.items()
    }


def bind_numpy_clones(
    kernel: dict[str, tuple],
    stacked: dict[str, np.ndarray],
    stacked_consts: dict[str, np.ndarray],
    nb: int,
) -> dict:
    """The bind-per-buffers half: execute ``kernel``'s code over one job
    stack; returns the :class:`~repro.compiler.pipeline.CompiledKernel`
    clone fields.

    ``stacked``/``stacked_consts`` map array name to an ``(nb, ...)``
    buffer whose slab ``[b]`` has the single-job layout exactly (a local
    run passes zero-copy views of its own arrays with ``nb=1``).  Every
    clone body runs inside a job loop, so job ``b`` of a call executes
    the same op sequence on its slab as it would alone.
    """
    clones: dict = {"boundary": None, "leaf_boundary": None, "sources": {}}
    for name, (src, code, pools) in kernel.items():
        ns = _namespace(pools, stacked, stacked_consts, nb)
        exec(code, ns)
        clones[name] = ns[name]
        clones["sources"][name] = src
    return clones


def _namespace(
    pools: runtime_support.LocalPools,
    stacked: dict[str, np.ndarray],
    stacked_consts: dict[str, np.ndarray],
    nb: int,
) -> dict:
    """One clone's globals: the runtime helpers, its scratch pools, and
    the stacked ``(nb, ...)`` buffers its ``_b`` job loop reads."""
    ns: dict = {
        "np": np,
        "F64": runtime_support.f64,
        "GR": runtime_support.gather_remap,
        "GF": runtime_support.gather_fill,
        "GC": runtime_support.gather_const,
        "SW": runtime_support.scatter_write,
        "SB": runtime_support.snapshot_remap,
        "SBF": runtime_support.snapshot_fill,
        "SC": runtime_support.scatter_box,
        "P": pools,
        "NB": int(nb),
    }
    ns.update((f"BD_{name}", buf) for name, buf in stacked.items())
    ns.update((f"BC_{name}", buf) for name, buf in stacked_consts.items())
    return ns
