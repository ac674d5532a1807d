"""The generated per-point clones — the analogue of the paper's
``-split-macro-shadow`` option (Figure 12(b)).

The kernel is emitted as straight-line Python with *direct, unchecked*
ndarray indexing for the interior clone, eliminating the
boundary-checking accessor exactly as the paper's macro trick does.  The
boundary clone keeps the checked accessor (``read_at``) for off-home
reads and reduces virtual coordinates modulo the grid sizes.

A run uses only the boundary clone, for boundary kinds the ``c`` and
``split_pointer`` backends cannot express (``PythonBoundary``):
:func:`repro.compiler.pipeline._macro_shadow` compiles it once per
process per problem signature (``KernelIR.signature``) and binds it per
run, executing the loaded code into a fresh namespace over the
problem's arrays, whose boundary objects the checked accessor consults
at run time.  The interior clone is the Figure 13 benchmark's
per-point comparison kernel.
"""

from __future__ import annotations

import math
from types import CodeType
from typing import Callable

from repro.errors import CompileError, KernelError
from repro.compiler.frontend import KernelIR
from repro.compiler.runtime_support import f64
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
    py_float,
)

CloneFn = Callable[[int, tuple[int, ...], tuple[int, ...]], None]


# ---------------------------------------------------------------------------
# macro_shadow codegen
# ---------------------------------------------------------------------------

_PY_MATH = {
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "sin": "sin",
    "cos": "cos",
    "tanh": "tanh",
    "fabs": "fabs",
    "floor": "_floor",
    "ceil": "_ceil",
}


def _slot_tag(dt: int) -> str:
    return f"m{-dt}" if dt < 0 else f"p{dt}"


class _PointCodegen:
    """Shared expression codegen for per-point Python (both clones)."""

    def __init__(self, ir: KernelIR, boundary_mode: bool):
        self.ir = ir
        self.boundary_mode = boundary_mode

    def axis_name(self, i: int) -> str:
        return f"x{i}"

    def affine(self, index) -> str:
        parts: list[str] = []
        for ax, c in index.terms:
            base = "t" if ax.is_time else self.axis_name(ax.position)
            parts.append(base if c == 1 else f"{c}*{base}")
        if index.const or not parts:
            parts.append(str(index.const))
        return "(" + " + ".join(parts) + ")"

    def grid_read(self, node: GridRead) -> str:
        idx = []
        for i, off in enumerate(node.offsets):
            name = self.axis_name(i)
            idx.append(name if off == 0 else f"{name}{off:+d}")
        subs = ", ".join(idx)
        if self.boundary_mode:
            return f"R_{node.array}(t{node.dt:+d}, ({subs},))"
        return f"D_{node.array}[s_{node.array}_{_slot_tag(node.dt)}, {subs}]"

    def const_read(self, node: ConstArrayRead) -> str:
        sizes = self.ir.const_arrays[node.array].sizes
        idx = [
            f"min(max({self.affine(ix)}, 0), {n - 1})"
            for ix, n in zip(node.indices, sizes)
        ]
        return f"C_{node.array}[{', '.join(idx)}]"

    def val(self, e: Expr) -> str:
        if isinstance(e, Const):
            return py_float(e.value)
        if isinstance(e, Param):
            raise CompileError(
                f"parameter {e.name!r} is unbound at codegen; call "
                f"stencil.set_param first"
            )
        if isinstance(e, IndexValue):
            return f"float{self.affine(e.index)}"
        if isinstance(e, LocalRead):
            return f"L_{e.name}"
        if isinstance(e, GridRead):
            return self.grid_read(e)
        if isinstance(e, ConstArrayRead):
            return self.const_read(e)
        if isinstance(e, BinOp):
            a, b = self.val(e.left), self.val(e.right)
            if e.op == "min":
                return f"min({a}, {b})"
            if e.op == "max":
                return f"max({a}, {b})"
            if e.op == "%":
                return f"fmod({a}, {b})"
            if e.op == "**":
                return f"({a} ** {b})"
            return f"({a} {e.op} {b})"
        if isinstance(e, UnOp):
            v = self.val(e.operand)
            return f"(-{v})" if e.op == "neg" else f"abs({v})"
        if isinstance(e, (Compare, BoolOp, NotOp)):
            return f"(1.0 if {self.bool(e)} else 0.0)"
        if isinstance(e, Where):
            return (
                f"({self.val(e.if_true)} if {self.bool(e.cond)} "
                f"else {self.val(e.if_false)})"
            )
        if isinstance(e, Call):
            args = ", ".join(self.val(a) for a in e.args)
            return f"{_PY_MATH[e.func]}({args})"
        raise KernelError(f"cannot generate code for {type(e).__name__}")

    def bool(self, e: Expr) -> str:
        if isinstance(e, Compare):
            return f"({self.val(e.left)} {e.op} {self.val(e.right)})"
        if isinstance(e, BoolOp):
            op = "and" if e.op == "and" else "or"
            return f"({self.bool(e.left)} {op} {self.bool(e.right)})"
        if isinstance(e, NotOp):
            return f"(not {self.bool(e.operand)})"
        return f"({self.val(e)} != 0.0)"


def _clone_source(ir: KernelIR, *, boundary_mode: bool) -> str:
    """Generate the source text of one per-point clone."""
    gen = _PointCodegen(ir, boundary_mode)
    d = ir.ndim
    name = "boundary" if boundary_mode else "interior"
    lines = [f"def {name}(t, lo, hi):"]
    empty = " or ".join(f"hi[{i}] <= lo[{i}]" for i in range(d))
    lines.append(f"    if {empty}:")
    lines.append("        return")
    for info in ir.array_infos:
        for dt in info.dts:
            if boundary_mode and dt != 0:
                continue  # off-home reads go through R_<name> accessors
            lines.append(
                f"    s_{info.name}_{_slot_tag(dt)} = (t{dt:+d}) % {info.slots}"
            )
    indent = "    "
    loop_var = "v" if boundary_mode else "x"
    for i in range(d):
        lines.append(
            f"{indent}for {loop_var}{i} in range(lo[{i}], hi[{i}]):"
        )
        indent += "    "
        if boundary_mode:
            lines.append(f"{indent}x{i} = v{i} % {ir.sizes[i]}")
    for st in ir.statements:
        if isinstance(st, Let):
            lines.append(f"{indent}L_{st.name} = {gen.val(st.expr)}")
        elif isinstance(st, Assign):
            arr = st.target.array
            home = ", ".join(f"x{i}" for i in range(d))
            lines.append(
                f"{indent}D_{arr}[s_{arr}_{_slot_tag(0)}, {home}] = "
                f"{gen.val(st.expr)}"
            )
    return "\n".join(lines)


def _namespace(ir: KernelIR) -> dict:
    ns: dict = {
        "exp": math.exp,
        "log": math.log,
        "sqrt": math.sqrt,
        "sin": math.sin,
        "cos": math.cos,
        "tanh": math.tanh,
        "fabs": math.fabs,
        "_floor": math.floor,
        "_ceil": math.ceil,
        "fmod": math.fmod,
        "F64": f64,
    }
    for arr_name, arr in ir.arrays.items():
        ns[f"D_{arr_name}"] = arr.data
        ns[f"R_{arr_name}"] = arr.read_at
    for c_name, c in ir.const_arrays.items():
        ns[f"C_{c_name}"] = c.values
    return ns


def compile_clone(ir: KernelIR, *, boundary_mode: bool) -> tuple[str, CodeType]:
    """One per-point clone's source and compiled code.  Uncached: the
    pipeline loads the boundary clone once per process."""
    name = "boundary" if boundary_mode else "interior"
    src = _clone_source(ir, boundary_mode=boundary_mode)
    tag = f"<macro_shadow_{name}:{'_'.join(ir.write_arrays)}>"
    return src, compile(src, tag, "exec")


def bind_clone(ir: KernelIR, code: CodeType, *, boundary_mode: bool) -> CloneFn:
    """The clone ``code`` defines, bound to ``ir``'s arrays."""
    ns = _namespace(ir)
    exec(code, ns)
    return ns["boundary" if boundary_mode else "interior"]
