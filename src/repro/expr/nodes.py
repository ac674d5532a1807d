"""AST node definitions for the Pochoir kernel expression language.

Two index/value domains coexist, mirroring the paper's language rules:

* **Index domain** — affine integer expressions over the space-time axes
  (:class:`Axis`, :class:`AffineIndex`).  Grid subscripts are restricted to
  the form ``axis + constant`` (the declared-shape discipline of Section 2);
  general affine combinations are allowed only where they are *values*
  (e.g. ``0.2 * t`` in a Dirichlet boundary, or ``x + y < n`` feeding a
  :class:`Where`).
* **Value domain** — the floating-point expressions the kernel computes
  (:class:`Expr` subclasses).

Nodes are frozen dataclasses: structurally hashable and comparable, which
the compiler relies on for caching and common-subexpression detection.
``==`` is therefore *structural*; use :func:`repro.expr.builder.eq_` to
build a value-level equality comparison node.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Mapping, Union

from repro.errors import KernelError

#: Position tag for the time axis (spatial axes use 0..d-1).
TIME_AXIS = -1

#: Binary operators in the value domain.
BINOPS = ("+", "-", "*", "/", "%", "**", "min", "max")

#: Comparison operators.
CMPOPS = ("<", "<=", ">", ">=", "==", "!=")

#: Supported math calls (each has a NumPy and a C99 spelling).
MATH_FUNCS = (
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "tanh",
    "fabs",
    "floor",
    "ceil",
)


class _IndexArith:
    """Mixin giving Axis/AffineIndex integer arithmetic and comparisons.

    Arithmetic stays in the index domain; comparisons lift into the value
    domain (a :class:`Compare` over :class:`IndexValue` operands) so they
    can appear inside :class:`Where` conditions.
    """

    def _affine(self) -> "AffineIndex":
        raise NotImplementedError

    def __add__(self, other: object) -> "AffineIndex":
        return self._affine()._add(other, +1)

    def __radd__(self, other: object) -> "AffineIndex":
        return self._affine()._add(other, +1)

    def __sub__(self, other: object) -> "AffineIndex":
        return self._affine()._add(other, -1)

    def __rsub__(self, other: object) -> "AffineIndex":
        return self._affine()._neg()._add(other, +1)

    def __neg__(self) -> "AffineIndex":
        return self._affine()._neg()

    def __mul__(self, other: object) -> Union["AffineIndex", "Expr"]:
        if isinstance(other, int):
            return self._affine()._scale(other)
        if isinstance(other, (float, Expr)):
            return IndexValue(self._affine()) * other
        return NotImplemented

    def __rmul__(self, other: object) -> Union["AffineIndex", "Expr"]:
        return self.__mul__(other)

    # Comparisons lift to the value domain.
    def __lt__(self, other: object) -> "Compare":
        return Compare("<", IndexValue(self._affine()), as_expr(other))

    def __le__(self, other: object) -> "Compare":
        return Compare("<=", IndexValue(self._affine()), as_expr(other))

    def __gt__(self, other: object) -> "Compare":
        return Compare(">", IndexValue(self._affine()), as_expr(other))

    def __ge__(self, other: object) -> "Compare":
        return Compare(">=", IndexValue(self._affine()), as_expr(other))


@dataclass(frozen=True)
class Axis(_IndexArith):
    """A symbolic space-time axis.

    ``position`` is :data:`TIME_AXIS` for time, else the spatial dimension
    index (0 = slowest-varying / leftmost subscript, matching the order of
    ``PochoirArray`` subscripts).
    """

    name: str
    position: int

    def _affine(self) -> "AffineIndex":
        return AffineIndex(terms=((self, 1),), const=0)

    @property
    def is_time(self) -> bool:
        return self.position == TIME_AXIS

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AffineIndex(_IndexArith):
    """An affine integer combination ``sum(coef * axis) + const``.

    ``terms`` is a tuple of (axis, coefficient) pairs sorted by axis
    position with zero coefficients removed — a canonical form, so
    structural equality coincides with mathematical equality.
    """

    terms: tuple[tuple[Axis, int], ...]
    const: int

    def _affine(self) -> "AffineIndex":
        return self

    @staticmethod
    def constant(value: int) -> "AffineIndex":
        return AffineIndex(terms=(), const=int(value))

    @staticmethod
    def _canon(coefs: Mapping[Axis, int], const: int) -> "AffineIndex":
        terms = tuple(
            sorted(
                ((ax, c) for ax, c in coefs.items() if c != 0),
                key=lambda p: (p[0].position, p[0].name),
            )
        )
        return AffineIndex(terms=terms, const=const)

    def _coef_map(self) -> dict[Axis, int]:
        return dict(self.terms)

    def _add(self, other: object, sign: int) -> "AffineIndex":
        coefs = self._coef_map()
        const = self.const
        if isinstance(other, int):
            const += sign * other
        elif isinstance(other, Axis):
            coefs[other] = coefs.get(other, 0) + sign
        elif isinstance(other, AffineIndex):
            for ax, c in other.terms:
                coefs[ax] = coefs.get(ax, 0) + sign * c
            const += sign * other.const
        else:
            raise KernelError(
                f"index arithmetic only supports integers and axes, got {other!r}"
            )
        return AffineIndex._canon(coefs, const)

    def _neg(self) -> "AffineIndex":
        return AffineIndex._canon({ax: -c for ax, c in self.terms}, -self.const)

    def _scale(self, k: int) -> "AffineIndex":
        return AffineIndex._canon({ax: k * c for ax, c in self.terms}, k * self.const)

    def single_axis_offset(self) -> tuple[Axis | None, int]:
        """Decompose as ``axis + const`` if possible, else raise.

        This is the restricted form grid subscripts must take (the paper's
        constant-offset shape cells).  A pure constant decomposes as
        ``(None, const)``.
        """
        if not self.terms:
            return None, self.const
        if len(self.terms) == 1 and self.terms[0][1] == 1:
            return self.terms[0][0], self.const
        raise KernelError(
            f"grid subscript must be 'axis + constant', got affine form {self!r}"
        )

    def __repr__(self) -> str:
        parts = []
        for ax, c in self.terms:
            if c == 1:
                parts.append(ax.name)
            else:
                parts.append(f"{c}*{ax.name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return "+".join(parts).replace("+-", "-")


IndexLike = Union[int, Axis, AffineIndex]


def as_affine(idx: IndexLike) -> AffineIndex:
    """Coerce an int/Axis/AffineIndex into canonical affine form."""
    if isinstance(idx, AffineIndex):
        return idx
    if isinstance(idx, Axis):
        return idx._affine()
    if isinstance(idx, int):
        return AffineIndex.constant(idx)
    raise KernelError(f"cannot use {idx!r} as a grid index")


class Expr:
    """Base class for value-domain expressions (operator-overloading mixin)."""

    __slots__ = ()

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: object) -> "Expr":
        return BinOp("+", self, as_expr(other))

    def __radd__(self, other: object) -> "Expr":
        return BinOp("+", as_expr(other), self)

    def __sub__(self, other: object) -> "Expr":
        return BinOp("-", self, as_expr(other))

    def __rsub__(self, other: object) -> "Expr":
        return BinOp("-", as_expr(other), self)

    def __mul__(self, other: object) -> "Expr":
        return BinOp("*", self, as_expr(other))

    def __rmul__(self, other: object) -> "Expr":
        return BinOp("*", as_expr(other), self)

    def __truediv__(self, other: object) -> "Expr":
        return BinOp("/", self, as_expr(other))

    def __rtruediv__(self, other: object) -> "Expr":
        return BinOp("/", as_expr(other), self)

    def __mod__(self, other: object) -> "Expr":
        return BinOp("%", self, as_expr(other))

    def __pow__(self, other: object) -> "Expr":
        return BinOp("**", self, as_expr(other))

    def __neg__(self) -> "Expr":
        return UnOp("neg", self)

    def __abs__(self) -> "Expr":
        return UnOp("abs", self)

    # -- comparisons (note: == and != are structural; use eq_/ne_) -------
    def __lt__(self, other: object) -> "Compare":
        return Compare("<", self, as_expr(other))

    def __le__(self, other: object) -> "Compare":
        return Compare("<=", self, as_expr(other))

    def __gt__(self, other: object) -> "Compare":
        return Compare(">", self, as_expr(other))

    def __ge__(self, other: object) -> "Compare":
        return Compare(">=", self, as_expr(other))

    # -- boolean combinators ---------------------------------------------
    def __and__(self, other: object) -> "Expr":
        return BoolOp("and", self, as_expr(other))

    def __rand__(self, other: object) -> "Expr":
        return BoolOp("and", as_expr(other), self)

    def __or__(self, other: object) -> "Expr":
        return BoolOp("or", self, as_expr(other))

    def __ror__(self, other: object) -> "Expr":
        return BoolOp("or", as_expr(other), self)

    def __invert__(self) -> "Expr":
        return NotOp(self)

    def children(self) -> tuple["Expr", ...]:
        """Sub-expressions, for generic traversal."""
        return ()


def as_expr(value: object) -> Expr:
    """Coerce a Python scalar / axis / affine index into an Expr node."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(1.0 if value else 0.0)
    if isinstance(value, (int, float)):
        return Const(float(value))
    if isinstance(value, (Axis, AffineIndex)):
        return IndexValue(as_affine(value))
    raise KernelError(f"cannot use {value!r} in a kernel expression")


def f64_bits(v: float) -> int:
    """The IEEE-754 bit pattern of the double ``v``."""
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def py_float(v: float) -> str:
    """Python source that evaluates to exactly the double ``v``: ``repr``
    when finite (it round-trips), else ``F64(<bits>)`` — ``repr`` spells
    infinities and NaNs as bare names, and a NaN's sign and payload by
    no name at all.  Generated code binds ``F64`` to
    :func:`repro.compiler.runtime_support.f64`."""
    return repr(v) if math.isfinite(v) else f"F64({f64_bits(v):#x})"


@dataclass(frozen=True)
class Const(Expr):
    """A floating-point literal.

    ``==`` compares values, so ``Const(0.0) == Const(-0.0)``; the repr
    spells the value exactly (:func:`py_float`), and it is the repr that
    the problem signature digests."""

    value: float

    def __repr__(self) -> str:
        return f"Const({py_float(self.value)})"


@dataclass(frozen=True)
class Param(Expr):
    """A named scalar parameter, bound when the stencil runs.

    ``frontend.build_ir`` folds the bound value into the statements
    (``substitute_params``), so each value is its own kernel: the C
    backend compiles one ``.so`` per value (ROADMAP item 10).
    """

    name: str


@dataclass(frozen=True)
class IndexValue(Expr):
    """An index-domain expression used as a floating value (e.g. ``0.2*t``)."""

    index: AffineIndex


@dataclass(frozen=True)
class GridRead(Expr):
    """A read of a registered Pochoir array at a constant offset.

    ``dt`` is the time offset and ``offsets`` the per-dimension spatial
    offsets, both relative to the kernel's home point ``(t, x0, …)``.
    """

    array: str
    dt: int
    offsets: tuple[int, ...]

    def __repr__(self) -> str:
        off = ",".join(
            f"t{self.dt:+d}" if self.dt else "t"
            for _ in range(1)
        ) + "".join(f",{o:+d}" for o in self.offsets)
        return f"{self.array}({off})"


@dataclass(frozen=True)
class GridWrite:
    """The target of an assignment: array name + time offset.

    Spatial offsets of writes must all be zero (the home-cell rule of
    Section 2); the front end enforces this before constructing the node.
    """

    array: str
    dt: int


@dataclass(frozen=True)
class ConstArrayRead(Expr):
    """A read of a registered *read-only* coefficient array.

    Unlike :class:`GridRead` these have no time dimension and allow any
    single-axis-plus-constant spatial subscripts — they model inputs such
    as the sequences in PSA/LCS or spatially varying coefficients.
    """

    array: str
    indices: tuple[AffineIndex, ...]


@dataclass(frozen=True)
class LocalRead(Expr):
    """A read of a kernel-local temporary introduced by :class:`Let`."""

    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINOPS:
            raise KernelError(f"unknown binary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # 'neg' | 'abs'
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("neg", "abs"):
            raise KernelError(f"unknown unary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Compare(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in CMPOPS:
            raise KernelError(f"unknown comparison operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # 'and' | 'or'
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise KernelError(f"unknown boolean operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class NotOp(Expr):
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Where(Expr):
    """Elementwise conditional: ``cond ? if_true : if_false``."""

    cond: Expr
    if_true: Expr
    if_false: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.if_true, self.if_false)


@dataclass(frozen=True)
class Call(Expr):
    """A math-function call (``exp``, ``sqrt``, …)."""

    func: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.func not in MATH_FUNCS:
            raise KernelError(
                f"unsupported math function {self.func!r}; supported: {MATH_FUNCS}"
            )

    def children(self) -> tuple[Expr, ...]:
        return self.args


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for kernel statements."""

    __slots__ = ()


@dataclass(frozen=True)
class Assign(Statement):
    """``array(t + dt, x0, …, xd-1) = expr`` — the home-cell update."""

    target: GridWrite
    expr: Expr


@dataclass(frozen=True)
class Let(Statement):
    """``name = expr`` — a kernel-local temporary visible to later statements."""

    name: str
    expr: Expr
