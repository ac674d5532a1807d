"""AST transformations: structural map, time shifting, constant folding,
and parameter substitution.

These are the small rewrite passes the Phase-2 compiler applies before
codegen; they correspond to the normalization the Haskell Pochoir compiler
performs while parsing kernel text.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.errors import KernelError
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
    GridWrite,
    IndexValue,
    Let,
    LocalRead,
    NotOp,
    Param,
    Statement,
    UnOp,
    Where,
)

_MATH_IMPL = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "fabs": math.fabs,
    "floor": math.floor,
    "ceil": math.ceil,
}


def map_expr(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Rebuild ``expr`` bottom-up; ``fn`` may replace any node (return None
    to keep the reconstructed node)."""
    rebuilt: Expr
    if isinstance(expr, BinOp):
        rebuilt = BinOp(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, UnOp):
        rebuilt = UnOp(expr.op, map_expr(expr.operand, fn))
    elif isinstance(expr, Compare):
        rebuilt = Compare(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, BoolOp):
        rebuilt = BoolOp(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, NotOp):
        rebuilt = NotOp(map_expr(expr.operand, fn))
    elif isinstance(expr, Where):
        rebuilt = Where(
            map_expr(expr.cond, fn),
            map_expr(expr.if_true, fn),
            map_expr(expr.if_false, fn),
        )
    elif isinstance(expr, Call):
        rebuilt = Call(expr.func, tuple(map_expr(a, fn) for a in expr.args))
    else:
        rebuilt = expr
    replaced = fn(rebuilt)
    return rebuilt if replaced is None else replaced


def map_statement(st: Statement, fn: Callable[[Expr], Expr | None]) -> Statement:
    if isinstance(st, Let):
        return Let(st.name, map_expr(st.expr, fn))
    if isinstance(st, Assign):
        return Assign(st.target, map_expr(st.expr, fn))
    raise KernelError(f"unknown statement {type(st).__name__}")


def _shift_affine(index, delta: int):
    """Replace the time axis t by (t + delta) inside an affine index."""
    from repro.expr.nodes import AffineIndex

    const = index.const
    for ax, c in index.terms:
        if ax.is_time:
            const += c * delta
    if const == index.const:
        return index
    return AffineIndex(terms=index.terms, const=const)


def shift_time(st: Statement, delta: int) -> Statement:
    """Shift the kernel's time frame by ``delta``.

    Rewrites grid-access time offsets *and* every value-level use of the
    time index (``IndexValue`` nodes and const-array subscripts), so a
    kernel written as ``a(t+1, .) = f(t, a(t, .))`` means the same thing
    after normalization to write-at-zero: the symbol ``t`` keeps denoting
    the kernel's invocation time in the user's frame.
    """

    def shift(node: Expr) -> Expr | None:
        if isinstance(node, GridRead):
            return GridRead(node.array, node.dt + delta, node.offsets)
        if isinstance(node, IndexValue):
            return IndexValue(_shift_affine(node.index, delta))
        if isinstance(node, ConstArrayRead):
            return ConstArrayRead(
                node.array,
                tuple(_shift_affine(ix, delta) for ix in node.indices),
            )
        return None

    if isinstance(st, Let):
        return Let(st.name, map_expr(st.expr, shift))
    if isinstance(st, Assign):
        return Assign(
            GridWrite(st.target.array, st.target.dt + delta),
            map_expr(st.expr, shift),
        )
    raise KernelError(f"unknown statement {type(st).__name__}")


def substitute_params(expr: Expr, params: dict[str, float]) -> Expr:
    """Replace bound :class:`Param` nodes with constants."""

    def sub(node: Expr) -> Expr | None:
        if isinstance(node, Param) and node.name in params:
            return Const(float(params[node.name]))
        return None

    return map_expr(expr, sub)


def fold_constants(expr: Expr) -> Expr:
    """Evaluate constant sub-expressions at compile time.

    Division, ``%`` and math calls fold only when the result is finite, so
    a kernel containing e.g. a constant ``1/0`` guarded behind a
    :class:`Where` is preserved rather than turned into a compile error.
    """

    def fold(node: Expr) -> Expr | None:
        if isinstance(node, BinOp):
            left, right = node.left, node.right
            if isinstance(left, Const) and isinstance(right, Const):
                a, b = left.value, right.value
                try:
                    if node.op == "+":
                        return Const(a + b)
                    if node.op == "-":
                        return Const(a - b)
                    if node.op == "*":
                        return Const(a * b)
                    if node.op == "/":
                        return Const(a / b)
                    if node.op == "%":
                        return Const(math.fmod(a, b))
                    if node.op == "**":
                        return Const(a**b)
                    if node.op == "min":
                        return Const(min(a, b))
                    if node.op == "max":
                        return Const(max(a, b))
                except (ZeroDivisionError, OverflowError, ValueError):
                    return None
            # ``x * 1.0`` is ``x`` for signed zeros too (gcc folds it at
            # -O2 anyway).  ``x + 0.0`` is not ``x``: it maps -0.0 to +0.0.
            if node.op == "*" and isinstance(right, Const) and right.value == 1.0:
                return left
            if node.op == "*" and isinstance(left, Const) and left.value == 1.0:
                return right
            return None
        if isinstance(node, UnOp) and isinstance(node.operand, Const):
            v = node.operand.value
            return Const(-v if node.op == "neg" else abs(v))
        if isinstance(node, Call) and all(
            isinstance(a, Const) for a in node.args
        ):
            try:
                args = [a.value for a in node.args]  # type: ignore[union-attr]
                return Const(float(_MATH_IMPL[node.func](*args)))
            except (ValueError, OverflowError):
                return None
        if isinstance(node, Where) and isinstance(node.cond, Const):
            return node.if_true if node.cond.value != 0.0 else node.if_false
        return None

    return map_expr(expr, fold)


def fold_statements(stmts: Sequence[Statement]) -> list[Statement]:
    """Constant-fold every statement in a kernel body."""
    out: list[Statement] = []
    for st in stmts:
        if isinstance(st, Let):
            out.append(Let(st.name, fold_constants(st.expr)))
        elif isinstance(st, Assign):
            out.append(Assign(st.target, fold_constants(st.expr)))
        else:
            raise KernelError(f"unknown statement {type(st).__name__}")
    return out


#: Node kinds CSE will hoist into a Let.  Values (Const/Param/IndexValue)
#: and LocalReads are free to re-reference; everything else costs work
#: (an op, a math call, or a gather) when evaluated twice.
_CSE_ELIGIBLE = (
    BinOp,
    UnOp,
    Call,
    Where,
    Compare,
    BoolOp,
    NotOp,
    GridRead,
    ConstArrayRead,
)


def _reads_written_level(expr: Expr, array: str) -> bool:
    """True if ``expr`` reads ``array`` at the written time level (dt==0)."""
    from repro.expr.analysis import walk

    return any(
        isinstance(n, GridRead) and n.array == array and n.dt == 0
        for n in walk(expr)
    )


def _cse_use_counts(stmts: Sequence[Statement]) -> dict[Expr, int]:
    """Reference counts over the hash-consed expression DAG.

    Structural equality collapses repeated subtrees into one DAG node, so
    a subexpression that occurs twice only *inside* an already-repeated
    parent counts once — hoisting the parent alone is enough.
    """
    counts: dict[Expr, int] = {}
    visited: set[Expr] = set()

    def visit(e: Expr) -> None:
        if e in visited:
            return
        visited.add(e)
        for c in e.children():
            counts[c] = counts.get(c, 0) + 1
            visit(c)

    for st in stmts:
        expr = st.expr if isinstance(st, (Let, Assign)) else None
        if expr is None:
            raise KernelError(f"unknown statement {type(st).__name__}")
        counts[expr] = counts.get(expr, 0) + 1
        visit(expr)
    return counts


def cse_statements(
    stmts: Sequence[Statement], prefix: str = "_cse"
) -> list[Statement]:
    """Common-subexpression elimination over a kernel body.

    Every repeated eligible subexpression is computed once into a Let and
    re-read via :class:`LocalRead` — e.g. a neighbor sum appearing in two
    assignments, or the same gather feeding several terms.  Statement
    order is respected: an Assign to array ``A`` invalidates cached
    expressions that read ``A`` at the written level (dt == 0), so
    read-after-write kernels keep their semantics.

    Intended for backends that evaluate eagerly (the vectorized NumPy
    clones evaluate both branches of a ``Where`` anyway); hoisting out of
    a ``Where`` branch there never changes observable behavior.
    """
    counts = _cse_use_counts(stmts)
    taken = {st.name for st in stmts if isinstance(st, Let)}
    while any(name.startswith(prefix) for name in taken):
        prefix = "_" + prefix
    available: dict[Expr, str] = {}
    out: list[Statement] = []
    fresh = iter(range(1 << 30))

    def rewrite(e: Expr, pending: list[Statement]) -> Expr:
        if isinstance(e, _CSE_ELIGIBLE) and counts.get(e, 0) >= 2:
            name = available.get(e)
            if name is None:
                name = f"{prefix}{next(fresh)}"
                pending.append(Let(name, rewrite_children(e, pending)))
                available[e] = name
            return LocalRead(name)
        return rewrite_children(e, pending)

    def rewrite_children(e: Expr, pending: list[Statement]) -> Expr:
        if isinstance(e, BinOp):
            return BinOp(e.op, rewrite(e.left, pending), rewrite(e.right, pending))
        if isinstance(e, UnOp):
            return UnOp(e.op, rewrite(e.operand, pending))
        if isinstance(e, Compare):
            return Compare(
                e.op, rewrite(e.left, pending), rewrite(e.right, pending)
            )
        if isinstance(e, BoolOp):
            return BoolOp(
                e.op, rewrite(e.left, pending), rewrite(e.right, pending)
            )
        if isinstance(e, NotOp):
            return NotOp(rewrite(e.operand, pending))
        if isinstance(e, Where):
            return Where(
                rewrite(e.cond, pending),
                rewrite(e.if_true, pending),
                rewrite(e.if_false, pending),
            )
        if isinstance(e, Call):
            return Call(e.func, tuple(rewrite(a, pending) for a in e.args))
        return e

    for st in stmts:
        pending: list[Statement] = []
        if isinstance(st, Let):
            new: Statement = Let(st.name, rewrite(st.expr, pending))
        elif isinstance(st, Assign):
            new = Assign(st.target, rewrite(st.expr, pending))
        else:
            raise KernelError(f"unknown statement {type(st).__name__}")
        out.extend(pending)
        out.append(new)
        if isinstance(st, Assign):
            written = st.target.array
            available = {
                e: n
                for e, n in available.items()
                if not _reads_written_level(e, written)
            }
    return out


def count_nodes(expr: Expr) -> int:
    """Number of AST nodes — used by tests and the compiler's cost model."""
    total = 1
    for c in expr.children():
        total += count_nodes(c)
    return total


def collect_params(stmts: Sequence[Statement]) -> set[str]:
    """Names of all :class:`Param` nodes appearing in a kernel body."""
    names: set[str] = set()

    def visit(node: Expr) -> Expr | None:
        if isinstance(node, Param):
            names.add(node.name)
        return None

    for st in stmts:
        map_statement(st, visit)
    return names
