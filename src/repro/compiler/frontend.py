"""Compiler frontend: lower a language-level Problem to kernel IR.

The IR is simply the normalized statement list with parameters
substituted and constants folded, bundled with the geometric and storage
facts every backend needs (array metadata, shape footprint, boundary
kinds) and the problem's signature
(:func:`~repro.language.stencil.problem_signature`).  The signature is
the IR's identity: it spells every float exactly and carries each
boundary's values, so the three code caches (C libraries, NumPy clones,
per-point clones) key on it and two problems share generated code only
when they compute the same bits.  Validation already happened in
:meth:`Stencil.prepare`; the frontend re-derives only what codegen
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import CompileError
from repro.expr.analysis import kernel_accesses
from repro.expr.nodes import Assign, Let, Statement, py_float
from repro.expr.transform import (
    collect_params,
    fold_statements,
    substitute_params,
)
from repro.language.array import ConstArray, PochoirArray
from repro.language.boundary import (
    Boundary,
    ConstantBoundary,
    DirichletBoundary,
    MixedBoundary,
    NeumannBoundary,
    PeriodicBoundary,
)
from repro.language.stencil import Problem, problem_signature


def boundary_modes(b: Boundary | None, ndim: int) -> list[str] | None:
    """Per-dimension remap modes (``"mod"`` or ``"clip"``) for a
    remap-kind boundary, else None.

    An unregistered boundary degrades to clamp: it is only ever consulted
    for reads that are actually in-domain (a kernel whose shape never
    leaves the grid), where clamping is the identity.
    """
    if b is None:
        return ["clip"] * ndim
    if isinstance(b, PeriodicBoundary):
        return ["mod"] * ndim
    if isinstance(b, NeumannBoundary):
        return ["clip"] * ndim
    if isinstance(b, MixedBoundary):
        modes = []
        for i in range(ndim):
            m = b.modes[i] if i < len(b.modes) else "clamp"
            modes.append("mod" if m == "periodic" else "clip")
        return modes
    return None


def boundary_fill_expr(
    b: Boundary, dt: int, spell: Callable[[float], str] = py_float
) -> str | None:
    """Source of the scalar fill value at time ``t + dt``, else None.
    ``spell`` writes a double in the target language (C passes its own)."""
    if isinstance(b, ConstantBoundary):
        return spell(b.value)
    if isinstance(b, DirichletBoundary):
        return f"({spell(b.base)} + {spell(b.per_step)} * (t{dt:+d}))"
    return None


def boundaries_expressible(arrays: Iterable[PochoirArray]) -> bool:
    """Whether every array's boundary lowers to generated code — none, an
    index remap (:func:`boundary_modes`) or a fill
    (:func:`boundary_fill_expr`) — so the NumPy and C backends emit
    boundary clones.  A :class:`~repro.language.boundary.PythonBoundary`
    does not: its kernel gets the per-point boundary clone instead."""
    return all(
        a.boundary is None or a.boundary.is_index_remap or a.boundary.is_fill
        for a in arrays
    )


@dataclass(frozen=True)
class ArrayInfo:
    """Storage facts codegen needs for one registered array."""

    name: str
    sizes: tuple[int, ...]
    slots: int
    dts: tuple[int, ...]  # distinct time offsets read/written


@dataclass
class KernelIR:
    """Backend-independent compiled-kernel input (see module docstring)."""

    ndim: int
    sizes: tuple[int, ...]
    statements: tuple[Statement, ...]
    arrays: dict[str, PochoirArray]
    const_arrays: dict[str, ConstArray]
    array_infos: tuple[ArrayInfo, ...]
    write_arrays: tuple[str, ...]
    min_off: tuple[int, ...]
    max_off: tuple[int, ...]
    depth: int
    unbound_params: frozenset[str]
    #: :func:`~repro.language.stencil.problem_signature` of the source
    #: problem: equal signatures generate the same code in every
    #: backend, so the code caches key on it.
    signature: str
    #: :func:`boundaries_expressible` over the arrays: whether the
    #: ``c`` and ``split_pointer`` backends emit boundary clones.
    boundary_expressible: bool

    def reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-dim extreme read offsets widened to include the home point
        (every write lands at offset 0): the footprint interior tests use,
        so a point they accept is written and read in-domain."""
        return (
            tuple(min(o, 0) for o in self.min_off),
            tuple(max(o, 0) for o in self.max_off),
        )


def build_ir(problem: Problem) -> KernelIR:
    """Lower a Problem to IR: substitute params, fold constants, gather
    per-array storage metadata."""
    stmts = fold_statements(
        [
            Let(st.name, substitute_params(st.expr, problem.params))
            if isinstance(st, Let)
            else Assign(st.target, substitute_params(st.expr, problem.params))
            for st in problem.statements
        ]
    )
    unbound = collect_params(stmts)

    summary = kernel_accesses(stmts)
    min_off, max_off = summary.min_max_offsets()
    if summary.ndim() == 0:
        # Kernel reads no grid (e.g. writes a constant): offsets default.
        min_off = (0,) * problem.ndim
        max_off = (0,) * problem.ndim

    infos: list[ArrayInfo] = []
    for name in sorted(problem.arrays):
        arr = problem.arrays[name]
        dts = set()
        for dt, _ in summary.reads.get(name, ()):
            dts.add(dt)
        if name in summary.writes:
            dts |= summary.writes[name]
        infos.append(
            ArrayInfo(
                name=name,
                sizes=arr.sizes,
                slots=arr.slots,
                dts=tuple(sorted(dts)),
            )
        )

    write_arrays = tuple(sorted(summary.writes))
    if not write_arrays:
        raise CompileError("kernel writes no arrays")

    return KernelIR(
        ndim=problem.ndim,
        sizes=problem.sizes,
        statements=tuple(stmts),
        arrays=dict(problem.arrays),
        const_arrays=dict(problem.const_arrays),
        array_infos=tuple(infos),
        write_arrays=write_arrays,
        min_off=min_off,
        max_off=max_off,
        depth=problem.shape.depth,
        unbound_params=frozenset(unbound),
        signature=problem_signature(problem),
        boundary_expressible=boundaries_expressible(problem.arrays.values()),
    )
