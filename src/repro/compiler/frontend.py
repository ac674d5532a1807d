"""Compiler frontend: lower a language-level Problem to kernel IR.

The IR is simply the normalized statement list with parameters
substituted and constants folded, bundled with the geometric and storage
facts every backend needs (array metadata, shape footprint, boundary
kinds).  Validation already happened in :meth:`Stencil.prepare`; the
frontend re-derives only what codegen consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import CompileError
from repro.expr.analysis import kernel_accesses
from repro.expr.nodes import Assign, Let, Statement
from repro.expr.transform import (
    collect_params,
    fold_statements,
    map_statement,
    substitute_params,
)
from repro.language.array import ConstArray, PochoirArray
from repro.language.stencil import Problem


@dataclass(frozen=True)
class ArrayInfo:
    """Storage facts codegen needs for one registered array."""

    name: str
    sizes: tuple[int, ...]
    slots: int
    dts: tuple[int, ...]  # distinct time offsets read/written
    boundary_key: tuple


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

    def reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-dim extreme read offsets widened to include the home point
        (every write lands at offset 0): the footprint interior tests use,
        so a point they accept is written and read in-domain."""
        return (
            tuple(min(o, 0) for o in self.min_off),
            tuple(max(o, 0) for o in self.max_off),
        )

    def cache_key(self) -> tuple:
        """Hashable identity for the compiled-kernel cache."""
        return (
            self.statements,
            self.sizes,
            self.array_infos,
            tuple(sorted(self.const_arrays)),
        )


def _boundary_cache_key(arr: PochoirArray) -> tuple:
    from repro.language.boundary import (
        ConstantBoundary,
        DirichletBoundary,
        MixedBoundary,
        PythonBoundary,
    )

    b = arr.boundary
    if b is None:
        return ("none",)
    if isinstance(b, ConstantBoundary):
        return (type(b).__name__, b.value)
    if isinstance(b, DirichletBoundary):
        return (type(b).__name__, b.base, b.per_step)
    if isinstance(b, MixedBoundary):
        return (type(b).__name__, b.modes)
    if isinstance(b, PythonBoundary):
        return (type(b).__name__, id(b.fn))
    return (type(b).__name__,)


def build_ir(problem: Problem, params: dict[str, float] | None = None) -> KernelIR:
    """Lower a Problem to IR: substitute params, fold constants, gather
    per-array storage metadata."""
    bound = dict(problem.params)
    if params:
        bound.update(params)
    stmts: list[Statement] = []
    for st in problem.statements:
        new = map_statement(st, lambda e: None)
        if isinstance(new, Let):
            new = Let(new.name, substitute_params(new.expr, bound))
        elif isinstance(new, Assign):
            new = Assign(new.target, substitute_params(new.expr, bound))
        stmts.append(new)
    stmts = fold_statements(stmts)
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
                boundary_key=_boundary_cache_key(arr),
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
    )
