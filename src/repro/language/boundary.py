"""Boundary functions: what a kernel sees when it reads off the grid.

The paper's key design point (Section 4, "Unifying periodic and
nonperiodic boundary conditions") is that *all* boundary behaviour — torus
wrap-around, Dirichlet values, Neumann reflection, cylinders mixing both —
lives in a per-array boundary function invoked only by the slow *boundary
clone* of the kernel; interior clones never check.

Each boundary kind here supports two protocols:

* ``resolve(reader, t, point, sizes)`` — the per-point contract used by the
  Phase-1 interpreter and the per-point boundary clone.  ``reader(t, pt)``
  fetches a stored in-domain value.
* an optional *vectorizable* description used by the NumPy boundary clone:
  either a pure **index remap** (``map_index``: off-domain coordinates map
  to in-domain ones — periodic mod, Neumann clamp) or a **fill value**
  (Dirichlet/constant), possibly time-dependent.

:class:`PythonBoundary` wraps an arbitrary user callable, exactly like the
paper's ``Pochoir_Boundary_dimD`` construct; it only supports the
per-point protocol, so arrays using it steer the compiler to the
per-point boundary clone (slower, still correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import BoundaryError
from repro.expr.nodes import py_float

#: Reader callback handed to boundary functions: (t, point) -> stored value.
StoredReader = Callable[[int, tuple[int, ...]], float]


class Boundary:
    """Base class: every boundary kind resolves off-domain reads."""

    #: True when off-domain reads are a pure coordinate remap into the
    #: domain (periodic, clamp) — the fast vectorizable case.
    is_index_remap: bool = False
    #: True when off-domain reads are a (possibly time-dependent) scalar.
    is_fill: bool = False

    def resolve(
        self,
        reader: StoredReader,
        t: int,
        point: tuple[int, ...],
        sizes: tuple[int, ...],
    ) -> float:
        raise NotImplementedError

    def map_index(self, idx: np.ndarray, size: int, dim: int) -> np.ndarray:
        """Vectorized coordinate remap for dimension ``dim`` (remap kinds)."""
        raise BoundaryError(f"{type(self).__name__} is not an index remap")

    def fill_value(self, t: int) -> float:
        """Scalar used for off-domain reads at time ``t`` (fill kinds)."""
        raise BoundaryError(f"{type(self).__name__} is not a fill boundary")

    def describe(self) -> str:
        """What the problem signature records of this boundary: every
        parameter that changes the values it supplies, floats spelled
        exactly (:func:`~repro.expr.nodes.py_float`)."""
        return type(self).__name__


@dataclass
class PeriodicBoundary(Boundary):
    """Torus topology: coordinates wrap modulo the grid size.

    This is the boundary of Figure 6's ``heat_bv``.
    """

    is_index_remap = True

    def resolve(self, reader, t, point, sizes):
        wrapped = tuple(p % n for p, n in zip(point, sizes))
        return reader(t, wrapped)

    def map_index(self, idx, size, dim):
        return idx % size


@dataclass
class NeumannBoundary(Boundary):
    """Zero-derivative boundary: off-domain reads clamp to the nearest edge
    point (Figure 11(b) of the paper)."""

    is_index_remap = True

    def resolve(self, reader, t, point, sizes):
        clamped = tuple(min(max(p, 0), n - 1) for p, n in zip(point, sizes))
        return reader(t, clamped)

    def map_index(self, idx, size, dim):
        return np.clip(idx, 0, size - 1)


@dataclass
class ConstantBoundary(Boundary):
    """Dirichlet condition with a fixed value on the boundary.

    With ``value=0`` this models the ghost-cell-of-zeros setup the paper's
    nonperiodic loop baselines use.
    """

    value: float = 0.0
    is_fill = True

    def resolve(self, reader, t, point, sizes):
        return self.value

    def fill_value(self, t):
        return self.value

    def describe(self) -> str:
        return f"ConstantBoundary({py_float(float(self.value))})"


def ZeroBoundary() -> ConstantBoundary:
    """Convenience: a Dirichlet boundary fixed at zero."""
    return ConstantBoundary(0.0)


@dataclass
class DirichletBoundary(Boundary):
    """Dirichlet condition whose value varies with time: ``a + b * t``.

    Models Figure 11(a) (``return 100 + 0.2 * t``).  Arbitrary functions of
    space need :class:`PythonBoundary`; keeping this kind affine-in-time
    lets the NumPy and C boundary clones stay vectorized.
    """

    base: float = 0.0
    per_step: float = 0.0
    is_fill = True

    def resolve(self, reader, t, point, sizes):
        return self.base + self.per_step * t

    def fill_value(self, t):
        return self.base + self.per_step * t

    def describe(self) -> str:
        terms = (py_float(float(v)) for v in (self.base, self.per_step))
        return f"DirichletBoundary({', '.join(terms)})"


@dataclass
class MixedBoundary(Boundary):
    """Different behaviour per dimension — e.g. a 2D cylinder with a
    periodic x and clamped y, the example Section 4 calls out.

    ``modes`` holds one of ``"periodic"`` / ``"clamp"`` per dimension.
    Both are index remaps, so the combination stays vectorizable.
    """

    modes: tuple[str, ...] = ()
    is_index_remap = True

    def __post_init__(self) -> None:
        for m in self.modes:
            if m not in ("periodic", "clamp"):
                raise BoundaryError(
                    f"MixedBoundary modes must be 'periodic' or 'clamp', got {m!r}"
                )

    def resolve(self, reader, t, point, sizes):
        mapped = []
        for i, (p, n) in enumerate(zip(point, sizes)):
            mode = self.modes[i] if i < len(self.modes) else "clamp"
            mapped.append(p % n if mode == "periodic" else min(max(p, 0), n - 1))
        return reader(t, tuple(mapped))

    def map_index(self, idx, size, dim):
        mode = self.modes[dim] if dim < len(self.modes) else "clamp"
        if mode == "periodic":
            return idx % size
        return np.clip(idx, 0, size - 1)

    def describe(self) -> str:
        return f"MixedBoundary({', '.join(self.modes)})"


class PythonBoundary(Boundary):
    """An arbitrary user boundary function — the fully general construct.

    ``fn(reader, t, *point)`` may compute anything, including reading
    in-domain stored values through ``reader.get(t, *pt)`` (the paper's
    ``arr.get``).  Reading off-domain from inside a boundary function is an
    error (it would recurse), matching Pochoir's contract that boundary
    functions supply values *from* the domain or from thin air.
    """

    def __init__(self, fn: Callable[..., float], name: str | None = None):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "boundary")

    def resolve(self, reader, t, point, sizes):
        guard = _GuardedReader(reader, sizes)
        value = self.fn(guard, t, *point)
        if not isinstance(value, (int, float, np.integer, np.floating)):
            raise BoundaryError(
                f"boundary function {self.name!r} returned non-scalar {value!r}"
            )
        return float(value)

    def describe(self) -> str:
        return f"PythonBoundary({self.name})"


class _GuardedReader:
    """The ``arr``-like object passed to user boundary functions.

    Exposes ``get(t, *point)`` for stored values and ``size(i)`` for
    dimension sizes, with ``size(0)`` the *last* (unit-stride) dimension to
    match the paper's convention in Figure 6 (``a.size(1)`` is x,
    ``a.size(0)`` is y for a 2D array).
    """

    def __init__(self, reader: StoredReader, sizes: tuple[int, ...]):
        self._reader = reader
        self._sizes = sizes

    def size(self, i: int) -> int:
        if not 0 <= i < len(self._sizes):
            raise BoundaryError(
                f"size({i}) out of range for {len(self._sizes)}-D array"
            )
        return self._sizes[len(self._sizes) - 1 - i]

    def get(self, t: int, *point: int) -> float:
        if len(point) != len(self._sizes):
            raise BoundaryError(
                f"get() needs {len(self._sizes)} spatial coords, got {len(point)}"
            )
        for p, n in zip(point, self._sizes):
            if not 0 <= p < n:
                raise BoundaryError(
                    f"boundary function read off-domain point {point} "
                    f"(sizes {self._sizes}); boundary functions must read "
                    f"in-domain values only"
                )
        return self._reader(t, tuple(point))


def periodic() -> PeriodicBoundary:
    """Convenience constructor matching example code style."""
    return PeriodicBoundary()


def neumann() -> NeumannBoundary:
    """Convenience constructor matching example code style."""
    return NeumannBoundary()
