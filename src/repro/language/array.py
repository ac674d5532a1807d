"""Pochoir arrays: d-dimensional spatial grids with a modular time buffer.

A :class:`PochoirArray` owns ``depth + 1`` copies of the spatial grid,
reused modulo ``depth + 1`` as the computation proceeds — exactly the
storage discipline of Section 2 (the user "may not obtain an alias to the
Pochoir array", so the layout is ours to choose).

**The layout contract.**  ``data`` is a writable ndarray of shape
``(slots, *sizes)``, C-contiguous ``float64``, time-major, and this module
is the only place that allocates or replaces one.  Its element
strides are :meth:`PochoirArray.strides_points`, which compiled kernels
bake in; large buffers sit on 4 KiB pages (:func:`_grid_buffer`).  Code
elsewhere may read and write ``data[...]`` in place, and otherwise goes
through these verbs:

* :meth:`~PochoirArray.check_layout` — the contract check, run where a
  grid enters (``Stencil.prepare`` and unpickling); a buffer that breaks
  it raises :class:`~repro.errors.SpecificationError`;
* :meth:`~PochoirArray.save` / :meth:`~PochoirArray.load` — a private copy
  of the whole buffer, and the validated in-place copy back (rollback,
  checkpoint restore, a served result);
* :meth:`~PochoirArray.clone` — a private twin with the same contents;
* :func:`stack_grids` — the ``(nb, slots, *sizes)`` stack of a job batch;
* :meth:`~PochoirArray.share` / :meth:`~PochoirArray.unshare` /
  :meth:`~PochoirArray.detach` — the shared-memory backing (below).

The same object plays three roles, mirroring the paper's API:

* **concrete indexing** ``u[t, x, y]`` (get/set) for initialization and
  reading results (Figure 6 lines 15–21);
* **symbolic calls** ``u(t+1, x, y)`` inside a kernel function, which build
  AST nodes (:class:`GridAccess`) for the compiler;
* **checked runtime access** ``read_at`` / ``write_at``, the Phase-1
  accessors that route off-domain reads through the registered boundary
  function.

**The grid-as-view refactor** (supervised execution / sharding): the
modular buffer is normally a private ndarray, but :meth:`PochoirArray.share`
can rebind it as a *view onto an attachable* ``multiprocessing.shared_memory``
segment.  A shared array pickles as a segment descriptor (its name, no
payload bytes), and unpickling in another process attaches a zero-copy
view onto the same physical pages — which is how the supervised executor
hands worker subprocesses the live grid without serializing it;
:meth:`~PochoirArray.detach` drops that view again.  On the serving wire
(:func:`arrays_by_value`) a shared array pickles its bytes instead, and a
descriptor is refused, never attached: no name from a socket picks the
memory a run maps.  Compiled kernels hold
no array: every run binds the kernel's loaded code to the buffers the
array owns at that moment, so a rebind needs no bookkeeping.  Copies into
a grid are made in place because a run in flight, or another process
attached to the segment, holds the buffer itself.
"""

from __future__ import annotations

import contextlib
import contextvars
import mmap
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import BoundaryError, KernelError, SpecificationError
from repro.expr.nodes import (
    AffineIndex,
    Assign,
    Axis,
    ConstArrayRead,
    Expr,
    GridRead,
    GridWrite,
    as_affine,
    as_expr,
)
from repro.language.boundary import Boundary

#: Serializes the legacy (< 3.13) untracked-segment shim: it patches the
#: *process-global* ``resource_tracker.register``/``unregister``, so two
#: concurrent attaches interleaving save/patch/restore can leave tracking
#: pointed at the no-op forever (every later segment leaks) or re-enable
#: it while the other attach is mid-constructor (the attachment gets
#: tracked and the tracker unlinks a live segment at exit).  A *tracked*
#: create or unlink (:meth:`PochoirArray.share`, :func:`_close_segment`)
#: holds it too: inside another thread's shim its register or unregister
#: would be the no-op, and the tracker would never hear of the segment
#: (a crash leaks it) or would keep a name already unlinked.
_TRACKER_SHIM_LOCK = threading.Lock()

#: True while a pickle crosses a trust boundary (the serving wire,
#: :mod:`repro.serve.protocol`): a shared array then pickles its bytes,
#: never its segment's name, and unpickling refuses a segment descriptor
#: instead of attaching the segment it names.
_BY_VALUE = contextvars.ContextVar("repro_arrays_by_value", default=False)


class arrays_by_value:
    """Pickle and unpickle arrays by value in this context (see
    :data:`_BY_VALUE`).  A class, not a generator: it wraps every frame
    the wire packs or unpacks."""

    def __enter__(self) -> None:
        self._token = _BY_VALUE.set(True)

    def __exit__(self, *exc) -> None:
        _BY_VALUE.reset(self._token)


@dataclass(frozen=True)
class GridAccess(GridRead):
    """A symbolic grid access; usable as a read or, via ``<<``, a write.

    ``u(t+1, x, y) << expr`` is the repro spelling of the paper's
    ``u(t+1, x, y) = expr`` (Python cannot overload assignment-to-call).
    """

    def __lshift__(self, value: object) -> Assign:
        if any(o != 0 for o in self.offsets):
            raise KernelError(
                f"writes must target the home cell: {self.array} written at "
                f"spatial offsets {self.offsets}"
            )
        return Assign(GridWrite(self.array, self.dt), as_expr(value))


def _grid_buffer(shape: tuple[int, ...], *, zero: bool = True) -> np.ndarray:
    """A float64 grid buffer on base-size (4 KiB) pages.

    NumPy asks for transparent huge pages on arrays of 4 MiB and more.  A
    stencil's rows and planes sit a power-of-two stride apart on typical
    grids, and inside one physically contiguous 2 MiB page those strides
    map to the same sets of the physically indexed L2: a 128^3 wave leaf
    ran 5-6x slower on huge pages than on 4 KiB pages on the benchmark
    host.  Scattered 4 KiB frames hide the aliasing, so large grids get an
    anonymous mapping advised ``MADV_NOHUGEPAGE`` (zeroed by the kernel);
    small ones (and hosts without that advice) get ``np.zeros``, or
    ``np.empty`` when the caller overwrites every element (``zero=False``).
    """
    nbytes = int(np.prod(shape)) * 8
    advice = getattr(mmap, "MADV_NOHUGEPAGE", None)
    if advice is None or nbytes < (4 << 20):
        return (np.zeros if zero else np.empty)(shape, dtype=np.float64)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    try:
        buf.madvise(advice)
    except OSError:  # pragma: no cover - kernels built without THP
        pass
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def stack_grids(arrays: Sequence["PochoirArray"]) -> np.ndarray:
    """The ``(nb, slots, *sizes)`` stack of same-shape arrays' buffers.

    One array stacks as a zero-copy ``(1, ...)`` view of its own buffer;
    more are copied into one buffer from :func:`_grid_buffer`.
    """
    if len(arrays) == 1:
        return arrays[0].data[None]
    stack = _grid_buffer((len(arrays),) + arrays[0].data.shape, zero=False)
    for slab, arr in zip(stack, arrays):
        slab[...] = arr.data
    return stack


@contextlib.contextmanager
def _tracker_muted():
    """Keep ``multiprocessing``'s resource tracker out of a segment's life
    on CPython < 3.13, which has no ``track=False``: register/unregister
    are no-ops inside (under :data:`_TRACKER_SHIM_LOCK`)."""
    from multiprocessing import resource_tracker

    with _TRACKER_SHIM_LOCK:
        saved = resource_tracker.register, resource_tracker.unregister
        resource_tracker.register = lambda *a, **kw: None
        resource_tracker.unregister = lambda *a, **kw: None
        try:
            yield
        finally:
            resource_tracker.register, resource_tracker.unregister = saved


def _untracked_segment(**kwargs):
    """A ``SharedMemory`` the resource tracker never hears of."""
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(track=False, **kwargs)
    except TypeError:  # Python < 3.13
        with _tracker_muted():
            shm = shared_memory.SharedMemory(**kwargs)
        shm._track = False  # what 3.13 records: _close_segment reads it
        return shm


def _attach_segment(name: str):
    """Attach to the shared segment ``name`` WITHOUT resource-tracker
    registration: the creator owns the segment's lifetime.  CPython < 3.13
    tracks mere attachments too, so an attaching process's exit would
    unlink (or double-unregister) live state the creator still owns."""
    return _untracked_segment(name=name)


def _create_segment(name: str, size: int):
    """Create the shared segment ``name`` of ``size`` bytes, untracked
    (its creator unlinks it with :func:`_close_segment`, and no tracker
    process is started), with its pages reserved up front: a full
    ``/dev/shm`` fails here with ``OSError`` rather than with a SIGBUS at
    the first write to a page it could not back."""
    shm = _untracked_segment(name=name, create=True, size=size)
    try:
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(shm._fd, 0, size)
    except BaseException:
        _close_segment(shm, True)
        raise
    return shm


def _close_segment(shm, owner: bool) -> bool:
    """Close this process's mapping of ``shm`` and, for its creator,
    unlink the name.  Returns False when exported views kept the mapping
    open (the segment is unlinked either way; the pages go away with the
    last mapping)."""
    try:
        shm.close()
        closed = True
    except BufferError:
        # The mapping now belongs to those views (the last one to go
        # unmaps it); close the descriptor, and leave the SharedMemory
        # finalizer nothing to retry.
        shm._buf = shm._mmap = None
        shm.close()
        closed = False
    if owner:
        try:
            if getattr(shm, "_track", True):
                with _TRACKER_SHIM_LOCK:
                    shm.unlink()
            else:
                with _tracker_muted():
                    shm.unlink()
        except FileNotFoundError:
            pass
    return closed


def _is_symbolic(args: Sequence[object]) -> bool:
    return any(isinstance(a, (Axis, AffineIndex)) for a in args)


class PochoirArray:
    """A registered stencil state array (see module docstring).

    Parameters
    ----------
    name:
        Identifier used in kernel ASTs and compiled code; must be unique
        within a stencil.
    sizes:
        Spatial extents, slowest-varying first (``(X, Y)`` for 2D, with Y
        the unit-stride dimension).
    depth:
        How many prior time levels the array must retain (the ``depth``
        parameter of ``Pochoir_Array_dimD``); the buffer holds ``depth+1``
        time slots.
    """

    def __init__(self, name: str, sizes: Sequence[int], *, depth: int = 1):
        if not name.isidentifier():
            raise SpecificationError(f"array name must be an identifier: {name!r}")
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise SpecificationError(f"array sizes must be positive, got {sizes}")
        if depth < 1:
            raise SpecificationError(f"array depth must be >= 1, got {depth}")
        self.name = name
        self.sizes = sizes
        self.ndim = len(sizes)
        self.depth = depth
        self.slots = depth + 1
        self.data = _grid_buffer((self.slots, *sizes))
        self.boundary: Boundary | None = None
        #: Highest time level written so far (levels 0..depth-1 are assumed
        #: to be initialized by the user before the first run).
        self._latest = depth - 1
        #: Shared-memory backing when promoted via :meth:`share`
        #: (``None`` = private buffer).  ``_shm_owner`` distinguishes the
        #: creating process (unlinks the segment) from attachers (close
        #: only).
        self._shm = None
        self._shm_owner = False

    # -- shared-memory backing (grid-as-view) --------------------------------
    @property
    def is_shared(self) -> bool:
        """Whether the buffer currently lives in an attachable segment."""
        return self._shm is not None

    def share(self) -> "PochoirArray":
        """Move the modular buffer into a shared-memory segment (idempotent).

        The contents are preserved and ``self.data`` becomes a view onto
        the segment; the next run binds its kernel to that view.  Raises
        ``OSError`` where shared memory is unavailable — callers degrade,
        they do not crash.
        """
        if self._shm is not None:
            return self
        from multiprocessing import shared_memory

        with _TRACKER_SHIM_LOCK:  # tracked: see the lock's comment
            shm = shared_memory.SharedMemory(create=True, size=self.data.nbytes)
        view = np.ndarray(self.data.shape, dtype=np.float64, buffer=shm.buf)
        view[...] = self.data
        self.data = view
        self._shm = shm
        self._shm_owner = True
        return self

    def unshare(self) -> "PochoirArray":
        """Copy the buffer back to private memory and release the segment.

        The owner unlinks the segment name; attachers only close their
        mapping.  A kernel still bound to the shared view keeps it mapped,
        so a failing ``close`` (exported views still alive) is tolerated —
        the segment is unlinked either way and the pages go away with the
        last mapping.
        """
        if self._shm is None:
            return self
        shm, owner = self._shm, self._shm_owner
        self._shm = None
        self._shm_owner = False
        private = _grid_buffer(self.data.shape, zero=False)
        private[...] = self.data  # private again, contents preserved
        self.data = private
        _close_segment(shm, owner)
        return self

    def detach(self) -> bool:
        """Drop the buffer and close this process's mapping of its
        segment: the attach side's release, for an array that will not
        be used again.  Returns False when the mapping could not be closed
        because views of it are still alive elsewhere."""
        shm, owner = self._shm, self._shm_owner
        self._shm = None
        self._shm_owner = False
        self.data = None
        return shm is None or _close_segment(shm, owner)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if self._shm is not None:
            state["_shm"] = None
            state["_shm_owner"] = False
            if not _BY_VALUE.get():
                # Pickle as a descriptor: the receiver attaches a zero-copy
                # view onto the same segment instead of moving payload bytes.
                state["data"] = None
                state["_shm_name"] = self._shm.name
        return state

    def __setstate__(self, state: dict) -> None:
        name = state.pop("_shm_name", None)
        if _BY_VALUE.get() and (name is not None or state.get("_shm") is not None):
            raise SpecificationError(
                f"array {state.get('name')!r} arrived as a shared-memory "
                f"descriptor; arrays from the wire must carry their bytes"
            )
        self.__dict__.update(state)
        if name is not None:
            self._shm = _attach_segment(name)
            self.data = np.ndarray(
                (self.slots, *self.sizes), dtype=np.float64, buffer=self._shm.buf
            )
        self.check_layout()

    # -- the layout contract ---------------------------------------------------
    def check_layout(self, buf: object = None) -> np.ndarray:
        """Return ``buf`` (default: this array's own ``data``) if it is a
        whole modular buffer for this array — a C-contiguous float64
        ndarray of shape ``(slots, *sizes)`` — else raise
        :class:`SpecificationError`."""
        if buf is None:
            buf = self.data
        shape = (self.slots, *self.sizes)
        if not (
            isinstance(buf, np.ndarray)
            and buf.dtype == np.float64
            and buf.shape == shape
            and buf.flags["C_CONTIGUOUS"]
        ):
            raise SpecificationError(
                f"grid buffer of {self.name!r} must be a C-contiguous float64 "
                f"ndarray of shape {shape}, got {getattr(buf, 'dtype', buf)} "
                f"{getattr(buf, 'shape', '')}"
            )
        return buf

    def save(self) -> np.ndarray:
        """A private copy of the whole modular buffer (for :meth:`load`)."""
        return self.data.copy()

    def load(self, buf: np.ndarray, *, latest: int | None = None) -> None:
        """Copy a whole modular buffer into ``data``, in place, after
        :meth:`check_layout`; ``latest`` (when given) becomes the highest
        stored time level."""
        self.data[...] = self.check_layout(buf)
        if latest is not None:
            self._latest = latest

    def clone(self) -> "PochoirArray":
        """A twin on a private buffer: same name, geometry, boundary,
        contents and live time window."""
        twin = PochoirArray(self.name, self.sizes, depth=self.depth)
        twin.boundary = self.boundary
        twin.load(self.data, latest=self._latest)
        return twin

    # -- registration ------------------------------------------------------
    def register_boundary(self, boundary: Boundary) -> "PochoirArray":
        """Associate the boundary function supplying off-domain values.

        Each array has exactly one boundary at a time; re-registering
        replaces it (Section 2 allows this).  Returns self for chaining.
        """
        if not isinstance(boundary, Boundary):
            raise SpecificationError(
                f"register_boundary expects a Boundary, got {type(boundary).__name__}"
            )
        self.boundary = boundary
        return self

    # paper-style alias
    Register_Boundary = register_boundary

    # -- symbolic access (kernel building) ----------------------------------
    def __call__(self, *indices: object) -> GridAccess | float:
        if len(indices) != self.ndim + 1:
            raise KernelError(
                f"{self.name} is {self.ndim}-D: expected {self.ndim + 1} "
                f"subscripts (t first), got {len(indices)}"
            )
        if not _is_symbolic(indices):
            # Concrete call: a read, like the paper's `cout << u(T, x, y)`.
            t = int(indices[0])  # type: ignore[arg-type]
            pt = tuple(int(i) for i in indices[1:])  # type: ignore[arg-type]
            return self.get(t, pt)
        t_axis, dt = as_affine(indices[0]).single_axis_offset()  # type: ignore[arg-type]
        if t_axis is None or not t_axis.is_time:
            raise KernelError(
                f"first subscript of {self.name} must be the time axis "
                f"(t + constant), got {indices[0]!r}"
            )
        offsets = []
        for i, idx in enumerate(indices[1:]):
            axis, off = as_affine(idx).single_axis_offset()  # type: ignore[arg-type]
            if axis is None:
                raise KernelError(
                    f"spatial subscript {i} of {self.name} is a bare constant; "
                    f"kernel accesses must be relative to the home point"
                )
            if axis.is_time or axis.position != i:
                raise KernelError(
                    f"subscript {i} of {self.name} uses axis {axis.name!r} "
                    f"(dim {axis.position}); subscripts must follow "
                    f"declaration order"
                )
            offsets.append(off)
        return GridAccess(self.name, dt, tuple(offsets))

    # -- concrete access (init / results) -----------------------------------
    def _slot(self, t: int) -> int:
        return t % self.slots

    def _check_window(self, t: int) -> None:
        if t > self._latest or t <= self._latest - self.slots:
            raise SpecificationError(
                f"time level {t} of {self.name!r} is not live: the modular "
                f"buffer holds levels "
                f"[{max(0, self._latest - self.depth)}..{self._latest}]"
            )

    def get(self, t: int, point: tuple[int, ...]) -> float:
        """Read a stored value (in-domain, live time window only)."""
        self._check_window(t)
        for p, n in zip(point, self.sizes):
            if not 0 <= p < n:
                raise BoundaryError(
                    f"concrete read of {self.name} at off-domain point {point}; "
                    f"use read_at for boundary-resolved reads"
                )
        return float(self.data[(self._slot(t), *point)])

    def __getitem__(self, key: tuple[int, ...]) -> float:
        t, *pt = key
        return self.get(int(t), tuple(int(p) for p in pt))

    def __setitem__(self, key: tuple[int, ...], value: float) -> None:
        t, *pt = key
        t = int(t)
        point = tuple(int(p) for p in pt)
        for p, n in zip(point, self.sizes):
            if not 0 <= p < n:
                raise BoundaryError(
                    f"write to {self.name} at off-domain point {point}"
                )
        self.data[(self._slot(t), *point)] = value
        self._latest = max(self._latest, t)

    # -- checked runtime access (Phase 1 / per-point clones) ----------------
    def read_at(self, t: int, point: tuple[int, ...]) -> float:
        """Read with boundary resolution: the Phase-1 accessor."""
        if all(0 <= p < n for p, n in zip(point, self.sizes)):
            return float(self.data[(self._slot(t), *point)])
        if self.boundary is None:
            raise BoundaryError(
                f"kernel read {self.name} off-domain at {point} but no "
                f"boundary function is registered"
            )
        return self.boundary.resolve(self._stored_read, t, point, self.sizes)

    def _stored_read(self, t: int, point: tuple[int, ...]) -> float:
        return float(self.data[(self._slot(t), *point)])

    def write_at(self, t: int, point: tuple[int, ...], value: float) -> None:
        """Write a computed value (always in-domain by construction)."""
        self.data[(self._slot(t), *point)] = value

    def note_written_through(self, t: int) -> None:
        """Record that compiled execution has produced levels up to ``t``."""
        self._latest = max(self._latest, t)

    # -- bulk helpers --------------------------------------------------------
    def set_initial(self, values: np.ndarray, t: int = 0) -> None:
        """Initialize one whole time level from an ndarray."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.sizes:
            raise SpecificationError(
                f"initial values for {self.name} have shape {values.shape}, "
                f"expected {self.sizes}"
            )
        self.data[self._slot(t)] = values
        self._latest = max(self._latest, t)

    def fill_initial(self, fn: Callable[..., float], t: int = 0) -> None:
        """Initialize one time level pointwise from ``fn(*coords)``."""
        grids = np.meshgrid(
            *[np.arange(n) for n in self.sizes], indexing="ij", sparse=False
        )
        vec = np.vectorize(fn, otypes=[np.float64])
        self.set_initial(vec(*grids), t=t)

    def snapshot(self, t: int) -> np.ndarray:
        """A copy of one stored time level (for reading results)."""
        self._check_window(t)
        return self.data[self._slot(t)].copy()

    @property
    def total_points(self) -> int:
        """Points across all time slots — the array's address-space extent
        in grid points (used by the cache simulator and C codegen)."""
        return int(self.data.size)

    def strides_points(self) -> tuple[int, ...]:
        """Strides of ``(slot, *spatial)`` in elements: the layout every
        buffer of this array has (compiled kernels bake them in)."""
        out = [1]
        for n in reversed(self.sizes):
            out.append(out[-1] * n)
        return tuple(reversed(out))

    def __repr__(self) -> str:
        b = self.boundary.describe() if self.boundary else "none"
        return (
            f"PochoirArray({self.name!r}, sizes={self.sizes}, "
            f"depth={self.depth}, boundary={b})"
        )


class ConstArray:
    """A registered read-only coefficient/input array (no time dimension).

    Models inputs like the sequences of the PSA/LCS benchmarks or
    spatially varying PDE coefficients.  Symbolic calls build
    :class:`ConstArrayRead` nodes whose subscripts may be any affine index
    expression (they are read-only, so no home-cell discipline applies).
    """

    def __init__(self, name: str, values: np.ndarray):
        if not name.isidentifier():
            raise SpecificationError(f"array name must be an identifier: {name!r}")
        self.name = name
        self.values = np.asarray(values, dtype=np.float64)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.values.shape

    def __call__(self, *indices: object) -> ConstArrayRead | float:
        if len(indices) != self.values.ndim:
            raise KernelError(
                f"{self.name} is {self.values.ndim}-D, got {len(indices)} subscripts"
            )
        if not _is_symbolic(indices):
            return float(self.values[tuple(int(i) for i in indices)])
        return ConstArrayRead(
            self.name, tuple(as_affine(i) for i in indices)  # type: ignore[arg-type]
        )

    def read(self, indices: tuple[int, ...]) -> float:
        """Concrete read with *clamped* indices.

        Const-array subscripts are clamped into range in every backend,
        because ``where``-guarded kernels evaluate both branches under
        vectorized execution; clamping makes a guarded out-of-range
        subscript well-defined (and identical) everywhere.
        """
        clamped = tuple(
            min(max(i, 0), n - 1) for i, n in zip(indices, self.values.shape)
        )
        return float(self.values[clamped])

    def __repr__(self) -> str:
        return f"ConstArray({self.name!r}, shape={self.values.shape})"
