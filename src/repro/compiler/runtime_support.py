"""Runtime helpers called from generated NumPy kernel code.

The generated ``split_pointer`` boundary clones gather neighbor values
with fancy indexing; these helpers implement the three gather flavors
(index-remap, masked-fill, const-array) so the generated source stays
small and the tricky broadcasting logic lives in tested library code.
"""

from __future__ import annotations

import struct
import threading
from itertools import product
from typing import Callable, Sequence

import numpy as np


def f64(bits: int) -> float:
    """The double whose IEEE-754 bit pattern is ``bits``."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class ScratchPool:
    """A pool of reusable scratch buffers for three-address kernel code.

    Generated clones bind ``T{k} = POOL.view(k, shape, dtype)`` once per
    time step and target every ufunc at those views (``out=``), so a leaf
    invocation performs O(pool slots) allocations instead of one fresh
    temporary per expression node per step.  Slot ``k`` always carries
    the same dtype (fixed at codegen time); capacity only grows, so a
    long run converges to zero allocations.
    """

    __slots__ = ("_bufs", "_min_size")

    def __init__(self) -> None:
        self._bufs: dict[int, np.ndarray] = {}
        self._min_size = 0

    def require(self, size: int) -> None:
        """Pre-size future allocations: every slot allocated from now on
        holds at least ``size`` elements (fused leaves call this with the
        widest step of the trapezoid, so shrinking/growing bounds never
        reallocate mid-leaf)."""
        if size > self._min_size:
            self._min_size = size

    def view(self, slot: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        need = 1
        for n in shape:
            need *= n
        buf = self._bufs.get(slot)
        if buf is None or buf.size < need or buf.dtype != dtype:
            buf = np.empty(max(need, self._min_size), dtype=dtype)
            self._bufs[slot] = buf
        return buf[:need].reshape(shape)


class LocalPools:
    """Per-thread :class:`ScratchPool` factory.

    One instance serves each loaded clone and every binding of it;
    parallel executors and concurrent runs call the same clone code from
    many threads, so the scratch buffers must be thread-local."""

    __slots__ = ("_local",)

    def __init__(self) -> None:
        self._local = threading.local()

    def get(self) -> ScratchPool:
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = ScratchPool()
            self._local.pool = pool
        return pool


def _reshape_for_dim(a: np.ndarray, i: int, ndim: int) -> np.ndarray:
    """Reshape a 1-D per-dimension index array for outer-product
    broadcasting over an ndim-D region."""
    shape = [1] * ndim
    shape[i] = -1
    return a.reshape(shape)


def gather_remap(
    data: np.ndarray,
    slot: int,
    coords: Sequence[np.ndarray],
    modes: Sequence[str],
    sizes: Sequence[int],
) -> np.ndarray:
    """Gather with per-dimension coordinate remapping.

    ``coords[i]`` holds the absolute (possibly off-domain) read
    coordinates along dimension i; ``modes[i]`` is ``"mod"`` (periodic)
    or ``"clip"`` (Neumann clamp).
    """
    ndim = len(coords)
    idx = []
    for i, (c, mode, n) in enumerate(zip(coords, modes, sizes)):
        mapped = c % n if mode == "mod" else np.clip(c, 0, n - 1)
        idx.append(_reshape_for_dim(mapped, i, ndim))
    return data[(slot, *idx)]


def gather_fill(
    data: np.ndarray,
    slot: int,
    coords: Sequence[np.ndarray],
    sizes: Sequence[int],
    fill: float,
) -> np.ndarray:
    """Gather with a scalar fill for off-domain coordinates (Dirichlet)."""
    ndim = len(coords)
    idx = []
    mask: np.ndarray | None = None
    for i, (c, n) in enumerate(zip(coords, sizes)):
        in_range = _reshape_for_dim((c >= 0) & (c < n), i, ndim)
        clipped = _reshape_for_dim(np.clip(c, 0, n - 1), i, ndim)
        idx.append(clipped)
        mask = in_range if mask is None else (mask & in_range)
    values = data[(slot, *idx)]
    assert mask is not None
    return np.where(mask, values, fill)


def gather_const(
    values: np.ndarray, indices: Sequence[np.ndarray | int]
) -> np.ndarray:
    """Clamped gather from a read-only const array.

    ``indices`` are broadcastable integer arrays (or scalars), one per
    const-array dimension; each is clamped into range, matching the
    clamped semantics of :meth:`repro.language.array.ConstArray.read`.
    """
    clamped = []
    for ix, n in zip(indices, values.shape):
        clamped.append(np.clip(ix, 0, n - 1))
    broadcast = np.broadcast_arrays(*clamped) if len(clamped) > 1 else clamped
    return values[tuple(broadcast)]


def _wrap_blocks(lo: int, hi: int, n: int) -> list[tuple[slice, slice]]:
    """Partition the virtual range ``[lo, hi)`` into (dst, src) slice pairs
    of contiguous true-coordinate runs (coordinates reduced modulo ``n``).

    A range that wraps the periodic seam yields one pair per contiguous
    run; ranges wider than ``n`` repeat source runs (reads only).
    """
    out = []
    pos = lo
    while pos < hi:
        r = pos % n
        take = min(hi - pos, n - r)
        out.append((slice(pos - lo, pos - lo + take), slice(r, r + take)))
        pos += take
    return out


def _clip_blocks(lo: int, hi: int, n: int) -> list[tuple[slice, object]]:
    """(dst, src) pairs for the clamped range ``[lo, hi)``: a leading
    strip pinned to coordinate 0, the in-range middle, and a trailing
    strip pinned to ``n - 1``.  Strip sources are length-1 slices (they
    keep the dimension, so assignment broadcasts the edge slab)."""
    out: list[tuple[slice, slice]] = []
    if lo < 0:
        out.append((slice(0, min(hi, 0) - lo), slice(0, 1)))
    mid_lo, mid_hi = max(lo, 0), min(hi, n)
    if mid_lo < mid_hi:
        out.append((slice(mid_lo - lo, mid_hi - lo), slice(mid_lo, mid_hi)))
    if hi > n:
        out.append((slice(max(lo, n) - lo, hi - lo), slice(n - 1, n)))
    return out


def snapshot_remap(
    data: np.ndarray,
    slot: int,
    lo: Sequence[int],
    hi: Sequence[int],
    modes: Sequence[str],
    sizes: Sequence[int],
    out: np.ndarray,
) -> np.ndarray:
    """Assemble ``out`` as the remap-read of the virtual box [lo, hi).

    This is the blockwise (memcpy-speed) equivalent of one
    :func:`gather_remap` per stencil offset: the fused leaf snapshots each
    (array, time-offset) pair once per step and turns every neighbor read
    into a plain slice of the snapshot.  ``"mod"`` dimensions copy
    wrapped runs; ``"clip"`` dimensions replicate the edge slab into the
    out-of-range strips (caller guarantees the *home* range of a clip
    dimension is in-domain).
    """
    dim_blocks = [
        _wrap_blocks(l, h, n) if m == "mod" else _clip_blocks(l, h, n)
        for l, h, m, n in zip(lo, hi, modes, sizes)
    ]
    for combo in product(*dim_blocks):
        dst = tuple(c[0] for c in combo)
        src = tuple(c[1] for c in combo)
        out[dst] = data[(slot, *src)]
    return out


def snapshot_fill(
    data: np.ndarray,
    slot: int,
    lo: Sequence[int],
    hi: Sequence[int],
    sizes: Sequence[int],
    fill: float,
    out: np.ndarray,
) -> np.ndarray:
    """Assemble ``out`` as the fill-read of the box [lo, hi): in-range
    cells copy through, anything off-domain becomes ``fill`` (the
    blockwise equivalent of :func:`gather_fill` for an in-domain home
    box plus its halo)."""
    out[...] = fill
    dst = []
    src = []
    for l, h, n in zip(lo, hi, sizes):
        mid_lo, mid_hi = max(l, 0), min(h, n)
        if mid_lo >= mid_hi:
            return out
        dst.append(slice(mid_lo - l, mid_hi - l))
        src.append(slice(mid_lo, mid_hi))
    out[tuple(dst)] = data[(slot, *src)]
    return out


def scatter_box(
    data: np.ndarray,
    slot: int,
    lo: Sequence[int],
    hi: Sequence[int],
    sizes: Sequence[int],
    value: np.ndarray,
) -> None:
    """Blockwise wrapped write of ``value`` (shape ``hi - lo``) to the
    virtual box [lo, hi) — the slice-assignment equivalent of
    :func:`scatter_write` (zoid boxes never exceed one period, so the
    wrapped runs are disjoint)."""
    shape = tuple(h - l for l, h in zip(lo, hi))
    value = np.broadcast_to(np.asarray(value, dtype=data.dtype), shape)
    dim_blocks = [_wrap_blocks(l, h, n) for l, h, n in zip(lo, hi, sizes)]
    for combo in product(*dim_blocks):
        dst = tuple(c[1] for c in combo)
        src = tuple(c[0] for c in combo)
        data[(slot, *dst)] = value[src]


def scatter_write(
    data: np.ndarray,
    slot: int,
    coords: Sequence[np.ndarray],
    value: np.ndarray | float,
) -> None:
    """Scatter a region result to (possibly wrapped) true coordinates."""
    ndim = len(coords)
    idx = tuple(_reshape_for_dim(c, i, ndim) for i, c in enumerate(coords))
    shape = tuple(len(c) for c in coords)
    data[(slot, *idx)] = np.broadcast_to(np.asarray(value, dtype=data.dtype), shape)
