"""Serial-order access-trace generation for cache simulation.

The trace engine replays an execution — TRAP/STRAP plan or the loop
baseline — in its exact serial order, emitting one contiguous range
access per (kernel shape cell x grid row), which is precisely the memory
behaviour of the compiled kernels (reads walk the unit-stride dimension
contiguously for every stencil term; writes walk the home row).

Off-domain read coordinates are reduced modulo the grid, i.e. the trace
models the periodic layout for boundary rows regardless of boundary kind;
boundary rows are an O(surface/volume) fraction of the trace and Dirichlet
fills touch *less* memory than wrap-around, so this over-approximation is
conservative and does not affect the miss-ratio ordering Figure 10
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from repro.cachesim.ideal_cache import IdealCache
from repro.expr.analysis import kernel_accesses
from repro.language.stencil import Problem
from repro.trap.plan import BaseRegion, PlanEvent, iter_base_events


@dataclass
class CacheStats:
    """Result of one simulated execution."""

    refs: int
    misses: int
    points: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.refs if self.refs else 0.0

    @property
    def misses_per_point(self) -> float:
        return self.misses / self.points if self.points else 0.0


@dataclass(frozen=True)
class _ArrayLayout:
    base: int
    slots: int
    sizes: tuple[int, ...]
    strides: tuple[int, ...]
    spatial: int


def _layouts(problem: Problem) -> dict[str, _ArrayLayout]:
    layouts: dict[str, _ArrayLayout] = {}
    offset = 0
    for name in sorted(problem.arrays):
        arr = problem.arrays[name]
        slot_stride, *strides = arr.strides_points()
        layouts[name] = _ArrayLayout(
            base=offset,
            slots=arr.slots,
            sizes=arr.sizes,
            strides=tuple(strides),
            spatial=slot_stride,
        )
        offset += arr.total_points
    return layouts


@dataclass(frozen=True)
class _Cell:
    """One access pattern: (array layout, dt, spatial offsets)."""

    name: str
    dt: int
    offsets: tuple[int, ...]


def _kernel_cells(problem: Problem) -> list[_Cell]:
    summary = kernel_accesses(problem.statements)
    cells: list[_Cell] = []
    for name, reads in summary.reads.items():
        for dt, offs in sorted(reads):
            cells.append(_Cell(name, dt, offs))
    for name in summary.writes:
        cells.append(_Cell(name, 0, (0,) * problem.ndim))
    return cells


def _trace_box(
    cache: IdealCache,
    layouts: dict[str, _ArrayLayout],
    cells: list[_Cell],
    t: int,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
) -> int:
    """Trace one time step over one box; returns points updated."""
    d = len(lo)
    lens = [h - l for l, h in zip(lo, hi)]
    if any(n <= 0 for n in lens):
        return 0
    row_len = lens[-1]
    outer_ranges = [range(l, h) for l, h in zip(lo[:-1], hi[:-1])]
    points = row_len
    for n in lens[:-1]:
        points *= n
    for outer in product(*outer_ranges):
        for cell in cells:
            lay = layouts[cell.name]
            slot = (t + cell.dt) % lay.slots
            addr = lay.base + slot * lay.spatial
            for i, o in enumerate(outer):
                addr += ((o + cell.offsets[i]) % lay.sizes[i]) * lay.strides[i]
            start_last = (lo[-1] + cell.offsets[-1]) % lay.sizes[-1]
            # Split a row segment that wraps the unit-stride dimension.
            n_last = lay.sizes[-1]
            if start_last + row_len <= n_last:
                cache.access_range(addr + start_last, row_len)
            else:
                head = n_last - start_last
                cache.access_range(addr + start_last, head)
                cache.access_range(addr, row_len - head)
    return points


def iter_region_steps(
    region: BaseRegion,
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Yield (t, lo, hi) boxes of a base region, slopes applied per step."""
    lo = [xa for xa, _, _, _ in region.dims]
    hi = [xb for _, xb, _, _ in region.dims]
    for t in range(region.ta, region.tb):
        yield t, tuple(lo), tuple(hi)
        for i, (_, _, dxa, dxb) in enumerate(region.dims):
            lo[i] += dxa
            hi[i] += dxb


def simulate_plan_cache(
    problem: Problem,
    events: Iterable[PlanEvent],
    *,
    capacity_points: int,
    line_points: int,
) -> CacheStats:
    """Simulate the serial execution of a TRAP/STRAP plan's events."""
    cache = IdealCache(capacity_points, line_points)
    layouts = _layouts(problem)
    cells = _kernel_cells(problem)
    points = 0
    for region in iter_base_events(events):
        for t, lo, hi in iter_region_steps(region):
            points += _trace_box(cache, layouts, cells, t, lo, hi)
    return CacheStats(refs=cache.refs, misses=cache.misses, points=points)


def simulate_loops_cache(
    problem: Problem,
    *,
    capacity_points: int,
    line_points: int,
) -> CacheStats:
    """Simulate the loop baseline: one full-grid sweep per time step."""
    cache = IdealCache(capacity_points, line_points)
    layouts = _layouts(problem)
    cells = _kernel_cells(problem)
    zero = (0,) * problem.ndim
    points = 0
    for t in range(problem.t_start, problem.t_end):
        points += _trace_box(cache, layouts, cells, t, zero, problem.sizes)
    return CacheStats(refs=cache.refs, misses=cache.misses, points=points)
