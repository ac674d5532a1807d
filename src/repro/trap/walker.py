"""The recursive TRAP/STRAP walkers: zoid in, plan-event stream out.

:func:`decompose_events` implements the control flow of Figure 2:
hyperspace cut if any dimension admits a parallel space cut, else time
cut, else base case — with base-case coarsening (Section 4) folded into
the cut thresholds.  STRAP (the Frigo–Strumpen-style comparison
algorithm of Section 3's analysis) is the same walker with
``hyperspace=False``: it cuts only the first cuttable dimension per
recursion step, so a cascade of k space cuts costs 2^k parallel steps
instead of k+1.

The walker is a generator: a depth-first stream of structure events
(see :mod:`repro.trap.plan`) that never materializes a tree.  The
serial executor and the task-DAG builder (:mod:`repro.trap.graph`) both
consume this stream, so huge plans run with O(frontier) memory instead
of O(plan); the analysis tools take it as ``list(events)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import SpecificationError
from repro.trap.coarsening import (
    NEVER_CUT,
    default_dt_threshold,
    default_space_thresholds,
)
from repro.trap.cuts import choose_cut, time_cut_children
from repro.trap.plan import BaseRegion, PlanEvent
from repro.trap.zoid import Zoid


@dataclass(frozen=True)
class WalkSpec:
    """Immutable problem geometry the walker needs.

    ``min_off`` / ``max_off`` are the per-dimension extreme *read* offsets
    of the stencil shape; they drive interior/boundary classification: a
    zoid is interior iff every read of every contained point stays inside
    the true grid, evaluated at the extreme time slices (extents are
    linear in t, so the endpoints suffice).
    """

    sizes: tuple[int, ...]
    slopes: tuple[int, ...]
    min_off: tuple[int, ...]
    max_off: tuple[int, ...]

    @property
    def ndim(self) -> int:
        return len(self.sizes)

    def is_interior(self, z: Zoid) -> bool:
        for t in (z.ta, z.tb - 1):
            for i, (lo, hi) in enumerate(z.bounds_at(t)):
                if lo + self.min_off[i] < 0:
                    return False
                if hi - 1 + self.max_off[i] > self.sizes[i] - 1:
                    return False
        return True


#: Compiled-walk grain: a zoid is handed to the compiled walker as one
#: subtree task once every spatial width fits within
#: ``WALK_GRAIN_SPACE`` coarsening thresholds and its height within
#: ``WALK_GRAIN_TIME`` time thresholds.  Each subtree then contains up
#: to ``WALK_GRAIN_SPACE^d * WALK_GRAIN_TIME`` base cases whose cuts and
#: leaf calls all run below Python — the dispatch reduction the
#: compiled-walk mode exists for — while zoids above the grain keep
#: decomposing in Python, so the task DAG still sees enough independent
#: tasks to feed its workers.  The time grain is deliberately much
#: taller than the space grain: time cuts are Seq-ordered (little
#: parallelism to lose by folding them into one task), while the space
#: grain is what bounds the DAG's independent-task supply (heat2d /
#: life / psa sweeps at the paper's thresholds: 4x16 matches 8x16 and
#: 16x32 within noise while keeping the spatial task count of 4x4).
WALK_GRAIN_SPACE = 4
WALK_GRAIN_TIME = 16


@dataclass(frozen=True)
class WalkOptions:
    """Decomposition tuning: coarsening thresholds and cut strategy.

    A dimension whose space threshold is :data:`NEVER_CUT` is never cut
    (the >=3D unit-stride default); the thresholds ride unchanged in the
    emitted :data:`WalkParams`.

    ``compiled_walk`` enables subtree-task planning: interior zoids that
    fit the walk grain are emitted as single atomic regions carrying
    their recursion parameters (see :class:`repro.trap.plan.BaseRegion`)
    instead of being decomposed here.  The driver turns it on only when
    the backend compiles a ``walk_subtree`` clone.  ``walk_boundary``
    extends it to boundary (and wrapped) zoids: the driver sets it when
    that clone classifies zoids itself and bottoms out in a C
    ``leaf_boundary``, i.e. when every boundary kind is C-expressible.

    ``walk_threads`` is the thread count the compiled walk runs with:
    above one, its embedded pthread pool takes same-level pieces; at one
    it starts no pool and runs every piece inline.  It rides along in
    the emitted :data:`WalkParams`, so tuned values apply per-plan
    without recompiling anything.
    """

    dt_threshold: int = 1
    space_thresholds: tuple[int, ...] = ()
    hyperspace: bool = True
    compiled_walk: bool = False
    walk_boundary: bool = False
    walk_threads: int = 1


def walk_spec_for(
    sizes: Sequence[int],
    slopes: Sequence[int],
    min_off: Sequence[int],
    max_off: Sequence[int],
) -> WalkSpec:
    sizes = tuple(int(s) for s in sizes)
    if any(s <= 0 for s in sizes):
        raise SpecificationError(f"grid sizes must be positive: {sizes}")
    return WalkSpec(
        sizes=sizes,
        slopes=tuple(int(s) for s in slopes),
        min_off=tuple(int(o) for o in min_off),
        max_off=tuple(int(o) for o in max_off),
    )


def default_options(
    ndim: int,
    sizes: Sequence[int],
    *,
    dt_threshold: int | None = None,
    space_thresholds: Sequence[int] | None = None,
    hyperspace: bool = True,
    codegen_mode: str | None = None,
    compiled_walk: bool = False,
    walk_boundary: bool = False,
    walk_threads: int = 1,
) -> WalkOptions:
    """Fill unset knobs with the Section-4 style coarsening heuristics.

    ``codegen_mode`` (the *resolved* backend, not ``"auto"``) selects the
    coarsening table tuned for the kernel that will run the base cases;
    explicit thresholds always win over either table, in every dimension.
    """
    if space_thresholds is None:
        space_thresholds = default_space_thresholds(ndim, sizes, codegen_mode)
    if dt_threshold is None:
        dt_threshold = default_dt_threshold(ndim, codegen_mode)
    st = tuple(int(s) for s in space_thresholds)
    if len(st) != ndim:
        raise SpecificationError(
            f"space_thresholds needs {ndim} entries, got {len(st)}"
        )
    return WalkOptions(
        dt_threshold=max(1, int(dt_threshold)),
        space_thresholds=st,
        hyperspace=hyperspace,
        compiled_walk=bool(compiled_walk),
        walk_boundary=bool(walk_boundary),
        walk_threads=max(1, int(walk_threads)),
    )


def decompose_events(
    z: Zoid, spec: WalkSpec, opts: WalkOptions
) -> Iterator[PlanEvent]:
    """Stream the decomposition of ``z`` as plan events (generator path).

    Yields the event vocabulary of :mod:`repro.trap.plan` in depth-first
    order without building any tree nodes.  A Seq or Par group with a
    single child is never opened: the child's events stand alone.

    Interior/boundary classification is *inherited*: all subzoids of an
    interior zoid are interior (the observation Section 4 exploits), so
    the predicate is evaluated once per interior subtree, not per leaf.
    """
    return _events(z, spec, opts, known_interior=False)


def _fits_walk_grain(z: Zoid, spec: WalkSpec, opts: WalkOptions) -> bool:
    """Is ``z`` small enough to hand to the compiled walker whole?

    The subtree must fit the walk grain (a few coarsening thresholds per
    axis — see :data:`WALK_GRAIN_SPACE`), and no dimension may qualify
    for a *circular* cut anywhere below it: the compiled walker
    implements trisection and time cuts only.  A full-circumference
    flat extent is where a circular cut applies, but only a dimension
    wider than its threshold is ever cut, and such an extent keeps its
    width below this zoid — so :data:`NEVER_CUT` dimensions and narrow
    ones are exempt, and a >=3D zoid spanning its whole unit-stride row
    can still be delegated.  Interior zoids never span a circumference,
    so the guard only ever rejects boundary zoids.
    """
    if z.height > WALK_GRAIN_TIME * max(1, opts.dt_threshold):
        return False
    thresholds = opts.space_thresholds
    for i in range(z.ndim):
        if z.width(i) > WALK_GRAIN_SPACE * max(1, thresholds[i]):
            return False
    for i, (xa, xb, dxa, dxb) in enumerate(z.dims):
        if (
            spec.slopes[i] > 0
            and (xb - xa) == spec.sizes[i]
            and dxa == 0
            and dxb == 0
            and z.width(i) > thresholds[i]
        ):
            return False
    return True


def _events(
    z: Zoid, spec: WalkSpec, opts: WalkOptions, known_interior: bool
) -> Iterator[PlanEvent]:
    interior = known_interior or spec.is_interior(z)
    decision = choose_cut(
        z,
        sizes=spec.sizes,
        slopes=spec.slopes,
        space_thresholds=opts.space_thresholds,
        dt_threshold=opts.dt_threshold,
        hyperspace=opts.hyperspace,
    )
    if (
        decision.kind != "base"
        and opts.compiled_walk
        and (interior or opts.walk_boundary)
        and _fits_walk_grain(z, spec, opts)
    ):
        # A whole subtree becomes one atomic task; the recursion below
        # it (interior classification included) runs inside the
        # compiled walk clone, from these params.  A zoid that is already a base case stays a
        # plain region — one leaf call needs no recursion.
        yield (
            "base",
            BaseRegion(
                ta=z.ta,
                tb=z.tb,
                dims=z.dims,
                interior=interior,
                walk=(
                    spec.slopes,
                    opts.space_thresholds,
                    opts.dt_threshold,
                    opts.hyperspace,
                    opts.walk_threads,
                ),
            ),
        )
        return
    if decision.kind == "base":
        yield ("base", BaseRegion(ta=z.ta, tb=z.tb, dims=z.dims, interior=interior))
        return
    if decision.kind == "time":
        lower, upper = time_cut_children(z, decision.tm)
        yield ("open", "seq")
        yield from _events(lower, spec, opts, interior)
        yield from _events(upper, spec, opts, interior)
        yield ("close", "seq")
        return
    # Hyperspace (or single, for STRAP) space cut: levels run in sequence,
    # zoids within one level in parallel (Lemma 1).
    levels = decision.levels
    if len(levels) == 1:
        yield from _level_events(levels[0], z, spec, opts, interior)
        return
    yield ("open", "seq")
    for level in levels:
        yield from _level_events(level, z, spec, opts, interior)
    yield ("close", "seq")


def _level_events(
    level: tuple[Zoid, ...],
    z: Zoid,
    spec: WalkSpec,
    opts: WalkOptions,
    interior: bool,
) -> Iterator[PlanEvent]:
    if len(level) == 1:
        yield from _events(level[0], spec, opts, interior)
        return
    yield ("open", "par")
    for sub in level:
        yield from _events(sub, spec, opts, interior)
    yield ("close", "par")
