"""Decomposition plans: a flat event stream over base-case regions.

A walker (:mod:`repro.trap.walker`) turns a zoid into a depth-first
stream of plan events: ``("open", kind)`` / ``("close", kind)`` bracket
a Seq or Par group, ``("base", region)`` emits a :class:`BaseRegion`.
The brackets encode the exact dependency structure of the recursion:

* ``Seq`` children must run in order (time cuts; dependency levels of a
  hyperspace cut);
* ``Par`` children are mutually independent (one dependency level —
  Lemma 1 guarantees same-level subzoids form an antichain).

The stream is the only plan representation.  The serial executor runs
it as it is produced, the task-DAG builder (:mod:`repro.trap.graph`)
folds it into per-region predecessor counts and successor lists, and
the analysis tools (schedule simulators, cache tracer) take it
materialized as ``list(events)``.

:func:`linearize_waves` flattens a plan into *waves*: a list of lists of
base regions such that every dependency of wave ``i`` lives in a wave
``< i``.  Waves are the "k+1 parallel steps" analysis model of Lemma 1,
simulated with barriers between them by
:func:`repro.runtime.scheduler.simulate_greedy`.  Merging Par branches
wave-by-wave is safe exactly because Par children are independent, but
a barrier serializes each wave behind its slowest zoid; the task DAG
orders only the sinks of one Seq child before the sources of the next,
the no-barrier schedule the ready-queue executor (``executor="dag"``)
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ExecutionError
from repro.trap.zoid import DimExtent, Zoid

#: One element of the flat plan-event stream: ``("base", BaseRegion)``,
#: ``("open", "seq"|"par")`` or ``("close", "seq"|"par")``.
PlanEvent = tuple


#: The recursion parameters a subtree task carries so its executor can
#: reproduce the walk below it: (slopes, space thresholds, dt threshold,
#: hyperspace flag, walk threads).  A dimension that is never cut carries
#: the huge threshold ``NEVER_CUT``.  ``walk_threads`` is the compiled walk's
#: thread count: above one, its in-.so pthread pool takes same-level
#: pieces.
WalkParams = tuple


@dataclass(frozen=True, slots=True)
class BaseRegion:
    """A base-case region: run the kernel over ``[ta, tb)`` steps on a box
    whose per-dim bounds shift by the zoid slopes each step.

    ``interior`` selects the fast kernel clone (no boundary checks); the
    boundary clone additionally reduces virtual coordinates modulo the
    grid size and resolves off-domain reads through boundary functions.

    ``walk`` marks a *subtree task* (compiled-walk planning): the region
    is not a coarsening base case but a whole subtree of the trapezoid
    recursion, scheduled as one atomic unit; ``interior`` then classifies
    its root only.  Its executor hands the zoid, with the carried
    :data:`WalkParams`, to the backend's compiled ``walk_subtree`` clone:
    one GIL-released call runs every cut, interior test and leaf below
    it.  The plan emits walk tasks only for a kernel whose walk can take
    them; a kernel that cannot raises
    :class:`~repro.errors.ExecutionError`.
    """

    ta: int
    tb: int
    dims: tuple[DimExtent, ...]
    interior: bool
    walk: WalkParams | None = None

    def zoid(self) -> Zoid:
        return Zoid(self.ta, self.tb, self.dims)

    def volume(self) -> int:
        return self.zoid().volume()


def iter_base_events(events: Iterable[PlanEvent]) -> Iterator[BaseRegion]:
    """Base regions of an event stream in valid serial (depth-first) order.

    Par children are visited left to right, one valid serialization of
    an antichain.  The serial executor runs directly off this.
    """
    for event in events:
        if event[0] == "base":
            yield event[1]


def linearize_waves(events: Iterable[PlanEvent]) -> list[list[BaseRegion]]:
    """Flatten a plan into dependency-respecting waves (module docstring).

    One pass over the events with a stack of per-group wave lists: a
    ``seq`` group concatenates its children's waves, a ``par`` group
    merges them index by index.
    """
    stack: list[tuple[str, list[list[BaseRegion]]]] = [("seq", [])]
    for event in events:
        tag = event[0]
        if tag == "open":
            stack.append((event[1], []))
            continue
        if tag == "base":
            child = [[event[1]]]
        elif tag == "close" and len(stack) > 1 and stack[-1][0] == event[1]:
            child = stack.pop()[1]
        else:
            raise ExecutionError(f"unbalanced plan event {event!r}")
        kind, waves = stack[-1]
        if kind == "seq":
            waves.extend(child)
        else:
            waves.extend([] for _ in range(len(child) - len(waves)))
            for i, wave in enumerate(child):
                waves[i].extend(wave)
    if len(stack) > 1:
        raise ExecutionError("truncated plan event stream")
    return stack[0][1]


@dataclass
class PlanStats:
    """Aggregate statistics of a decomposition (RunReport feed)."""

    base_cases: int = 0
    interior_base_cases: int = 0
    boundary_base_cases: int = 0
    #: How many of the tasks are compiled-walk subtree tasks (each one
    #: stands for a whole subtree of the recursion).
    subtree_tasks: int = 0
    points: int = 0

    @property
    def boundary_fraction(self) -> float:
        """Fraction of grid-point updates handled by the boundary clone —
        the quantity the code-cloning optimization (Section 4) drives
        toward zero as grids grow."""
        if self.points == 0:
            return 0.0
        return self.boundary_points / self.points

    boundary_points: int = 0

    def note_region(self, region: BaseRegion) -> None:
        """Fold one base region into the totals (streaming accumulation)."""
        self.base_cases += 1
        vol = region.volume()
        self.points += vol
        if region.walk is not None:
            self.subtree_tasks += 1
        if region.interior:
            self.interior_base_cases += 1
        else:
            self.boundary_base_cases += 1
            self.boundary_points += vol


def stats_from_regions(regions: Iterable[BaseRegion]) -> PlanStats:
    """Accumulate :class:`PlanStats` from a region stream."""
    stats = PlanStats()
    for region in regions:
        stats.note_region(region)
    return stats
