"""Decomposition plans: Seq/Par trees (or streams) over base-case regions.

A walker (:mod:`repro.trap.walker`) turns a zoid into a :class:`PlanNode`
tree whose leaves are :class:`BaseRegion` objects.  The tree encodes the
exact dependency structure of the recursion:

* ``Seq`` children must run in order (time cuts; dependency levels of a
  hyperspace cut);
* ``Par`` children are mutually independent (one dependency level —
  Lemma 1 guarantees same-level subzoids form an antichain).

The same structure also exists as a flat *event stream* (the generator
path): ``("open", kind)`` / ``("close", kind)`` bracket a Seq or Par
group, ``("base", region)`` emits a leaf.  :func:`plan_events` flattens a
tree into events and :func:`plan_from_events` folds events back into a
tree; :func:`repro.trap.walker.decompose_events` produces the stream
directly so huge plans never materialize.

Two scheduling-facing flattenings exist:

* :func:`linearize_waves` — *waves*: a list of lists of base regions such
  that every dependency of wave ``i`` lives in a wave ``< i``.  Waves are
  the "k+1 parallel steps" analysis model of Lemma 1, simulated with
  barriers between them by :func:`repro.runtime.scheduler.simulate_greedy`.
  Merging Par branches wave-by-wave is safe exactly because Par children
  are independent, but a barrier serializes each wave behind its slowest
  zoid.
* :func:`dependency_graph` — the *task DAG*: per-base-region predecessor
  counts and successor lists derived from the Seq/Par structure (built by
  :mod:`repro.trap.graph`).  A Seq boundary orders only the *sinks* of
  one child before the *sources* of the next, so independent subtrees
  overlap freely; this is the no-barrier schedule the ready-queue
  executor (``executor="dag"``) runs, the closest analogue of the paper's
  Cilk work-stealing execution of the spawn tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.trap.zoid import DimExtent, Zoid

if TYPE_CHECKING:  # pragma: no cover
    from repro.trap.graph import TaskGraph

#: One element of the flat plan-event stream: ``("base", BaseRegion)``,
#: ``("open", "seq"|"par")`` or ``("close", "seq"|"par")``.
PlanEvent = tuple


#: The recursion parameters a subtree task carries so its executor can
#: reproduce the walk below it: (slopes, effective space thresholds,
#: dt threshold, hyperspace flag, walk threads).  Protected dimensions
#: are encoded as a huge threshold (never cuttable), so no separate
#: protect flags ride along.  ``walk_threads`` is the compiled walk's
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
    its root only.  Its executor either hands the zoid to the backend's
    compiled ``walk_subtree`` clone (one GIL-released call runs every
    cut, interior test and leaf below it) or, when that clone cannot
    take it, re-runs the Python walk with the carried :data:`WalkParams`
    — bitwise the same either way.
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


@dataclass(frozen=True, slots=True)
class PlanNode:
    """A node of the decomposition tree (see module docstring)."""

    kind: str  # 'base' | 'seq' | 'par'
    region: BaseRegion | None = None
    children: tuple["PlanNode", ...] = ()

    @staticmethod
    def base(region: BaseRegion) -> "PlanNode":
        return PlanNode(kind="base", region=region)

    @staticmethod
    def seq(children: Sequence["PlanNode"]) -> "PlanNode":
        children = tuple(children)
        if len(children) == 1:
            return children[0]
        return PlanNode(kind="seq", children=children)

    @staticmethod
    def par(children: Sequence["PlanNode"]) -> "PlanNode":
        children = tuple(children)
        if len(children) == 1:
            return children[0]
        return PlanNode(kind="par", children=children)


def iter_base_serial(plan: PlanNode) -> Iterator[BaseRegion]:
    """Base regions in valid serial (depth-first) order.

    This is the order the serial executor and the cache-trace generator
    use; Par children are visited left to right, which is one valid
    serialization of an antichain.
    """
    stack = [plan]
    while stack:
        node = stack.pop()
        if node.kind == "base":
            assert node.region is not None
            yield node.region
        else:
            stack.extend(reversed(node.children))


def plan_events(plan: PlanNode) -> Iterator[PlanEvent]:
    """Flatten a plan tree into the event stream (module docstring).

    Inverse of :func:`plan_from_events`; produces the exact stream the
    walker's generator path would have produced for the same geometry.
    """
    # Explicit stack: plan trees nest ~(log T + d log N) Seq/Par groups,
    # and callers may already be deep in recursive walkers.
    stack: list[PlanEvent | PlanNode] = [plan]
    while stack:
        item = stack.pop()
        if not isinstance(item, PlanNode):
            yield item
            continue
        if item.kind == "base":
            assert item.region is not None
            yield ("base", item.region)
        else:
            yield ("open", item.kind)
            stack.append(("close", item.kind))
            stack.extend(reversed(item.children))


def plan_from_events(events: Iterable[PlanEvent]) -> PlanNode:
    """Fold an event stream back into a materialized plan tree."""
    stack: list[tuple[str, list[PlanNode]]] = []
    root: PlanNode | None = None
    for event in events:
        tag = event[0]
        if tag == "open":
            stack.append((event[1], []))
            continue
        if tag == "base":
            node = PlanNode.base(event[1])
        elif tag == "close":
            if not stack or stack[-1][0] != event[1]:
                raise ExecutionError(f"unbalanced plan event {event!r}")
            kind, children = stack.pop()
            if not children:
                raise ExecutionError(f"empty {kind!r} group in event stream")
            node = (
                PlanNode.seq(children) if kind == "seq" else PlanNode.par(children)
            )
        else:
            raise ExecutionError(f"unknown plan event {event!r}")
        if stack:
            stack[-1][1].append(node)
        elif root is None:
            root = node
        else:
            raise ExecutionError("plan event stream has multiple roots")
    if root is None or stack:
        raise ExecutionError("truncated plan event stream")
    return root


def iter_base_events(events: Iterable[PlanEvent]) -> Iterator[BaseRegion]:
    """Base regions of an event stream in valid serial (depth-first) order.

    The streaming counterpart of :func:`iter_base_serial`: the serial
    executor runs directly off this, so no tree is ever materialized.
    """
    for event in events:
        if event[0] == "base":
            yield event[1]


def dependency_graph(plan: PlanNode) -> "TaskGraph":
    """Per-base-region dependency edges of a plan: predecessor counts plus
    successor lists (a :class:`repro.trap.graph.TaskGraph`).

    A Seq node contributes edges from the sinks of each child to the
    sources of the next; Par children contribute none.  This is the exact
    dependency structure the tree encodes — strictly weaker than the
    barrier-wave order, which is what the DAG executor exploits.
    """
    from repro.trap.graph import build_task_graph

    return build_task_graph(plan_events(plan))


def linearize_waves(plan: PlanNode) -> list[list[BaseRegion]]:
    """Flatten a plan into dependency-respecting waves (module docstring)."""
    if plan.kind == "base":
        assert plan.region is not None
        return [[plan.region]]
    if plan.kind == "seq":
        waves: list[list[BaseRegion]] = []
        for child in plan.children:
            waves.extend(linearize_waves(child))
        return waves
    if plan.kind == "par":
        child_waves = [linearize_waves(c) for c in plan.children]
        depth = max((len(w) for w in child_waves), default=0)
        merged: list[list[BaseRegion]] = [[] for _ in range(depth)]
        for waves in child_waves:
            for i, wave in enumerate(waves):
                merged[i].extend(wave)
        return merged
    raise ExecutionError(f"unknown plan node kind {plan.kind!r}")


@dataclass
class PlanStats:
    """Aggregate statistics of a decomposition (RunReport feed)."""

    base_cases: int = 0
    interior_base_cases: int = 0
    boundary_base_cases: int = 0
    #: How many of the tasks are compiled-walk subtree tasks (each one
    #: stands for a whole subtree of the recursion).
    subtree_tasks: int = 0
    seq_nodes: int = 0
    par_nodes: int = 0
    max_par_width: int = 0
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
    """Accumulate :class:`PlanStats` from a region stream (no tree needed;
    Seq/Par node counts stay zero)."""
    stats = PlanStats()
    for region in regions:
        stats.note_region(region)
    return stats


def plan_stats(plan: PlanNode) -> PlanStats:
    """Walk a plan and collect :class:`PlanStats`."""
    stats = PlanStats()
    stack = [plan]
    while stack:
        node = stack.pop()
        if node.kind == "base":
            assert node.region is not None
            stats.note_region(node.region)
        elif node.kind == "seq":
            stats.seq_nodes += 1
            stack.extend(node.children)
        elif node.kind == "par":
            stats.par_nodes += 1
            stats.max_par_width = max(stats.max_par_width, len(node.children))
            stack.extend(node.children)
        else:
            raise ExecutionError(f"unknown plan node kind {node.kind!r}")
    return stats


def map_base_regions(
    plan: PlanNode, fn: Callable[[BaseRegion], BaseRegion]
) -> PlanNode:
    """Rebuild a plan with every base region transformed by ``fn``."""
    if plan.kind == "base":
        assert plan.region is not None
        return PlanNode.base(fn(plan.region))
    children = tuple(map_base_regions(c, fn) for c in plan.children)
    return PlanNode(kind=plan.kind, children=children)
