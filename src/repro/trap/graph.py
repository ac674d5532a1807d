"""Task DAGs over base-case regions: the no-barrier dependency structure.

Lemma 1 analyses a plan as "k+1 parallel steps": global fronts
separated by barriers, each front waiting for its slowest zoid (the
wave model of :func:`repro.trap.plan.linearize_waves`).  The paper's
Cilk runtime has no such barriers — it executes the
spawn tree greedily, and a subzoid becomes runnable the instant its
*actual* predecessors finish.  :class:`TaskGraph` captures exactly those
predecessors, derived from the Seq/Par structure:

* a ``Par`` group adds no edges (Lemma 1's antichain);
* a ``Seq`` group orders only the *sinks* of each child (regions with no
  successor inside the child) before the *sources* of the next child
  (regions with no predecessor inside it).  Every other region of the
  earlier child reaches a sink, and every region of the later child is
  reached from a source, so the full child-before-child order follows
  transitively — with O(frontier) edges instead of O(n^2).

When a sink frontier is wide (the Seq of two wide Par groups), a
synthetic zero-cost *join* node contracts it — ``sinks -> join`` — so
the next child's sources attach to one node instead of the whole
frontier: ``|sinks| + |sources|`` edges instead of their product.  Join
nodes carry ``region=None`` and complete instantly; executors and
simulators propagate through them without occupying a worker.  The
contraction happens when the next child's first event arrives — after
the frontier exists, before any downstream node — which keeps every edge
pointing forward in id order.

The builder is incremental: it consumes the flat event stream of
:mod:`repro.trap.plan` (produced lazily by
:func:`repro.trap.walker.decompose_events`), so the PlanNode tree never
needs to exist — only the graph's flat integer arrays.  Because events
arrive in depth-first order, every edge points from a lower node id to a
higher one; node-id order is therefore always a valid serial schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import ExecutionError
from repro.trap.plan import BaseRegion, PlanEvent


@dataclass
class TaskGraph:
    """Dependency-counted task DAG over base regions (module docstring).

    ``regions[i]`` is the base region of node ``i``, or ``None`` for a
    synthetic join node.  ``npred[i]`` is the number of direct
    predecessors; ``succs[i]`` the direct successor ids.  All edges point
    forward in id order.
    """

    regions: list[BaseRegion | None] = field(default_factory=list)
    npred: list[int] = field(default_factory=list)
    succs: list[list[int]] = field(default_factory=list)
    #: Number of real (region-carrying) tasks.
    n_tasks: int = 0

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def n_joins(self) -> int:
        return len(self.regions) - self.n_tasks

    @property
    def n_subtree_tasks(self) -> int:
        """Tasks that are whole compiled-walk subtrees (coarse plans
        schedule far fewer, far bigger nodes — benches and tests read
        this to confirm granularity actually changed)."""
        return sum(1 for r in self.regions if r is not None and r.walk is not None)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.succs)

    def sources(self) -> list[int]:
        """Node ids with no predecessors (immediately runnable)."""
        return [i for i, n in enumerate(self.npred) if n == 0]

    def iter_regions(self) -> Iterator[BaseRegion]:
        """Real regions in node-id (valid serial) order."""
        for region in self.regions:
            if region is not None:
                yield region

    # -- dependency propagation (shared by executor and simulators) --------
    def resolve_zero(self, nid: int, npred: list[int], on_ready) -> None:
        """Handle ``npred[nid]`` reaching zero: a real node is handed to
        ``on_ready``; a zero-cost join completes instantly and propagates
        to its successors.  Single-sourced so the ready-queue executor
        and the schedule simulators can never disagree on join
        semantics."""
        if self.regions[nid] is None:
            for s in self.succs[nid]:
                npred[s] -= 1
                if npred[s] == 0:
                    self.resolve_zero(s, npred, on_ready)
        else:
            on_ready(nid)

    def complete(self, nid: int, npred: list[int], on_ready) -> None:
        """Decrement successors after ``nid`` finishes, routing newly
        unblocked nodes through :meth:`resolve_zero`."""
        for s in self.succs[nid]:
            npred[s] -= 1
            if npred[s] == 0:
                self.resolve_zero(s, npred, on_ready)

    def seed_ready(self, npred: list[int], on_ready) -> None:
        """Release every initially-unblocked node."""
        for nid, n in enumerate(npred):
            if n == 0:
                self.resolve_zero(nid, npred, on_ready)

    def validate(self) -> None:
        """Check structural invariants (tests and debugging)."""
        indeg = [0] * len(self.regions)
        for u, succ in enumerate(self.succs):
            for v in succ:
                if not u < v < len(self.regions):
                    raise ExecutionError(f"edge {u}->{v} is not forward")
                indeg[v] += 1
        if indeg != self.npred:
            raise ExecutionError("npred inconsistent with successor lists")


class _Frame:
    """One open Seq/Par group while folding the event stream."""

    __slots__ = ("kind", "sources", "sinks", "prev_sinks")

    def __init__(self, kind: str):
        self.kind = kind
        # Seq: sources of the first child; Par: union over children.
        self.sources: list[int] = []
        # Par: union of child sinks (unused for Seq).
        self.sinks: list[int] = []
        # Seq: sinks of the most recent child.
        self.prev_sinks: list[int] = []


class TaskGraphBuilder:
    """Incrementally fold plan events into a :class:`TaskGraph`.

    Feed events with :meth:`feed` (or all at once via
    :func:`build_task_graph`); call :meth:`finish` when the stream ends.
    """

    def __init__(self) -> None:
        self.graph = TaskGraph()
        self._stack: list[_Frame] = []
        self._done = False

    # -- graph mutation ------------------------------------------------------
    def _new_node(self, region: BaseRegion | None) -> int:
        g = self.graph
        nid = len(g.regions)
        g.regions.append(region)
        g.npred.append(0)
        g.succs.append([])
        if region is not None:
            g.n_tasks += 1
        return nid

    def _edge(self, u: int, v: int) -> None:
        self.graph.succs[u].append(v)
        self.graph.npred[v] += 1

    #: Sink frontiers wider than this are contracted through a join node
    #: when stored, bounding the edges per Seq boundary to
    #: ``JOIN_FANIN * |sources| + |sinks|``.
    JOIN_FANIN = 4

    def _contract(self, sinks: list[int]) -> list[int]:
        """Collapse a wide sink frontier through a join node.

        Runs when the next Seq child's first event arrives — after the
        frontier exists but before any downstream node — so the join's
        outgoing edges stay forward in id order, and the final child of a
        Seq (whose sinks face no further sibling) never pays for one.
        """
        if len(sinks) <= self.JOIN_FANIN:
            return sinks
        join = self._new_node(None)
        for u in sinks:
            self._edge(u, join)
        return [join]

    # -- event folding -------------------------------------------------------
    def _deliver(self, sources: list[int], sinks: list[int]) -> None:
        """Hand a completed child subtree's frontier to the open group."""
        if not self._stack:
            if self._done:
                raise ExecutionError("plan event stream has multiple roots")
            self._done = True
            return
        frame = self._stack[-1]
        if frame.kind == "par":
            frame.sources.extend(sources)
            frame.sinks.extend(sinks)
        else:  # seq
            if frame.prev_sinks:
                for u in frame.prev_sinks:
                    for v in sources:
                        self._edge(u, v)
            else:
                frame.sources = sources
            frame.prev_sinks = sinks

    def feed(self, event: PlanEvent) -> None:
        tag = event[0]
        if tag in ("base", "open"):
            # A new child of the innermost group is starting: now is the
            # last moment the previous child's sink frontier can be
            # contracted with forward edges only.
            if self._stack:
                frame = self._stack[-1]
                if frame.kind == "seq" and frame.prev_sinks:
                    frame.prev_sinks = self._contract(frame.prev_sinks)
        if tag == "base":
            nid = self._new_node(event[1])
            self._deliver([nid], [nid])
        elif tag == "open":
            if self._done:
                raise ExecutionError("plan event stream has multiple roots")
            self._stack.append(_Frame(event[1]))
        elif tag == "close":
            if not self._stack or self._stack[-1].kind != event[1]:
                raise ExecutionError(f"unbalanced plan event {event!r}")
            frame = self._stack.pop()
            if frame.kind == "par":
                self._deliver(frame.sources, frame.sinks)
            else:
                if not frame.prev_sinks:
                    raise ExecutionError("empty 'seq' group in event stream")
                self._deliver(frame.sources, frame.prev_sinks)
        else:
            raise ExecutionError(f"unknown plan event {event!r}")

    def finish(self) -> TaskGraph:
        if self._stack or not self._done:
            raise ExecutionError("truncated plan event stream")
        return self.graph


def build_task_graph(events: Iterable[PlanEvent]) -> TaskGraph:
    """Fold a plan event stream into a :class:`TaskGraph`."""
    builder = TaskGraphBuilder()
    for event in events:
        builder.feed(event)
    return builder.finish()


def critical_path_lengths(graph: TaskGraph) -> list[float]:
    """Per-node *bottom level*: the node's cost plus the heaviest cost of
    any downstream path (joins cost nothing).  Computed in one reverse
    pass — edges always point forward in id order.  List schedulers use
    this as the task priority (longest-critical-path-first)."""
    n = len(graph.regions)
    bl = [0.0] * n
    for u in range(n - 1, -1, -1):
        region = graph.regions[u]
        tail = max((bl[v] for v in graph.succs[u]), default=0.0)
        bl[u] = (float(region.volume()) if region is not None else 0.0) + tail
    return bl
