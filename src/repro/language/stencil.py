"""The Pochoir stencil object: registration, validation, and execution.

``Stencil`` is the paper's ``Pochoir_dimD`` object.  It holds the static
information — shape, registered arrays, boundary associations, scalar
parameters — and its :meth:`Stencil.run` drives Phase 2: kernel AST
validation, clone compilation (:mod:`repro.compiler`), trapezoidal
decomposition (:mod:`repro.trap`), and execution.

The time convention follows Section 2 exactly: for a shape of depth ``k``
the user initializes levels ``0 .. k-1``; ``run(T, kern)`` then computes
levels ``k .. T+k-1``, so results live at level ``T + k - 1``; a
subsequent ``run(T', kern)`` resumes from there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import SpecificationError
from repro.expr.analysis import validate_kernel
from repro.expr.nodes import Statement, py_float
from repro.language.array import ConstArray, PochoirArray
from repro.language.kernel import BuiltKernel, Kernel
from repro.language.shape import Shape

#: The concrete executors a run (or a tuned registry entry) may name;
#: ``RunOptions`` additionally accepts ``"auto"``.
EXECUTORS = ("serial", "dag", "procs")

#: The codegen modes a run (or a tuned registry entry) may name: the two
#: Phase-2 backends and ``"auto"``, which picks between them.
MODES = ("auto", "split_pointer", "c")

#: The decomposition algorithms a run may name.
ALGORITHMS = ("trap", "strap", "loops", "serial_loops")


@dataclass
class RunOptions:
    """Tuning knobs for Phase-2 execution.

    Phase 1, the checked template library, is not a run option: it is
    :func:`repro.language.phase1.run_phase1`.

    ``algorithm`` (one of :data:`ALGORITHMS`):
        ``"trap"`` — TRAP with hyperspace cuts (the paper's algorithm);
        ``"strap"`` — serial space cuts (Frigo–Strumpen style comparison);
        ``"loops"`` — the parallel-loop baseline of Figure 1;
        ``"serial_loops"`` — the serial loop baseline.
    ``mode`` (one of :data:`MODES`):
        kernel codegen: ``"split_pointer"`` (vectorized NumPy slice
        kernels — the ``-split-pointer`` analogue), ``"c"`` (generated C
        compiled with the system compiler: per-step *and* fused-leaf
        clones, invoked with the GIL released), or ``"auto"`` (the
        default: ``"c"`` when a C toolchain is found, else
        ``"split_pointer"`` with no degradation recorded; see
        ``pipeline.resolve_mode``).  Boundary kinds a backend cannot
        express run through the generated per-point boundary clone.
    ``dt_threshold`` / ``space_thresholds``:
        base-case coarsening (Section 4); ``None`` applies the backend's
        heuristics (>=3D never cuts the unit-stride dimension: its
        default threshold is ``walker.NEVER_CUT``).  Explicit thresholds
        mean what they say, in every dimension.
    ``executor``:
        ``"serial"`` (serial elision, streamed off the walker),
        ``"dag"`` (ready-queue task-DAG runtime on the shared thread pool),
        ``"procs"`` (the supervised out-of-process executor: worker
        subprocesses attach zero-copy views onto shared-memory grid
        segments and a driver-side supervisor enforces heartbeats, hang
        deadlines, crash detection, and block rollback+retry — a
        segfault in generated code kills a disposable worker, never the
        job; degrades to ``"dag"`` with a recorded note when shared
        memory or subprocess spawn is unavailable),
        or ``"auto"`` (the default: ``"procs"`` when ``supervise`` is
        set, else ``"dag"`` with ``n_workers > 1``, else ``"serial"``).
    ``supervise``:
        a :class:`repro.supervise.SuperviseOptions` tuning the
        supervised executor's policy (heartbeat cadence, task-deadline
        scaling, retry budget/backoff, start method).  Setting it
        implies ``executor="procs"`` when the executor is left at
        ``"auto"``; ``executor="procs"`` with ``supervise=None`` uses
        the defaults.  Ignored (harmlessly) by in-process executors.
    ``compiled_walk``:
        subtree-task planning over the compiled trapezoidal recursion,
        on (default) whenever the resolved codegen mode is ``"c"``: zoids
        that fit the walk grain are planned as single atomic tasks whose
        execution is one GIL-released C call running every cut, interior
        test and fused leaf below the subtree root — boundary zoids too,
        when every boundary kind compiles to C.  ``False`` plans per
        leaf; backends without a walk clone ignore the field.  Base
        cases always run through the backend's fused leaf clone when it
        has one (``CompiledKernel.without_fused_leaves`` is the per-step
        reference).
    ``walk_threads``:
        thread count of the compiled walk: above one, its embedded
        pthread pool runs the same-level hyperspace-cut pieces of each
        subtree task in parallel *inside* one GIL-released C call; ``1``
        starts no pool and runs every piece inline.  ``None`` (default)
        resolves to the detected available core count.  Values are
        bitwise-equivalent by construction, so this knob trades only
        time, never results.  Ignored (harmlessly) when no subtree task
        runs through the compiled walk.
    ``checkpoint``:
        a :class:`repro.resilience.CheckpointPolicy` makes the driver
        split the run into ``every_dt``-step blocks and durably
        checkpoint the live time window after each one (plus one
        in-memory rollback-and-retry per block on executor failure);
        ``None`` (default) runs the whole range in one block with no
        snapshots.
    ``resume_from``:
        restart a killed run mid-history: a checkpoint *directory* (the
        newest valid checkpoint for this problem wins; none found means
        a recorded cold start), a checkpoint *file* (damaged files fall
        back to the newest valid sibling), or a loaded
        :class:`repro.resilience.Checkpoint` from :func:`repro.resume`.
        The restored run recomputes exactly the remaining levels and
        finishes bitwise-identical to the uninterrupted run;
        ``RunReport.resumed_from`` records the first recomputed level.

    Fallback ladder (each rung leaves its tag in ``RunReport.degradations``):

    * ``pipeline.with_numpy_fallback``: C -> NumPy when cc is missing or
      fails or the ``.so`` will not load (``cc:compile-failed->split_pointer``).
    * ``batch.can_stack``: a group of K > 1 jobs -> one job at a time under
      a Python boundary or ``procs`` (``batch:unstackable->sequential``).
    """

    algorithm: str = "trap"
    mode: str = "auto"
    dt_threshold: int | None = None
    space_thresholds: tuple[int, ...] | None = None
    executor: str = "auto"
    n_workers: int | None = None
    compiled_walk: bool = True
    walk_threads: int | None = None
    checkpoint: object | None = None
    resume_from: object | None = None
    supervise: object | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise SpecificationError(
                f"unknown algorithm {self.algorithm!r}; choose from "
                f"{ALGORITHMS} (Phase 1 is run_phase1(stencil, steps, kernel))"
            )
        if self.mode not in MODES:
            raise SpecificationError(
                f"unknown mode {self.mode!r}; choose from {MODES}"
            )
        executors = ("auto",) + EXECUTORS
        if self.executor not in executors:
            raise SpecificationError(
                f"unknown executor {self.executor!r}; choose from {executors}"
            )
        if self.supervise is not None:
            from repro.supervise import SuperviseOptions

            if not isinstance(self.supervise, SuperviseOptions):
                raise SpecificationError(
                    f"supervise must be a SuperviseOptions or None, "
                    f"got {type(self.supervise).__name__}"
                )
        if self.n_workers is not None and self.n_workers < 1:
            raise SpecificationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.walk_threads is not None and self.walk_threads < 1:
            raise SpecificationError(
                f"walk_threads must be >= 1, got {self.walk_threads}"
            )
        if self.checkpoint is not None:
            from repro.resilience.checkpoint import CheckpointPolicy

            if not isinstance(self.checkpoint, CheckpointPolicy):
                raise SpecificationError(
                    f"checkpoint must be a CheckpointPolicy or None, "
                    f"got {type(self.checkpoint).__name__}"
                )

    def resolve_walk_threads(self) -> int:
        """Concrete thread count for the compiled walk's pthread pool.

        The single source of the ``None``-means-auto rule: the detected
        *available* core count (cgroup/affinity aware).  A walk whose
        pool cannot start runs every piece inline (and the run records
        the fallback), so over-asking is harmless.
        """
        if self.walk_threads is not None:
            return max(1, int(self.walk_threads))
        from repro.util import detect_cpu_count

        return max(1, detect_cpu_count())

    def resolve_executor(self) -> tuple[str, int]:
        """Concrete (executor, worker count) for this option set.

        ``"auto"`` picks the supervised out-of-process executor when
        ``supervise`` is set, else the task-DAG runtime whenever more
        than one worker is requested; with ``n_workers``
        unset the serial elision runs (parallel execution is opt-in via
        ``n_workers`` or ``supervise``).
        """
        from repro.trap.executor import default_workers

        executor = self.executor
        requested = self.n_workers
        if executor == "auto":
            if self.supervise is not None:
                executor = "procs"
            elif requested is not None and requested > 1:
                executor = "dag"
            else:
                executor = "serial"
        if executor == "serial":
            return executor, 1
        return executor, default_workers(requested)


@dataclass
class RunReport:
    """What a Phase-2 run did: timings, executor, and decomposition stats.

    ``elapsed`` covers decomposition + schedule construction + execution
    under one clock for every executor (the serial stream interleaves
    walking with running, so the parallel executors' plan/graph builds
    are included to keep the numbers comparable).  ``executor`` /
    ``n_workers`` record the *resolved* execution strategy (after
    ``"auto"`` dispatch); ``busy_time`` sums wall time the workers spent
    inside base-case kernels, so ``idle_fraction`` measures the
    scheduling overhead (barrier stalls, ready-queue contention,
    plan construction).

    ``degradations`` lists every graceful fallback that fired during
    the run (short stable tags, deduplicated, ordered by first firing):
    compiler fallbacks, ``.so``-cache evictions, checkpoint skips,
    executor retries.  Empty means the run took
    exactly the path it was asked for.  ``checkpoints_written`` counts
    durable snapshots taken under a ``checkpoint`` policy, and
    ``resumed_from`` is the first recomputed time level when the run
    restarted from a checkpoint (``None`` for a cold start).
    """

    algorithm: str
    mode: str
    t_start: int
    t_end: int
    elapsed: float = 0.0
    points_updated: int = 0
    base_cases: int = 0
    boundary_base_cases: int = 0
    interior_base_cases: int = 0
    #: Scheduled tasks that were whole compiled-walk subtrees (each one
    #: covers many would-be base cases).
    subtree_tasks: int = 0
    executor: str = "serial"
    n_workers: int = 1
    busy_time: float = 0.0
    #: Resolved thread count the compiled walk ran with (1 when no
    #: subtree task ran through it).
    walk_threads: int = 1
    #: Walk pool counters for this run (read from the C stats buffer
    #: bound for this run alone): tasks spawned into the pool,
    #: tasks executed by pool workers (vs. joins helping inline), and
    #: level barriers joined.  All zero at one walk thread.
    walk_spawned: int = 0
    walk_stolen: int = 0
    walk_barriers: int = 0
    #: Graceful fallbacks that fired during this run (stable tags,
    #: deduplicated, ordered by first firing); see the class docstring.
    degradations: list[str] = field(default_factory=list)
    #: Durable snapshots written under a ``checkpoint`` policy.
    checkpoints_written: int = 0
    #: First recomputed time level when resuming from a checkpoint.
    resumed_from: int | None = None
    #: Supervised-executor counters: worker subprocesses killed and
    #: replaced after a crash/hang (the whole worker set is respawned on
    #: any loss, so one crash among N workers counts N), and task
    #: dispatches whose effects were discarded by a block rollback and
    #: re-executed.  Both zero on a clean run and for in-process
    #: executors.
    workers_respawned: int = 0
    tasks_retried: int = 0
    #: Batch telemetry: seconds the job waited in the server's admission
    #: queue before its batch launched (0 for direct runs), and how many
    #: same-signature jobs shared the compiled dispatch that ran it.
    queue_wait: float = 0.0
    batch_size: int = 1
    #: Whether the run's ``c`` or ``split_pointer`` code was already
    #: loaded in this process by an earlier compile, local or served
    #: (False when it was built or loaded for this run, and after a
    #: C -> NumPy fallback).
    compile_cache_hit: bool = False
    #: Networked-serving telemetry (filled by :mod:`repro.serve.client`;
    #: defaults for local runs): which transport served the job
    #: (``"local"`` in-process, ``"tcp"`` over the framed socket
    #: protocol), how many wire attempts the client's retry loop made
    #: (1 = first try succeeded), and whether the response was served
    #: from the server's idempotent result journal instead of a fresh
    #: execution (a retry arrived after the job already ran).
    transport: str = "local"
    attempts: int = 1
    replayed: bool = False

    @property
    def points_per_second(self) -> float:
        return self.points_updated / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def idle_fraction(self) -> float:
        """Fraction of worker capacity spent not running kernels."""
        capacity = self.elapsed * self.n_workers
        if capacity <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_time / capacity)


@dataclass
class Problem:
    """Everything downstream stages need to run one stencil invocation.

    Produced by :meth:`Stencil.prepare`; consumed by the compiler, the
    walkers and the Phase-1 interpreter.  ``t_start``/``t_end`` are the
    absolute output levels to compute (``[t_start, t_end)``).
    """

    ndim: int
    sizes: tuple[int, ...]
    shape: Shape
    statements: tuple[Statement, ...]
    kernel_name: str
    arrays: dict[str, PochoirArray]
    const_arrays: dict[str, ConstArray]
    params: dict[str, float]
    t_start: int
    t_end: int
    #: :func:`problem_signature`, computed on first use.  A problem made
    #: with ``dataclasses.replace`` starts without it.
    _signature: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # The cached signature never travels: a receiver computes its own
        # from the problem it unpickled, so a forged one keys nothing.
        return {k: v for k, v in self.__dict__.items() if k != "_signature"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._signature = None

    @property
    def steps(self) -> int:
        return self.t_end - self.t_start

    @property
    def slopes(self) -> tuple[int, ...]:
        return self.shape.slopes

    @property
    def total_points(self) -> int:
        n = 1
        for s in self.sizes:
            n *= s
        return n * self.steps


class _Verbatim(str):
    """Text that reprs as itself: an exact float spelling placed in the
    signature material where ``repr`` of the float would go."""

    def __repr__(self) -> str:
        return str(self)


def problem_signature(problem: Problem) -> str:
    """The problem's identity: equal signatures mean the same generated
    code, the same tuning optimum, one batch and a resumable checkpoint.

    A digest of the ndim, grid sizes, shape cells, kernel statements,
    parameter values, and per-array metadata (dtype, depth, and
    :meth:`~repro.language.boundary.Boundary.describe`, which carries a
    boundary's values and modes) plus const-array shapes.  Every float
    is spelled exactly (:func:`~repro.expr.nodes.py_float`): ``-0.0``
    is not ``0.0``, and a NaN is its bit pattern.  Excludes
    ``t_start``/``t_end`` (a tune at one step count applies to any
    horizon), grid contents and const-array values.

    Computed once per :class:`Problem` and cached on it.
    """
    if problem._signature is None:
        problem._signature = _signature_digest(problem)
    return problem._signature


def _signature_digest(problem: Problem) -> str:
    arrays = sorted(
        (
            a.name,
            tuple(a.sizes),
            a.depth,
            str(a.data.dtype),
            a.boundary.describe() if a.boundary is not None else "none",
        )
        for a in problem.arrays.values()
    )
    consts = sorted(
        (c.name, tuple(c.sizes), str(c.values.dtype))
        for c in problem.const_arrays.values()
    )
    params = sorted((k, _Verbatim(py_float(v))) for k, v in problem.params.items())
    material = repr(
        (
            problem.ndim,
            tuple(problem.sizes),
            tuple(problem.shape.cells),
            tuple(problem.statements),
            arrays,
            consts,
            params,
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:32]


class Stencil:
    """The Pochoir object (see module docstring).

    >>> import numpy as np
    >>> from repro.language import PochoirArray, Kernel, PeriodicBoundary
    >>> u = PochoirArray("u", (16,)).register_boundary(PeriodicBoundary())
    >>> heat = Stencil(1)
    >>> _ = heat.register_array(u)
    >>> k = Kernel(1, lambda t, x: u(t+1, x) << 0.25*u(t, x-1)
    ...                            + 0.5*u(t, x) + 0.25*u(t, x+1))
    >>> u.set_initial(np.arange(16.0))
    >>> _ = heat.run(4, k)
    >>> u.snapshot(4).shape
    (16,)
    """

    def __init__(
        self,
        ndim: int,
        shape: Shape | Sequence[Sequence[int]] | None = None,
        *,
        name: str = "stencil",
    ):
        if ndim < 1:
            raise SpecificationError(f"stencil needs >= 1 dimension, got {ndim}")
        self.ndim = int(ndim)
        self.name = name
        if shape is not None and not isinstance(shape, Shape):
            shape = Shape.from_cells(shape)
        if shape is not None and shape.ndim != self.ndim:
            raise SpecificationError(
                f"shape is {shape.ndim}-D but stencil is {self.ndim}-D"
            )
        self.shape: Shape | None = shape
        self.arrays: dict[str, PochoirArray] = {}
        self.const_arrays: dict[str, ConstArray] = {}
        self.params: dict[str, float] = {}
        #: Last computed time level (None until the first run fixes depth).
        self.cursor: int | None = None

    # -- registration --------------------------------------------------------
    def register_array(self, array: PochoirArray) -> "Stencil":
        if array.ndim != self.ndim:
            raise SpecificationError(
                f"array {array.name!r} is {array.ndim}-D but stencil is "
                f"{self.ndim}-D"
            )
        if self.arrays and array.sizes != next(iter(self.arrays.values())).sizes:
            raise SpecificationError(
                f"all arrays of one stencil must share spatial sizes; "
                f"{array.name!r} has {array.sizes}"
            )
        if array.name in self.arrays:
            raise SpecificationError(f"array {array.name!r} registered twice")
        self.arrays[array.name] = array
        return self

    Register_Array = register_array

    def register_const_array(self, array: ConstArray) -> "Stencil":
        if array.name in self.const_arrays or array.name in self.arrays:
            raise SpecificationError(f"array name {array.name!r} already in use")
        self.const_arrays[array.name] = array
        return self

    def set_param(self, name: str, value: float) -> "Stencil":
        """Bind a scalar :class:`~repro.expr.nodes.Param` for future runs."""
        self.params[name] = float(value)
        return self

    @property
    def sizes(self) -> tuple[int, ...]:
        if not self.arrays:
            raise SpecificationError("no arrays registered")
        return next(iter(self.arrays.values())).sizes

    # -- preparation (shared by all execution paths) --------------------------
    def prepare(self, steps: int, kernel: Kernel) -> Problem:
        """Validate the kernel against this stencil; return the Problem.

        This is the Phase-2 static compliance check: it enforces the same
        rules the Phase-1 checked interpreter enforces dynamically, which
        is what makes the Pochoir Guarantee hold.  It is also where a
        grid enters a run, so every array's buffer must pass
        :meth:`PochoirArray.check_layout` here.
        """
        if steps < 0:
            raise SpecificationError(f"steps must be >= 0, got {steps}")
        if not self.arrays:
            raise SpecificationError("no arrays registered with this stencil")
        if kernel.ndim != self.ndim:
            raise SpecificationError(
                f"kernel {kernel.name!r} is {kernel.ndim}-D but stencil is "
                f"{self.ndim}-D"
            )
        built: BuiltKernel = kernel.build()
        summary = validate_kernel(
            built.statements,
            ndim=self.ndim,
            declared_cells=self.shape.cells if self.shape else None,
            known_arrays=self.arrays,
            known_const_arrays=self.const_arrays,
        )
        shape = self.shape or Shape.infer_from(
            ((dt, *offs) for cells in summary.reads.values() for dt, offs in cells),
            self.ndim,
        )
        for arr in self.arrays.values():
            arr.check_layout()
            if arr.slots < shape.depth + 1:
                raise SpecificationError(
                    f"array {arr.name!r} holds {arr.slots} time slots but the "
                    f"stencil shape has depth {shape.depth} "
                    f"(needs >= {shape.depth + 1})"
                )
        t_start = (self.cursor + 1) if self.cursor is not None else shape.depth
        return Problem(
            ndim=self.ndim,
            sizes=self.sizes,
            shape=shape,
            statements=built.statements,
            kernel_name=built.name,
            arrays=dict(self.arrays),
            const_arrays=dict(self.const_arrays),
            params=dict(self.params),
            t_start=t_start,
            t_end=t_start + steps,
        )

    def advance_cursor(self, problem: Problem) -> None:
        """Record that levels up to ``problem.t_end - 1`` now exist, in
        the stencil's cursor and in every array of ``problem``."""
        for arr in problem.arrays.values():
            arr.note_written_through(problem.t_end - 1)
        if problem.steps > 0:
            self.cursor = problem.t_end - 1

    # -- execution -------------------------------------------------------------
    def run(
        self,
        steps: int,
        kernel: Kernel,
        options: RunOptions | None = None,
        **overrides: object,
    ) -> RunReport:
        """Execute ``steps`` time steps of ``kernel`` (Phase 2).

        Keyword overrides are applied on top of ``options``; e.g.
        ``stencil.run(100, k, algorithm="strap", mode="split_pointer")``.
        """
        if options is None:
            options = RunOptions()
        if overrides:
            options = RunOptions(
                **{**options.__dict__, **overrides}  # type: ignore[arg-type]
            )
        from repro.trap.driver import execute_problem

        problem = self.prepare(steps, kernel)
        report = execute_problem([problem], options)[0]
        self.advance_cursor(problem)
        return report

    Run = run

    def __repr__(self) -> str:
        return (
            f"Stencil({self.name!r}, ndim={self.ndim}, "
            f"arrays={list(self.arrays)}, cursor={self.cursor})"
        )
