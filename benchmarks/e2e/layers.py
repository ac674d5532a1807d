"""The traced pass: per-layer metrics, measured from outside the program.

Nothing under ``src/`` is instrumented.  Each layer is timed by calling
its public function between two clock reads (:mod:`spans`):

* ``local.serial`` / ``local.dag`` — one ``Stencil.run`` driven by hand,
  the way ``driver.execute_problem`` drives it: ``prepare`` →
  ``compile_kernel`` → ``build_events`` → (``build_task_graph``) →
  ``execute_serial_stream`` / ``execute_dag``.
* ``replay`` — one served burst's path replayed in this process, the way
  ``client.submit_many`` → ``net._handle_submit`` → ``driver.execute_batch``
  → ``client._apply_result`` walk it: ``prepare`` → ``pack`` → ``unpack`` →
  ``registry.lookup`` → ``stack_problems`` → ``compile_batch_kernel`` →
  execute → ``scatter_results`` → RESULT ``pack`` / ``unpack`` → copy-back.
* probes — cold/warm ``compile_kernel``, one leaf zoid and one subtree
  zoid run directly, a bandwidth triad.

Every metric is measured on *every* workload's own problem, so a local
workload also reports what serving its problem costs and a served one
what planning its job costs.  README.md says which metrics lie on each
workload's end-to-end path; ``trace_coverage`` counts only those.
"""

from __future__ import annotations

import statistics
import time
import uuid
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.autotune import registry
from repro.compiler import pipeline
from repro.compiler.batch import (
    compile_batch_kernel,
    scatter_results,
    stack_problems,
)
from repro.language.stencil import RunOptions, RunReport
from repro.serve import ServeOptions, protocol
from repro.trap.driver import build_events
from repro.trap.executor import (
    execute_dag,
    execute_serial_stream,
    run_base_region,
)
from repro.trap.graph import build_task_graph
from repro.trap.plan import iter_base_events, stats_from_regions

from spans import Tracer
from workloads import (
    ServerProc,
    Session,
    Workload,
    cc_invocations,
    fresh_state,
    timed_loop,
)

#: Traced operations per kind: the kind on the workload's own path, the others.
N_ON_PATH = 5
N_OFF_PATH = 3

#: The replayed spans that are parts of a served operation's latency.  The
#: execute step is taken from the server's own ``RunReport`` instead.
REPLAY_PARTS = (
    "language.prepare",
    "serve.wire.pack",
    "serve.wire.unpack",
    "autotune.lookup",
    "batch.stack",
    "compiler.compile_batch",
    "batch.scatter",
    "client.copy_back",
)


def traced_local(tr: Tracer, root: str, options: RunOptions):
    """``fn(burst)`` running burst[0] as ``Stencil.run`` would, one span per
    layer; returns the materialised plan events."""

    def fn(burst):
        app = burst[0]
        with tr.span(root):
            with tr.span("language.prepare"):
                problem = app.stencil.prepare(app.steps, app.kernel)
            with tr.span("compiler.compile_kernel"):
                compiled = pipeline.compile_kernel(problem, options.mode)
            with tr.span("trap.plan"):
                events = list(build_events(problem, options))
            executor, n_workers = options.resolve_executor()
            if executor == "dag":
                with tr.span("trap.graph"):
                    graph = build_task_graph(events)
                with tr.span("trap.exec"):
                    execute_dag(graph, compiled, n_workers)
            else:
                with tr.span("trap.exec"):
                    execute_serial_stream(events, compiled)
            for arr in problem.arrays.values():
                arr.note_written_through(problem.t_end - 1)
            app.stencil.advance_cursor(problem)
        return events

    return fn


def traced_replay(tr: Tracer, options: RunOptions):
    """``fn(burst)`` walking the served path in-process; returns the bytes
    of every SUBMIT and RESULT frame of the burst."""

    def fn(burst):
        with tr.span("replay"):
            sent = []
            for app in burst:
                with tr.span("language.prepare"):
                    problem = app.stencil.prepare(app.steps, app.kernel)
                with tr.span("serve.wire.pack"):
                    frame = protocol.encode_frame(
                        protocol.T_SUBMIT,
                        protocol.pack(
                            {
                                "key": uuid.uuid4().hex,
                                "deadline": 120.0,
                                "problem": problem,
                                "options": None,
                            }
                        ),
                    )
                sent.append((problem, frame))
            frame_bytes = sum(len(frame) for _, frame in sent)
            jobs = []
            for _, frame in sent:
                with tr.span("serve.wire.unpack"):
                    msg = protocol.unpack(memoryview(frame)[protocol.HEADER.size:])
                jobs.append(msg["problem"])
            with tr.span("autotune.lookup"):
                registry.lookup(jobs[0], options.mode)
            with tr.span("batch.stack"):
                stack = stack_problems(jobs)
            with tr.span("compiler.compile_batch"):
                compiled = compile_batch_kernel(stack, options.mode)
            with tr.span("trap.exec"):
                execute_serial_stream(build_events(jobs[0], options), compiled)
            with tr.span("batch.scatter"):
                scatter_results(stack)
            for app, (problem, _), job in zip(burst, sent, jobs):
                with tr.span("serve.wire.pack"):
                    frame = protocol.encode_frame(
                        protocol.T_RESULT,
                        protocol.pack(
                            {
                                "key": uuid.uuid4().hex,
                                "report": RunReport(
                                    options.algorithm, options.mode,
                                    job.t_start, job.t_end,
                                ),
                                "arrays": {
                                    n: a.data.tobytes()
                                    for n, a in job.arrays.items()
                                },
                                "replayed": False,
                            }
                        ),
                    )
                frame_bytes += len(frame)
                with tr.span("serve.wire.unpack"):
                    msg = protocol.unpack(memoryview(frame)[protocol.HEADER.size:])
                with tr.span("client.copy_back"):
                    for name, buf in msg["arrays"].items():
                        arr = app.stencil.arrays[name]
                        arr.data[...] = np.frombuffer(
                            buf, dtype=arr.data.dtype
                        ).reshape(arr.data.shape)
                        arr.note_written_through(problem.t_end - 1)
                    app.stencil.advance_cursor(problem)
        return frame_bytes

    return fn


# -- probes -------------------------------------------------------------------


def probe_compile(problem, mode: str, scratch: Path):
    """``compile_kernel`` against an empty and then a populated ``.so``
    cache (in-process cache cleared both times)."""
    state = fresh_state(scratch)
    t0 = time.perf_counter()
    pipeline.compile_kernel(problem, mode)
    cold = time.perf_counter() - t0
    pipeline.clear_cache()
    t0 = time.perf_counter()
    compiled = pipeline.compile_kernel(problem, mode)
    warm = time.perf_counter() - t0
    return cold, warm, cc_invocations(state), compiled


def _region_mpts_s(region, compiled) -> float:
    """Points per second of one region run directly (median call)."""
    times = []
    spent = 0.0
    while len(times) < 3 or (spent < 0.1 and len(times) < 200):
        t0 = time.perf_counter()
        run_base_region(region, compiled)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return region.volume() / statistics.median(times) / 1e6


def probe_leaf_and_walk(problem, compiled, options: RunOptions):
    """(leaf Mpts/s, leaf kind, walk Mpts/s).  The leaf zoid is the largest
    base case of the per-leaf plan, interior if the plan has one; the walk
    zoid is the largest subtree task of the workload's own plan — 0.0 when
    that plan has none, i.e. the compiled walk never runs on this workload."""
    leaves = list(
        iter_base_events(build_events(problem, replace(options, compiled_walk=False)))
    )
    interior = [r for r in leaves if r.interior]
    leaf = max(interior or leaves, key=lambda r: r.volume())
    subtrees = [
        r for r in iter_base_events(build_events(problem, options))
        if r.walk is not None
    ]
    walk_rate = 0.0
    if subtrees and compiled.walk is not None:
        walk_rate = _region_mpts_s(max(subtrees, key=lambda r: r.volume()), compiled)
    kind = "interior" if leaf.interior else "boundary"
    return _region_mpts_s(leaf, compiled), kind, walk_rate


def bytes_per_point(problem) -> int:
    """*Computed* compulsory traffic of one point update: every time slot of
    every array is touched once (depth reads, one write), plus const arrays."""
    return sum(a.data.itemsize * a.slots for a in problem.arrays.values()) + sum(
        c.values.itemsize for c in problem.const_arrays.values()
    )


# -- the pass -----------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def traced_pass(
    wl: Workload,
    session: Session,
    server: ServerProc | None,
    scratch: Path,
    tr: Tracer,
    triad_gb_s: float,
) -> tuple[dict, dict]:
    """Run the traced operations and probes; return ``(per-layer metrics,
    extra facts for the result file)``.  Starts (and stops) its own server
    for a local workload; every result lands in ``session`` for checking."""
    base = {k: v for k, v in wl.options.items() if k not in ("executor", "n_workers")}
    kinds = {
        "local.serial": RunOptions(**base, executor="serial"),
        "local.dag": RunOptions(**base, executor="dag", n_workers=2),
    }
    own = RunOptions(**wl.options)
    on_path = "local.dag" if own.resolve_executor()[0] == "dag" else "local.serial"
    serve_options = replace(ServeOptions().run, mode="c")

    def repeat(n, fn, jobs=None, seconds=0.0):
        done = timed_loop(session, fn, seconds, n, jobs)
        if not done:
            raise RuntimeError("traced pass: an operation kind never succeeded:\n"
                               + "\n".join(session.errors[:3]))
        return done

    # Untraced runs with the workload's own local options: the base line
    # the traced runs are compared with.  The first warms caches and pool;
    # the other executor gets its own warm-up runs below, because the first
    # few 2-worker runs of a process are slow (second core still cold).
    plain = repeat(1 + N_ON_PATH, lambda burst: burst[0].run(**wl.options), 1)[1:]
    plain_s = [s for s, _ in plain]
    events = repeat(N_ON_PATH, traced_local(tr, on_path, kinds[on_path]), 1)[-1][1]
    for root, options in kinds.items():
        if root != on_path:
            repeat(N_OFF_PATH, lambda burst: burst[0].run(options=options), 1)
            repeat(N_OFF_PATH, traced_local(tr, root, options), 1)
    n_served = N_ON_PATH if wl.served else N_OFF_PATH
    frame_bytes = repeat(n_served, traced_replay(tr, serve_options))[-1][1]

    own_server = server is None
    if own_server:
        server = ServerProc()
    try:
        # Pays the cold compile of a server started here; fills the result
        # journal of a served workload's own server (see Workload.warmup).
        repeat(wl.warmup if wl.served else 1, server.submit)
        # A second's worth at least: five 10 ms bursts after an idle spell
        # would time a cold connection, not the served path.
        served = repeat(n_served, server.submit, seconds=1.0)
    finally:
        if own_server:
            server.close()
    served_s = [s for s, _ in served]
    reports = [r for _, rs in served for r in rs]

    probe = wl.build(session.seed)
    problem = probe.stencil.prepare(probe.steps, probe.kernel)
    cold_s, warm_s, cc_runs, compiled = probe_compile(problem, own.mode, scratch)
    leaf_rate, leaf_kind, walk_rate = probe_leaf_and_walk(problem, compiled, own)
    bpp = bytes_per_point(problem)
    plan = stats_from_regions(iter_base_events(events))

    ms = 1e3
    exec_s = _median(r.elapsed for r in reports)
    queue_s = _median(r.queue_wait for r in reports)
    served_p50 = _median(served_s)
    attributed = (
        sum(tr.median("replay", part) for part in REPLAY_PARTS) + exec_s + queue_s
    )
    e2e_reports = reports if wl.served else [r for _, r in plain]
    metrics = {
        "language.prepare_ms": ms * tr.median("replay" if wl.served else on_path, "language.prepare"),
        "compiler.compile_cold_s": cold_s,
        "compiler.compile_warm_ms": ms * warm_s,
        "compiler.cc_invocations": cc_runs,
        "autotune.lookup_ms": ms * tr.median("replay", "autotune.lookup"),
        "trap.plan_ms": ms * tr.median(on_path, "trap.plan"),
        "trap.graph_ms": ms * tr.median("local.dag", "trap.graph"),
        "trap.plan_events": len(events),
        "trap.base_cases": plan.base_cases,
        "trap.subtree_tasks": plan.subtree_tasks,
        "trap.exec_s": tr.median(on_path, "trap.exec"),
        "executor.idle_fraction": _median(r.idle_fraction for r in e2e_reports),
        "executor.par_speedup": tr.median("local.serial") / tr.median("local.dag"),
        "leaf.mpts_s": leaf_rate,
        "walk.mpts_s": walk_rate,
        "leaf.bytes_per_pt": bpp,
        "machine.triad_gb_s": triad_gb_s,
        "leaf.pct_roofline": 100.0 * leaf_rate * 1e6 * bpp / (triad_gb_s * 1e9),
        "serve.wire.pack_ms": ms * tr.median("replay", "serve.wire.pack"),
        "serve.wire.unpack_ms": ms * tr.median("replay", "serve.wire.unpack"),
        "serve.wire.frame_bytes": frame_bytes,
        "serve.queue_wait_ms": ms * queue_s,
        "serve.batch_size": _median(r.batch_size for r in reports),
        "serve.exec_ms": ms * exec_s,
        "serve.compile_cache_hit": statistics.fmean(
            bool(r.compile_cache_hit) for r in reports
        ),
        "batch.stack_ms": ms * tr.median("replay", "batch.stack"),
        "batch.scatter_ms": ms * tr.median("replay", "batch.scatter"),
        "serve.unattributed_ms": ms * (served_p50 - attributed),
        "trace_coverage": attributed / served_p50 if wl.served else tr.coverage(on_path),
        "trace_overhead": tr.median(on_path) / _median(plain_s) - 1.0,
    }
    extra = {
        "on_path": "replay + server RunReport" if wl.served else on_path,
        "leaf.kind": leaf_kind,
        "served_p50_ms": ms * served_p50,
        "untraced_local_p50_ms": ms * _median(plain_s),
        "traced_ops": {root: len(tr.per_op(root)) for root in (*kinds, "replay")},
        "served_ops": len(served_s),
    }
    return metrics, extra
