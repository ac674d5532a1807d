"""The serving layer: batched execution equivalence and server control.

The load-bearing guarantee is **bitwise equivalence**: a job served
through a batched compiled dispatch (K problems, one outer-batch-loop
clone call per region) must produce exactly the bytes a direct
``stencil.run`` produces — across apps (heat2d, life, psa: const
arrays, non-periodic boundaries), backends (NumPy and, when a toolchain
exists, C), and batch sizes.  On top of that: admission backpressure
rejects (never drops), drain finishes every accepted job, and the
per-job telemetry fields are populated.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro import RunOptions, SpecificationError
from repro.apps.heat import build_heat
from repro.apps.life import build_life
from repro.apps.psa import build_psa
from repro.compiler.batch import can_stack
from repro.serve import (
    JobExpired,
    ServeOptions,
    ServerBusy,
    ServerClosed,
    StencilServer,
)
from repro.trap.driver import execute_problem
from tests.conftest import has_c_backend

BATCH_MODES = ["split_pointer"] + (["c"] if has_c_backend() else [])

APP_BUILDERS = {
    "heat2d": lambda seed: build_heat((20, 20), 8, seed=seed),
    "heat2d_dirichlet": lambda seed: build_heat(
        (20, 20), 8, seed=seed, periodic=False
    ),
    "life": lambda seed: build_life(18, 6, seed=seed),
    "psa": lambda seed: build_psa(10, seed=seed),
}


# -- batched execution is bitwise identical ------------------------------


@pytest.mark.parametrize("mode", BATCH_MODES)
@pytest.mark.parametrize("app_name", sorted(APP_BUILDERS))
def test_batched_run_bitwise_equivalence(app_name, mode):
    K = 3
    build = APP_BUILDERS[app_name]
    apps = [build(seed) for seed in range(K)]
    problems = [a.stencil.prepare(a.steps, a.kernel) for a in apps]
    reports = execute_problem(problems, RunOptions(mode=mode))
    for a, p in zip(apps, problems):
        a.stencil.advance_cursor(p)
    refs = [build(seed) for seed in range(K)]
    for r in refs:
        r.run(mode=mode)
    for i, (a, ref) in enumerate(zip(apps, refs)):
        assert np.array_equal(a.result(), ref.result()), (
            f"{app_name} job {i} diverged under batched {mode}"
        )
    for rep in reports:
        assert rep.batch_size == K
        assert rep.mode == mode
        assert not rep.degradations


def test_batched_run_rejects_mixed_signatures():
    a = build_heat((20, 20), 8, seed=0)
    b = build_heat((24, 24), 8, seed=0)
    with pytest.raises(SpecificationError):
        execute_problem(
            [
                a.stencil.prepare(a.steps, a.kernel),
                b.stencil.prepare(b.steps, b.kernel),
            ],
            RunOptions(mode="split_pointer"),
        )


@pytest.mark.parametrize("option", ["checkpoint", "resume_from", "procs"])
def test_batch_of_two_rejects_checkpoint_resume_and_procs(option, tmp_path):
    # Checkpoint files are named by problem signature, so two jobs of one
    # group would overwrite each other's: the run is refused.  ``procs``
    # may rebind the arrays to shared memory, so the stack refuses it and
    # the jobs run one at a time.
    from repro import CheckpointPolicy

    extra = {
        "checkpoint": {"checkpoint": CheckpointPolicy(dir=tmp_path, every_dt=4)},
        "resume_from": {"resume_from": tmp_path},
        "procs": {"executor": "procs"},
    }[option]
    apps = [build_heat((20, 20), 8, seed=s) for s in range(2)]
    problems = [a.stencil.prepare(a.steps, a.kernel) for a in apps]
    options = RunOptions(mode="split_pointer", **extra)
    if option != "procs":
        with pytest.raises(SpecificationError):
            execute_problem(problems, options)
        return
    assert not can_stack(problems[0], options)
    reports = execute_problem(problems, options)
    for seed, (a, p, rep) in enumerate(zip(apps, problems, reports)):
        a.stencil.advance_cursor(p)
        assert rep.batch_size == 1
        assert rep.degradations == ["batch:unstackable->sequential"]
        ref = build_heat((20, 20), 8, seed=seed)
        ref.run(mode="split_pointer")
        assert np.array_equal(a.result(), ref.result())


def test_batch_of_one_runs_checkpointed(tmp_path):
    from repro import CheckpointPolicy

    a = build_heat((20, 20), 8, seed=0)
    problem = a.stencil.prepare(a.steps, a.kernel)
    (report,) = execute_problem(
        [problem],
        RunOptions(
            mode="split_pointer",
            checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=4),
        ),
    )
    a.stencil.advance_cursor(problem)
    assert report.checkpoints_written > 0
    assert list(tmp_path.glob("*.rpck"))
    ref = build_heat((20, 20), 8, seed=0)
    ref.run(mode="split_pointer")
    assert np.array_equal(a.result(), ref.result())


# -- the server end to end -----------------------------------------------


def _serve(apps, serve_options=None):
    async def main():
        async with StencilServer(serve_options) as srv:
            reports = await asyncio.gather(
                *(srv.submit(a.stencil, a.steps, a.kernel) for a in apps)
            )
        return srv, reports

    return asyncio.run(main())


@pytest.mark.parametrize("mode", BATCH_MODES)
def test_server_batches_and_matches_direct_runs(mode):
    K = 5
    apps = [build_heat((20, 20), 8, seed=s) for s in range(K)]
    srv, reports = _serve(
        apps,
        ServeOptions(max_batch=8, batch_window=0.05, run=RunOptions(mode=mode)),
    )
    assert srv.stats["batches"] == 1
    assert srv.stats["batched_jobs"] == K
    refs = [build_heat((20, 20), 8, seed=s) for s in range(K)]
    for r in refs:
        r.run(mode=mode)
    for a, ref in zip(apps, refs):
        assert np.array_equal(a.result(), ref.result())
    for rep in reports:
        assert rep.batch_size == K
        assert rep.queue_wait >= 0.0
        assert not rep.degradations


@pytest.mark.parametrize("mode", BATCH_MODES)
def test_server_mixed_signatures_form_separate_batches(mode):
    # Small thresholds plan subtree tasks, so under C the two batches run
    # the parallel walk's pool concurrently.
    options = RunOptions(mode=mode, space_thresholds=(4, 4), dt_threshold=1)
    small = [build_heat((16, 16), 6, seed=s) for s in range(2)]
    large = [build_heat((24, 24), 6, seed=s) for s in range(2)]
    srv, reports = _serve(
        small + large, ServeOptions(max_batch=8, batch_window=0.05, run=options)
    )
    assert srv.stats["batches"] == 2
    assert [r.batch_size for r in reports] == [2, 2, 2, 2]
    if mode == "c":
        assert all(r.walk_spawned > 0 for r in reports)
    refs = [build_heat((n, n), 6, seed=s) for n in (16, 24) for s in range(2)]
    for a, ref in zip(small + large, refs):
        ref.run(options=options)
        assert np.array_equal(a.result(), ref.result())


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
@pytest.mark.parametrize("K", [1, 3])
def test_served_job_reports_what_a_local_run_reports(K):
    # Thresholds small enough that the plan hands subtree tasks to the
    # compiled walk.
    options = RunOptions(mode="c", space_thresholds=(8, 8), dt_threshold=2)
    apps = [build_heat((64, 64), 16, seed=s) for s in range(K)]
    srv, reports = _serve(
        apps, ServeOptions(max_batch=K, batch_window=0.05, run=options)
    )
    assert [r.batch_size for r in reports] == [K] * K
    for seed, (app, served) in enumerate(zip(apps, reports)):
        ref = build_heat((64, 64), 16, seed=seed)
        local = ref.run(options=options)
        assert local.subtree_tasks > 0
        for name in (
            "mode",
            "degradations",
            "executor",
            "base_cases",
            "interior_base_cases",
            "boundary_base_cases",
            "subtree_tasks",
            "walk_threads",
        ):
            assert getattr(served, name) == getattr(local, name), name
        assert app.result().tobytes() == ref.result().tobytes()


def test_backpressure_rejects_but_never_drops():
    apps = [build_heat((16, 16), 4, seed=s) for s in range(7)]

    async def main():
        opts = ServeOptions(max_batch=4, batch_window=0.05, max_pending=4)
        async with StencilServer(opts) as srv:
            results = await asyncio.gather(
                *(srv.submit(a.stencil, a.steps, a.kernel) for a in apps),
                return_exceptions=True,
            )
        return srv, results

    srv, results = asyncio.run(main())
    busy = [r for r in results if isinstance(r, ServerBusy)]
    done = [r for r in results if not isinstance(r, BaseException)]
    assert len(busy) == 3
    assert len(done) == 4
    assert srv.stats["rejected"] == 3
    # Rejected is not dropped: nothing was queued, stats balance, and
    # every accepted job produced a report.
    assert srv.stats["completed"] == srv.stats["submitted"] == 4


def test_volume_bound_backpressure():
    apps = [build_heat((16, 16), 4, seed=s) for s in range(3)]
    points = apps[0].stencil.prepare(apps[0].steps, apps[0].kernel).total_points

    async def main():
        opts = ServeOptions(
            max_batch=8,
            batch_window=0.05,
            max_pending_points=2 * points,
        )
        async with StencilServer(opts) as srv:
            return await asyncio.gather(
                *(srv.submit(a.stencil, a.steps, a.kernel) for a in apps),
                return_exceptions=True,
            )

    results = asyncio.run(main())
    assert sum(isinstance(r, ServerBusy) for r in results) == 1
    assert sum(not isinstance(r, BaseException) for r in results) == 2


def test_closed_server_rejects_submissions():
    app = build_heat((16, 16), 4, seed=0)

    async def main():
        srv = StencilServer()
        async with srv:
            await srv.submit(app.stencil, app.steps, app.kernel)
        with pytest.raises(ServerClosed):
            await srv.submit(app.stencil, app.steps, app.kernel)

    asyncio.run(main())


def test_submit_timeout_sheds_queued_job_typed():
    app = build_heat((16, 16), 4, seed=0)

    async def main():
        # The window is wider than the job's budget: the deadline timer
        # sheds it while queued, before any dispatch.
        opts = ServeOptions(max_batch=8, batch_window=0.25)
        async with StencilServer(opts) as srv:
            with pytest.raises(JobExpired) as excinfo:
                await srv.submit(
                    app.stencil, app.steps, app.kernel, timeout=0.05
                )
            assert "serve:expired" in excinfo.value.degradations
            assert srv.stats["expired"] == 1
            assert srv.pending_jobs == 0  # accounting released
            # Capacity freed by the shed job serves the next one.
            rep = await srv.submit(app.stencil, app.steps, app.kernel)
        return srv, rep

    srv, rep = asyncio.run(main())
    assert srv.stats["completed"] == 1
    assert rep.batch_size == 1


def test_dispatched_job_is_collectable_before_its_deadline():
    # The deadline timer must not pin a job (and its arrays) once the job
    # has left its queue: the report resolving is the end of its life.
    app = build_heat((16, 16), 4, seed=0)

    async def main():
        async with StencilServer(ServeOptions(batch_window=0.01)) as srv:
            problem = app.stencil.prepare(app.steps, app.kernel)
            ref = weakref.ref(problem)
            await srv.submit_problem(
                problem, timeout=60.0, stencil=app.stencil
            )
            del problem
            gc.collect()
            assert ref() is None, "deadline timer still holds the job"

    asyncio.run(main())


@pytest.mark.skipif(not has_c_backend(), reason="only C kernels are prewarmed")
def test_served_job_arrays_collectable_after_report():
    # The compile prewarm loads the kernel library and binds no buffers,
    # so once a job's report resolves nothing pins its arrays.
    app = build_heat((16, 16), 4, seed=0)
    refs = [weakref.ref(a) for a in app.stencil.arrays.values()]

    async def main():
        opts = ServeOptions(batch_window=0.01, run=RunOptions(mode="c"))
        async with StencilServer(opts) as srv:
            await srv.submit(app.stencil, app.steps, app.kernel)

    asyncio.run(main())
    del app
    gc.collect()
    assert refs and all(r() is None for r in refs)


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
def test_local_run_and_served_batches_load_the_kernel_once(
    tmp_path, monkeypatch
):
    import ctypes

    count_file = tmp_path / "cc_count"
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cc"))
    monkeypatch.setenv("REPRO_CC_COUNT_FILE", str(count_file))
    loads = []
    cdll = ctypes.CDLL

    def counting_cdll(*args, **kwargs):
        loads.append(args[0])
        return cdll(*args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
    build_heat((20, 20), 8, seed=0).run(mode="c")
    for seeds in ((1, 2), (3, 4)):
        srv, reports = _serve(
            [build_heat((20, 20), 8, seed=s) for s in seeds],
            ServeOptions(max_batch=2, batch_window=0.05, run=RunOptions(mode="c")),
        )
        assert [r.batch_size for r in reports] == [2, 2]
        assert all(r.mode == "c" for r in reports)
    assert len(count_file.read_text().splitlines()) == 1
    assert len(loads) == 1


@pytest.mark.parametrize("mode", BATCH_MODES)
def test_second_same_kernel_batch_reports_a_warm_kernel(mode):
    # Warmth is per process: the loaders report whether a kernel's code
    # was already loaded, so from a cleared cache the first batch loads
    # it and the second finds it.
    from repro.compiler import pipeline

    pipeline.clear_cache()
    reports = _serve_two_batches(RunOptions(mode=mode))
    assert [[r.compile_cache_hit for r in batch] for batch in reports] == [
        [False, False],
        [True, True],
    ]


def _serve_two_batches(options):
    """Two same-kernel batches of two jobs, one after the other, on one
    server; returns their reports."""

    async def main():
        opts = ServeOptions(max_batch=2, batch_window=0.05, run=options)
        batches = []
        async with StencilServer(opts) as srv:
            for seeds in ((1, 2), (3, 4)):
                apps = [build_heat((20, 20), 8, seed=s) for s in seeds]
                reports = await asyncio.gather(
                    *(srv.submit(a.stencil, a.steps, a.kernel) for a in apps)
                )
                assert [r.batch_size for r in reports] == [2, 2]
                batches.append(reports)
        return batches

    return asyncio.run(main())


def test_nonpositive_timeout_expires_at_admission():
    app = build_heat((16, 16), 4, seed=0)

    async def main():
        async with StencilServer() as srv:
            with pytest.raises(JobExpired):
                await srv.submit(
                    app.stencil, app.steps, app.kernel, timeout=0.0
                )
            assert srv.stats["expired"] == 1
            assert srv.stats["submitted"] == 0  # never queued
        return srv

    srv = asyncio.run(main())
    assert srv.stats["completed"] == 0


def test_server_busy_carries_backpressure_fields():
    apps = [build_heat((16, 16), 4, seed=s) for s in range(2)]

    async def main():
        opts = ServeOptions(max_batch=8, batch_window=0.1, max_pending=1)
        async with StencilServer(opts) as srv:
            first = asyncio.ensure_future(
                srv.submit(apps[0].stencil, apps[0].steps, apps[0].kernel)
            )
            await asyncio.sleep(0)  # the first job reaches its queue
            with pytest.raises(ServerBusy) as excinfo:
                await srv.submit(apps[1].stencil, apps[1].steps, apps[1].kernel)
            busy = excinfo.value
            assert busy.pending_jobs == 1
            assert busy.pending_points > 0
            assert busy.retry_after > 0.0
            await first

    asyncio.run(main())


def _unstackable_job(case, seed):
    """(stencil, kernel, array) of one job of a ``case`` group."""
    from repro import Kernel, PochoirArray, PythonBoundary, Stencil

    if case != "python_boundary":
        app = build_heat((16, 16), 4, seed=seed)
        return app.stencil, app.kernel, app.stencil.arrays["u"]

    def edge(arr, t, X):
        return 100.0 + X  # arbitrary Python logic: not vectorizable

    u = PochoirArray("u", (12,)).register_boundary(PythonBoundary(edge))
    st = Stencil(1)
    st.register_array(u)
    k = Kernel(1, lambda t, x: u(t + 1, x) << 0.5 * (u(t, x - 1) + u(t, x + 1)))
    u.set_initial(np.random.default_rng(seed).random(12))
    return st, k, u


@pytest.mark.parametrize("case", ["procs", "python_boundary"])
def test_unstackable_group_runs_one_job_at_a_time(case):
    # A group the driver cannot stack under its options runs each job as
    # a local run of it would, and says so with one tag.
    steps = 4
    options = {
        "procs": RunOptions(mode=BATCH_MODES[0], executor="procs"),
        "python_boundary": RunOptions(mode=BATCH_MODES[-1]),
    }[case]
    jobs = [_unstackable_job(case, s) for s in range(2)]

    async def main():
        opts = ServeOptions(max_batch=2, batch_window=0.05, run=options)
        async with StencilServer(opts) as srv:
            reports = await asyncio.gather(
                *(srv.submit(st, steps, k) for st, k, _ in jobs)
            )
        return srv, reports

    srv, reports = asyncio.run(main())
    assert srv.stats["batches"] == 1 and srv.stats["completed"] == 2
    for seed, ((st, _, u), rep) in enumerate(zip(jobs, reports)):
        ref_st, ref_k, ref_u = _unstackable_job(case, seed)
        local = ref_st.run(steps, ref_k, options=options)
        assert rep.batch_size == 1
        assert rep.degradations == ["batch:unstackable->sequential"]
        assert rep.mode == local.mode
        assert u.snapshot(st.cursor).tobytes() == ref_u.snapshot(ref_st.cursor).tobytes()


def test_supervised_jobs_run_unbatched():
    apps = [build_heat((16, 16), 4, seed=s) for s in range(2)]
    srv, reports = _serve(
        apps,
        ServeOptions(
            max_batch=4,
            batch_window=0.05,
            run=RunOptions(mode=BATCH_MODES[0], executor="procs"),
        ),
    )
    assert srv.stats["batches"] == 1 and srv.stats["completed"] == 2
    for rep in reports:
        assert rep.batch_size == 1
        assert "batch:unstackable->sequential" in rep.degradations


def test_no_toolchain_batches_on_numpy(monkeypatch):
    from repro.compiler import codegen_c

    monkeypatch.setattr(codegen_c, "find_c_compiler", lambda: None)
    apps = [build_heat((16, 16), 4, seed=s) for s in range(2)]
    srv, reports = _serve(apps, ServeOptions(max_batch=2, batch_window=0.05))
    refs = [build_heat((16, 16), 4, seed=s) for s in range(2)]
    for r in refs:
        r.run(mode="split_pointer")
    for a, ref in zip(apps, refs):
        assert np.array_equal(a.result(), ref.result())
    for rep in reports:
        assert rep.batch_size == 2
        assert rep.degradations == []
        assert rep.mode == "split_pointer"


@pytest.mark.parametrize("seeded", ["valid_entry", "corrupt_file"])
def test_served_job_ignores_the_registry_file(seeded, tmp_path, monkeypatch):
    # A served group runs under its options alone: neither a stored entry
    # under the jobs' own key nor a damaged file reaches it, and the file
    # is left as it was.
    from repro.autotune import registry
    from repro.autotune.registry import TunedConfig
    from repro.compiler.pipeline import resolve_mode

    path = tmp_path / "registry.json"
    monkeypatch.setenv("REPRO_TUNE_REGISTRY", str(path))
    apps = [build_heat((20, 20), 8, seed=s) for s in range(2)]
    if seeded == "valid_entry":
        problem = apps[0].stencil.prepare(apps[0].steps, apps[0].kernel)
        tuned = TunedConfig((8, 8), 2, mode="split_pointer")
        assert registry.store(problem, "auto", tuned)
    else:
        path.write_text("{ this is not json")
    before = path.read_bytes()
    srv, reports = _serve(apps, ServeOptions(max_batch=2, batch_window=0.05))
    assert [r.mode for r in reports] == [resolve_mode("auto")] * 2
    assert [r.batch_size for r in reports] == [2, 2]
    for rep in reports:
        assert not [t for t in rep.degradations if t.startswith("registry")]
    assert path.read_bytes() == before


def test_fallback_is_never_warm(tmp_path, monkeypatch):
    # A C compile that fell back to NumPy paid for the failed compile, so
    # no batch after it reports a warm kernel.  With a toolchain the
    # cc.fail site fails it; without one (REPRO_NO_CC) nothing needs to.
    from contextlib import nullcontext

    from repro.resilience import faults

    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cc"))
    fail = faults.injected("cc.fail") if has_c_backend() else nullcontext()
    with fail:
        batches = _serve_two_batches(RunOptions(mode="c"))
    for rep in batches[0] + batches[1]:
        assert rep.compile_cache_hit is False
        assert "cc:compile-failed->split_pointer" in rep.degradations
        assert rep.mode == "split_pointer"


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
def test_second_local_c_run_reports_a_warm_kernel():
    from repro.compiler import pipeline

    pipeline.clear_cache()
    first = build_heat((20, 20), 8, seed=0).run(mode="c")
    second = build_heat((20, 20), 8, seed=1).run(mode="c")
    assert (first.compile_cache_hit, second.compile_cache_hit) == (False, True)


def test_phase1_jobs_are_refused_before_anything_compiles(tmp_path, monkeypatch):
    # Phase 1 is run_phase1, not a run option: options asking for it
    # cannot be built, so no server or run ever receives them.
    count_file = tmp_path / "cc_count"
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cc"))
    monkeypatch.setenv("REPRO_CC_COUNT_FILE", str(count_file))
    with pytest.raises(SpecificationError, match=r"run_phase1\("):
        RunOptions(algorithm="phase1", mode=BATCH_MODES[-1])
    for mode in ("interp", "macro_shadow"):
        with pytest.raises(SpecificationError, match="unknown mode"):
            RunOptions(mode=mode)
    assert not count_file.exists() or count_file.read_text() == ""


def test_per_job_checkpoint_options_are_refused_at_admission(tmp_path):
    # A job runs under the server's options, and those stay mutable
    # after construction: each admission checks them again.
    from repro import CheckpointPolicy

    app = build_heat((16, 16), 4, seed=0)

    async def main():
        async with StencilServer() as srv:
            srv.options.run = RunOptions(
                checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=2)
            )
            with pytest.raises(SpecificationError):
                await srv.submit(app.stencil, app.steps, app.kernel)
            assert srv.stats["submitted"] == 0

    asyncio.run(main())
    assert not list(tmp_path.iterdir())


def test_serve_options_validation():
    with pytest.raises(SpecificationError):
        ServeOptions(max_batch=0)
    with pytest.raises(SpecificationError):
        ServeOptions(max_pending=0)
    with pytest.raises(SpecificationError):
        ServeOptions(batch_window=-1.0)
    with pytest.raises(SpecificationError):
        from repro import CheckpointPolicy

        ServeOptions(
            run=RunOptions(
                checkpoint=CheckpointPolicy(dir="/tmp/x", every_dt=4)
            )
        )
