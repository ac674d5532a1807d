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
from repro.serve import (
    JobExpired,
    ServeOptions,
    ServerBusy,
    ServerClosed,
    StencilServer,
)
from repro.trap.driver import execute_batch
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


def _finish(app, problem):
    """The post-run bookkeeping Stencil.run (and the server) performs."""
    for arr in problem.arrays.values():
        arr.note_written_through(problem.t_end - 1)
    app.stencil.advance_cursor(problem)


# -- batched execution is bitwise identical ------------------------------


@pytest.mark.parametrize("mode", BATCH_MODES)
@pytest.mark.parametrize("app_name", sorted(APP_BUILDERS))
def test_execute_batch_bitwise_equivalence(app_name, mode):
    K = 3
    build = APP_BUILDERS[app_name]
    apps = [build(seed) for seed in range(K)]
    problems = [a.stencil.prepare(a.steps, a.kernel) for a in apps]
    reports = execute_batch(problems, RunOptions(mode=mode))
    for a, p in zip(apps, problems):
        _finish(a, p)
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


def test_execute_batch_rejects_mixed_signatures():
    a = build_heat((20, 20), 8, seed=0)
    b = build_heat((24, 24), 8, seed=0)
    with pytest.raises(SpecificationError):
        execute_batch(
            [
                a.stencil.prepare(a.steps, a.kernel),
                b.stencil.prepare(b.steps, b.kernel),
            ],
            RunOptions(mode="split_pointer"),
        )


def test_execute_batch_rejects_checkpoint_options(tmp_path):
    from repro import CheckpointPolicy

    a = build_heat((20, 20), 8, seed=0)
    with pytest.raises(SpecificationError):
        execute_batch(
            [a.stencil.prepare(a.steps, a.kernel)],
            RunOptions(
                mode="split_pointer",
                checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=4),
            ),
        )


# -- the server end to end -----------------------------------------------


def _serve(apps, serve_options=None, run_options=None):
    async def main():
        async with StencilServer(serve_options) as srv:
            reports = await asyncio.gather(
                *(
                    srv.submit(a.stencil, a.steps, a.kernel, run_options)
                    for a in apps
                )
            )
        return srv, reports

    return asyncio.run(main())


@pytest.mark.parametrize("mode", BATCH_MODES)
def test_server_batches_and_matches_direct_runs(mode):
    K = 5
    apps = [build_heat((20, 20), 8, seed=s) for s in range(K)]
    srv, reports = _serve(
        apps,
        ServeOptions(max_batch=8, batch_window=0.05),
        RunOptions(mode=mode),
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


def test_server_telemetry_and_registry_hit():
    from repro.autotune import registry
    from repro.autotune.registry import TunedConfig

    app = build_heat((20, 20), 8, seed=0)
    problem = app.stencil.prepare(app.steps, app.kernel)
    mode = BATCH_MODES[-1]
    assert registry.store(
        problem, mode, TunedConfig(space_thresholds=(10, 10), dt_threshold=3)
    )
    try:
        srv, reports = _serve(
            [app],
            ServeOptions(max_batch=1),
            RunOptions(mode=mode, autotune="use"),
        )
        (rep,) = reports
        assert rep.registry_hit
        assert rep.autotune_source == "registry"
        assert rep.batch_size == 1
    finally:
        registry.clear_registry()


def test_server_mixed_signatures_form_separate_batches():
    small = [build_heat((16, 16), 6, seed=s) for s in range(2)]
    large = [build_heat((24, 24), 6, seed=s) for s in range(2)]
    srv, reports = _serve(
        small + large,
        ServeOptions(max_batch=8, batch_window=0.05),
        RunOptions(mode=BATCH_MODES[0]),
    )
    assert srv.stats["batches"] == 2
    assert [r.batch_size for r in reports] == [2, 2, 2, 2]


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
        async with StencilServer(ServeOptions(batch_window=0.01)) as srv:
            await srv.submit(
                app.stencil, app.steps, app.kernel, RunOptions(mode="c")
            )

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
            ServeOptions(max_batch=2, batch_window=0.05),
            RunOptions(mode="c"),
        )
        assert [r.batch_size for r in reports] == [2, 2]
        assert all(r.mode == "c" for r in reports)
    assert len(count_file.read_text().splitlines()) == 1
    assert len(loads) == 1


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


def test_equal_valued_options_batch_together():
    # Distinct RunOptions objects with equal values must share a batch —
    # this is what lets remote jobs (each unpickling its own options
    # object) reach one batched dispatch.
    apps = [build_heat((16, 16), 4, seed=s) for s in range(2)]

    async def main():
        opts = ServeOptions(max_batch=8, batch_window=0.1)
        async with StencilServer(opts) as srv:
            reports = await asyncio.gather(
                *(
                    srv.submit(
                        a.stencil,
                        a.steps,
                        a.kernel,
                        RunOptions(mode=BATCH_MODES[0]),
                    )
                    for a in apps
                )
            )
        return srv, reports

    srv, reports = asyncio.run(main())
    assert srv.stats["batches"] == 1
    assert [r.batch_size for r in reports] == [2, 2]


def test_supervised_jobs_run_unbatched():
    apps = [build_heat((16, 16), 4, seed=s) for s in range(2)]
    srv, reports = _serve(
        apps,
        ServeOptions(max_batch=4, batch_window=0.05),
        RunOptions(mode=BATCH_MODES[0], executor="procs"),
    )
    assert srv.stats["unbatched_jobs"] == 2
    for rep in reports:
        assert rep.batch_size == 1
        assert "serve:supervised->unbatched" in rep.degradations


def test_no_toolchain_degrades_to_unbatched_numpy(monkeypatch):
    from repro.compiler import codegen_c

    monkeypatch.setattr(codegen_c, "find_c_compiler", lambda: None)
    apps = [build_heat((16, 16), 4, seed=s) for s in range(2)]
    srv, reports = _serve(apps, ServeOptions(max_batch=4, batch_window=0.05))
    refs = [build_heat((16, 16), 4, seed=s) for s in range(2)]
    for r in refs:
        r.run(mode="split_pointer")
    for a, ref in zip(apps, refs):
        assert np.array_equal(a.result(), ref.result())
    for rep in reports:
        assert "serve:no-cc->unbatched-numpy" in rep.degradations
        assert rep.mode == "split_pointer"


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
