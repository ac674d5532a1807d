"""The supervised out-of-process executor: bitwise equivalence with
serial runs, real-SIGSEGV isolation, hang watchdog, and graceful
degradation when supervision is unavailable."""

from __future__ import annotations

import numpy as np
import pytest

from repro import RunOptions, SuperviseOptions, SpecificationError
from repro.apps.registry import build
from repro.resilience import faults

from tests.conftest import has_c_backend

MODES = ["split_pointer"] + (["c"] if has_c_backend() else [])

_REFS: dict[tuple, np.ndarray] = {}


def reference(app_name: str, mode: str) -> np.ndarray:
    key = (app_name, mode)
    if key not in _REFS:
        app = build(app_name, scale="tiny")
        app.run(executor="serial", mode=mode)
        _REFS[key] = app.result()
    return _REFS[key]


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


class TestOptions:
    def test_procs_is_a_valid_executor(self):
        RunOptions(executor="procs")

    def test_supervise_implies_procs_under_auto(self):
        opts = RunOptions(supervise=SuperviseOptions())
        executor, _ = opts.resolve_executor()
        assert executor == "procs"

    def test_supervise_must_be_supervise_options(self):
        with pytest.raises(SpecificationError):
            RunOptions(supervise={"heartbeat_timeout": 1.0})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(heartbeat_interval=0.0),
            dict(heartbeat_timeout=-1.0),
            dict(task_deadline_floor=0.0),
            dict(max_block_retries=-1),
            dict(retry_backoff=-0.5),
            dict(attach_timeout=0.0),
            dict(start_method="fork-bomb"),
        ],
    )
    def test_supervise_options_validate(self, kwargs):
        with pytest.raises(SpecificationError):
            SuperviseOptions(**kwargs)

    def test_deadline_scales_with_volume(self):
        sup = SuperviseOptions(
            task_deadline_floor=10.0, task_deadline_per_mpoint=5.0
        )
        assert sup.deadline_for(0) == 10.0
        assert sup.deadline_for(2_000_000) == 20.0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("app_name", ["heat2d", "life", "psa"])
def test_supervised_bitwise_identical_to_serial(app_name, mode):
    app = build(app_name, scale="tiny")
    report = app.run(executor="procs", n_workers=2, mode=mode)
    assert report.executor == "procs"
    assert report.n_workers == 2
    assert report.workers_respawned == 0
    assert report.tasks_retried == 0
    assert not [d for d in report.degradations if d.startswith("supervise")]
    np.testing.assert_array_equal(
        app.result(), reference(app_name, mode)
    )


@pytest.mark.parametrize("mode", MODES)
def test_worker_segfault_never_kills_the_driver(mode):
    """A real SIGSEGV (null write in native code) inside a worker: the
    driver survives, respawns the worker set, rolls the block back, and
    finishes bitwise identical to serial."""
    faults.install(faults.FaultPlan.parse("worker.segfault:1"))
    app = build("heat2d", scale="tiny")
    report = app.run(executor="procs", n_workers=2, mode=mode)
    assert report.executor == "procs"
    assert report.workers_respawned >= 2  # the whole set, not one
    assert report.tasks_retried >= 1
    degr = set(report.degradations)
    assert "supervise:worker-crashed->respawned" in degr
    assert "supervise:block-rolled-back" in degr
    np.testing.assert_array_equal(app.result(), reference("heat2d", mode))


def test_worker_hang_trips_the_watchdog():
    """A hung worker (sleeping forever in the task loop) is detected by
    the per-task deadline, killed, and the block re-run."""
    faults.install(faults.FaultPlan.parse("worker.hang:1"))
    sup = SuperviseOptions(
        task_deadline_floor=2.0,
        task_deadline_per_mpoint=2.0,
        heartbeat_timeout=60.0,  # isolate the deadline path
        retry_backoff=0.0,
    )
    app = build("heat2d", scale="tiny")
    report = app.run(
        executor="procs", n_workers=2, mode="split_pointer", supervise=sup
    )
    assert report.executor == "procs"
    assert report.workers_respawned >= 2
    degr = set(report.degradations)
    assert "supervise:worker-hung->respawned" in degr
    assert "supervise:block-rolled-back" in degr
    np.testing.assert_array_equal(
        app.result(), reference("heat2d", "split_pointer")
    )


def test_repeated_segfaults_exhaust_retry_budget():
    """Every dispatch segfaults: after max_block_retries respawns the
    run must fail loudly, not loop forever."""
    from repro.errors import ExecutionError

    faults.install(faults.FaultPlan.parse("worker.segfault:*"))
    sup = SuperviseOptions(max_block_retries=1, retry_backoff=0.0)
    app = build("heat2d", scale="tiny")
    with pytest.raises(ExecutionError, match="retry budget exhausted"):
        app.run(
            executor="procs", n_workers=2, mode="split_pointer",
            supervise=sup,
        )


def test_shm_unavailable_degrades_to_dag():
    """The shm.attach fault stands in for a host without usable shared
    memory: the run must complete in-process with a recorded note."""
    faults.install(faults.FaultPlan.parse("shm.attach:1"))
    app = build("heat2d", scale="tiny")
    report = app.run(executor="procs", n_workers=2, mode="split_pointer")
    assert report.executor == "dag"
    assert "supervise:shm-unavailable->dag" in report.degradations
    np.testing.assert_array_equal(
        app.result(), reference("heat2d", "split_pointer")
    )


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
def test_worker_binds_exactly_the_drivers_mode(monkeypatch):
    """A worker that cannot build the driver's mode raises (and so fails
    its attach) instead of quietly binding NumPy clones."""
    import pickle

    from repro.errors import CompileError
    from repro.supervise.worker import _Attached

    app = build("heat2d", scale="tiny")
    blob = pickle.dumps(
        {"problem": app.stencil.prepare(app.steps, app.kernel), "mode": "c"}
    )
    monkeypatch.setenv("REPRO_NO_CC", "1")
    with pytest.raises(CompileError):
        _Attached(blob)


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
def test_worker_compile_failure_degrades_to_dag(monkeypatch):
    """The driver compiles C, its workers cannot: the run degrades to the
    in-process DAG with a recorded note, bitwise identical to serial."""
    from repro.compiler import codegen_c
    from repro.supervise import shutdown_workers

    ref = reference("heat2d", "c")
    cc = codegen_c.find_c_compiler()
    shutdown_workers()  # workers spawned below inherit REPRO_NO_CC
    monkeypatch.setenv("REPRO_NO_CC", "1")
    monkeypatch.setattr(codegen_c, "find_c_compiler", lambda: cc)
    try:
        app = build("heat2d", scale="tiny")
        report = app.run(executor="procs", n_workers=2, mode="c")
    finally:
        shutdown_workers()
    assert report.executor == "dag"
    assert report.mode == "c"
    assert "supervise:attach-failed->dag" in report.degradations
    np.testing.assert_array_equal(app.result(), ref)


def test_degrade_then_recover_same_process():
    """A degraded run must not poison the next one: after a forced
    fallback the following supervised run works normally (the grids were
    unshared and the kernels recompiled against consistent buffers)."""
    faults.install(faults.FaultPlan.parse("shm.attach:1"))
    app = build("heat2d", scale="tiny")
    report = app.run(executor="procs", n_workers=2, mode="split_pointer")
    assert report.executor == "dag"
    faults.clear()

    app2 = build("heat2d", scale="tiny")
    report2 = app2.run(executor="procs", n_workers=2, mode="split_pointer")
    assert report2.executor == "procs"
    np.testing.assert_array_equal(
        app2.result(), reference("heat2d", "split_pointer")
    )


def test_supervised_run_with_checkpointing(tmp_path):
    """Supervision composes with PR 7's checkpoint runner: each time
    block executes out of process and the boundaries still land."""
    from repro import CheckpointPolicy

    app = build("heat2d", scale="tiny")
    report = app.run(
        executor="procs",
        n_workers=2,
        mode="split_pointer",
        checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=3),
    )
    assert report.executor == "procs"
    assert report.checkpoints_written > 0
    np.testing.assert_array_equal(
        app.result(), reference("heat2d", "split_pointer")
    )
