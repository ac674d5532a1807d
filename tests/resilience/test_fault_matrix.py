"""The degradation matrix: every fault combination must yield bitwise-
identical results and record its fired fallbacks — never crash, never
silently corrupt.

Crossed axes: missing C toolchain (``REPRO_NO_CC``) x compiled-walk
pthread-pool start failure x corrupt autotune registry x corrupt
checkpoint, across executors — plus an app-breadth leg running the
all-faults-on combination over several benchmark apps.  Every run asks
for the most demanding configuration (``mode="c"``, a 2-thread walk,
autotune, resume) so each armed fault actually lies on the requested
path.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import CheckpointPolicy
from repro.apps.registry import build
from repro.autotune.registry import SCHEMA_VERSION
from repro.resilience import checkpoint as cp
from repro.resilience import faults

from tests.conftest import has_c_backend

_REFS: dict[str, np.ndarray] = {}


def reference(app_name: str) -> np.ndarray:
    """Clean single-backend reference result, computed once per app."""
    if app_name not in _REFS:
        app = build(app_name, scale="tiny")
        app.run(mode="auto")
        _REFS[app_name] = app.result()
    return _REFS[app_name]


@pytest.fixture(autouse=True)
def _isolated_stores(tmp_path, monkeypatch):
    """Fresh registry file and fault plan per test."""
    monkeypatch.setenv("REPRO_TUNE_REGISTRY", str(tmp_path / "registry.json"))
    faults.clear()
    yield
    faults.clear()


def _seed_registry(tmp_path):
    (tmp_path / "registry.json").write_text(
        json.dumps({"schema": SCHEMA_VERSION, "entries": {}})
    )


def _seed_corrupt_checkpoint(ckpt_dir, app):
    """A correctly-named checkpoint file full of garbage: the loader
    must skip it (note) and cold-start (note)."""
    ckpt_dir.mkdir(exist_ok=True)
    problem = app.stencil.prepare(app.steps, app.kernel)
    sig = cp.problem_signature_of(problem)
    name = cp.checkpoint_filename(sig, problem.t_start + 1)
    (ckpt_dir / name).write_bytes(b"garbage, definitely not a checkpoint")


def _run_combo(app_name, executor, *, no_cc, pool_fail, reg_corrupt,
               ckpt_corrupt, tmp_path, monkeypatch):
    if no_cc:
        monkeypatch.setenv("REPRO_NO_CC", "1")
    plan = faults.FaultPlan()
    if pool_fail:
        plan.add("walk.pool")
    if reg_corrupt:
        _seed_registry(tmp_path)
        plan.add("registry.corrupt")
    faults.install(plan)

    app = build(app_name, scale="tiny")
    options = dict(
        mode="c",  # the most degradable request; falls back without cc
        executor=executor,
        autotune="use",
        checkpoint=CheckpointPolicy(dir=tmp_path / "ckpt", every_dt=3),
    )
    if executor == "dag":
        options["n_workers"] = 2
        options["walk_threads"] = 2
        # Thresholds that plan subtree tasks, so the pool is asked to start.
        options["space_thresholds"] = (4,) * app.stencil.ndim
        options["dt_threshold"] = 2
    if ckpt_corrupt:
        _seed_corrupt_checkpoint(tmp_path / "ckpt", app)
        options["resume_from"] = tmp_path / "ckpt"

    report = app.run(**options)

    np.testing.assert_array_equal(app.result(), reference(app_name))
    degr = set(report.degradations)
    if no_cc:
        assert "cc:compile-failed->split_pointer" in degr
        assert report.mode == "split_pointer"
    elif has_c_backend():
        assert report.mode == "c"
    if pool_fail and not no_cc and has_c_backend() and executor == "dag":
        assert report.subtree_tasks > 0
        assert "walk-pool:start-failed->serial" in degr
    if reg_corrupt:
        assert "registry:corrupt-evicted" in degr
    if ckpt_corrupt:
        assert "checkpoint:corrupt-skipped" in degr
        assert "checkpoint:no-valid-checkpoint->cold-start" in degr
        assert report.resumed_from is None
    assert report.checkpoints_written > 0
    return report


@pytest.mark.parametrize("executor", ["serial", "dag"])
@pytest.mark.parametrize("no_cc", [False, True])
@pytest.mark.parametrize("pool_fail", [False, True])
@pytest.mark.parametrize("reg_corrupt", [False, True])
@pytest.mark.parametrize("ckpt_corrupt", [False, True])
def test_full_cross_heat2d(
    executor, no_cc, pool_fail, reg_corrupt, ckpt_corrupt, tmp_path, monkeypatch
):
    _run_combo(
        "heat2d",
        executor,
        no_cc=no_cc,
        pool_fail=pool_fail,
        reg_corrupt=reg_corrupt,
        ckpt_corrupt=ckpt_corrupt,
        tmp_path=tmp_path,
        monkeypatch=monkeypatch,
    )


@pytest.mark.parametrize("app_name", ["heat1d", "heat3d", "life", "psa"])
def test_all_faults_at_once_across_apps(app_name, tmp_path, monkeypatch):
    _run_combo(
        app_name,
        "dag",
        no_cc=True,
        pool_fail=True,
        reg_corrupt=True,
        ckpt_corrupt=True,
        tmp_path=tmp_path,
        monkeypatch=monkeypatch,
    )


def test_dag_worker_death_is_retried(tmp_path):
    """A DAG worker dying mid-block rolls the block back and re-runs it
    (requires a checkpoint policy: the runner owns the rollback)."""
    ref = reference("heat2d")
    app = build("heat2d", scale="tiny")
    with faults.injected("dag.worker", times=1):
        report = app.run(
            mode="auto",
            executor="dag",
            n_workers=2,
            dt_threshold=2,
            space_thresholds=(8, 8),
            checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=4),
        )
    np.testing.assert_array_equal(app.result(), ref)
    assert "executor:block-retried" in report.degradations


def test_dag_worker_death_propagates_without_policy():
    """No checkpoint policy means no rollback state: the injected
    failure must surface as an error, not silent corruption."""
    app = build("heat2d", scale="tiny")
    with faults.injected("dag.worker", times=1):
        with pytest.raises(Exception):
            app.run(
                mode="auto",
                executor="dag",
                n_workers=2,
                dt_threshold=2,
                space_thresholds=(8, 8),
            )


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
def test_cc_timeout_retry_then_success(tmp_path, monkeypatch):
    """One hung cc invocation: the timeout + retry path still delivers
    the C backend."""
    ref = reference("heat2d")
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cc"))
    monkeypatch.setenv("REPRO_CC_TIMEOUT", "2")
    app = build("heat2d", scale="tiny")
    with faults.injected("cc.hang", times=1):
        report = app.run(mode="c")
    assert report.mode == "c"
    assert "cc:timeout-retry" in report.degradations
    np.testing.assert_array_equal(app.result(), ref)


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
def test_cc_persistent_hang_degrades_to_numpy(tmp_path, monkeypatch):
    """Both attempts hang: CompileError inside, NumPy backend outside."""
    ref = reference("heat2d")
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cc"))
    monkeypatch.setenv("REPRO_CC_TIMEOUT", "1")
    app = build("heat2d", scale="tiny")
    with faults.injected("cc.hang"):
        report = app.run(mode="c")
    assert report.mode == "split_pointer"
    assert "cc:compile-failed->split_pointer" in report.degradations
    np.testing.assert_array_equal(app.result(), ref)


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
def test_so_load_evict_rebuild(tmp_path, monkeypatch):
    """One load failure: evicted and rebuilt, C backend survives."""
    ref = reference("heat2d")
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cc"))
    app = build("heat2d", scale="tiny")
    with faults.injected("so.load", times=1):
        report = app.run(mode="c")
    assert report.mode == "c"
    assert "so-cache:evicted-rebuilt" in report.degradations
    np.testing.assert_array_equal(app.result(), ref)


@pytest.mark.skipif(not has_c_backend(), reason="needs a C toolchain")
def test_so_load_reachable_past_the_library_cache(tmp_path, monkeypatch):
    """A kernel's library is loaded once per process, keyed on the
    ``.so`` cache directory among others: a fresh directory — or
    ``clear_cache()`` — reaches ``dlopen``, and its fault site, again."""
    from repro.compiler.pipeline import clear_cache

    ref = reference("heat2d")
    assert build("heat2d", scale="tiny").run(mode="c").mode == "c"
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cc"))
    for _ in range(2):
        app = build("heat2d", scale="tiny")
        with faults.injected("so.load", times=1):
            report = app.run(mode="c")
        assert report.mode == "c"
        assert "so-cache:evicted-rebuilt" in report.degradations
        np.testing.assert_array_equal(app.result(), ref)
        clear_cache()  # the second pass: same directory, library dropped
