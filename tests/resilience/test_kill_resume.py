"""SIGKILL a checkpointing run mid-history, resume, demand bitwise
equality with the uninterrupted run.

The child process arms ``REPRO_FAULTS="checkpoint.kill:1@1"`` — the
resilience runner SIGKILLs its own process right after the *second*
checkpoint lands, exactly the way a power cut would land between block
boundaries (SIGKILL cannot be caught, so no cleanup code can mask a
durability bug).  The parent then resumes from the surviving
checkpoint directory in-process and compares grids bit for bit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.apps.registry import build

from tests.conftest import has_c_backend

_CHILD = """\
import sys
from repro.apps.registry import build
from repro import CheckpointPolicy

app_name, mode, ckpt_dir, every_dt = sys.argv[1:5]
app = build(app_name, scale="tiny")
app.run(
    mode=mode,
    checkpoint=CheckpointPolicy(dir=ckpt_dir, every_dt=int(every_dt), keep=10),
)
print("COMPLETED-WITHOUT-KILL")  # the kill fault must prevent this
"""

APPS = ["heat1d", "heat2d", "life"]
MODES = ["auto"] + (["c"] if has_c_backend() else [])


def _child_env():
    env = dict(os.environ)
    env["REPRO_FAULTS"] = "checkpoint.kill:1@1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH", ""), "src") if p
    )
    return env


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("app_name", APPS)
def test_kill_then_resume_bitwise_identical(app_name, mode, tmp_path):
    ref_app = build(app_name, scale="tiny")
    ref_app.run(mode=mode)
    ref = ref_app.result()

    every_dt = max(1, ref_app.steps // 4)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, app_name, mode, str(tmp_path),
         str(every_dt)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"child should die by SIGKILL, got rc={proc.returncode}\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    assert "COMPLETED-WITHOUT-KILL" not in proc.stdout
    survivors = list(tmp_path.iterdir())
    assert survivors, "the killed run must leave durable checkpoints"

    app = build(app_name, scale="tiny")
    report = app.run(mode=mode, resume_from=tmp_path)
    assert report.resumed_from is not None
    assert report.resumed_from < ref_app.stencil.cursor + 1  # mid-history
    np.testing.assert_array_equal(app.result(), ref)


_SIGTERM_CHILD = """\
import glob
import os
import signal
import sys
import threading
import time
from repro.apps.registry import build
from repro import CheckpointPolicy

app_name, mode, ckpt_dir, every_dt, scale = sys.argv[1:6]
app = build(app_name, scale=scale)


def deliver():
    # Signal only once the runner's handler is installed and the first
    # durable checkpoint has landed: no wall-clock race with the run.
    while signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        time.sleep(0.001)
    print("HANDLER-INSTALLED", flush=True)
    while not glob.glob(os.path.join(ckpt_dir, "*.rpck")):
        time.sleep(0.001)
    os.kill(os.getpid(), signal.SIGTERM)


threading.Thread(target=deliver, daemon=True).start()
app.run(
    mode=mode,
    checkpoint=CheckpointPolicy(dir=ckpt_dir, every_dt=int(every_dt), keep=10),
)
print("COMPLETED-WITHOUT-SIGNAL")
"""


def test_sigterm_flushes_final_checkpoint_and_resumes(tmp_path):
    """Graceful shutdown: SIGTERM mid-run exits ``128+15``, leaves a
    valid durable history, and a resumed run finishes bitwise equal.

    The child signals itself once the shutdown handler is installed and
    the first checkpoint is durable, so the signal always lands mid-run;
    a run that finishes without it is a failure, not a skip."""
    ref_app = build("heat2d", scale="small")
    ref_app.run(mode="auto")
    ref = ref_app.result()

    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH", ""), "src") if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SIGTERM_CHILD, "heat2d", "auto",
         str(tmp_path), "1", "small"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "HANDLER-INSTALLED" in proc.stdout, proc.stderr
    assert "COMPLETED-WITHOUT-SIGNAL" not in proc.stdout, (
        "the run finished before the signal landed"
    )
    assert proc.returncode == 128 + signal.SIGTERM, (
        f"graceful shutdown must exit 128+SIGTERM, got rc={proc.returncode}\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    assert list(tmp_path.iterdir()), (
        "the terminated run must flush durable checkpoints"
    )

    app = build("heat2d", scale="small")
    report = app.run(mode="auto", resume_from=tmp_path)
    assert report.resumed_from is not None
    np.testing.assert_array_equal(app.result(), ref)


def test_kill_resume_under_dag_executor(tmp_path):
    """Same contract with the parallel executor on both sides of the
    kill."""
    ref_app = build("heat2d", scale="tiny")
    ref_app.run(mode="auto", executor="dag", n_workers=2)
    ref = ref_app.result()

    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.replace(
            'mode=mode,', 'mode=mode, executor="dag", n_workers=2,'
        ), "heat2d", "auto", str(tmp_path), "2"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    app = build("heat2d", scale="tiny")
    report = app.run(mode="auto", executor="dag", n_workers=2,
                     resume_from=tmp_path)
    assert report.resumed_from is not None
    np.testing.assert_array_equal(app.result(), ref)
