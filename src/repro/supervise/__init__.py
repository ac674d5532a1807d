"""Supervised out-of-process execution (the ``"procs"`` executor).

Worker *subprocesses* attach zero-copy views onto shared-memory grid
segments (:meth:`repro.language.array.PochoirArray.share`) and execute
DAG tasks and compiled subtree walks there, while a supervisor in the
driver process owns the task queue and the robustness policy: per-worker
heartbeats, a hang watchdog with zoid-volume-scaled task deadlines,
crash detection, bounded retry with exponential backoff on respawned
workers, and rollback to the last trapezoid-time-block boundary.  A
SIGSEGV, abort, or hang in generated code kills a disposable worker —
never the job.

Public surface:

* :class:`SuperviseOptions` — the policy knobs
  (``RunOptions(supervise=...)``);
* :func:`repro.supervise.session.open_session` — driver-side entry
  (used by :mod:`repro.trap.driver`; returns ``None`` and records a
  degradation when supervision is unavailable);
* :func:`live_worker_pids` — pids of this process's currently attached
  workers (the SIGKILL stress harness aims here);
* :func:`shutdown_workers` — tear down the idle worker pool (tests).
"""

from __future__ import annotations

from repro.supervise.options import SuperviseOptions

__all__ = [
    "SuperviseOptions",
    "live_worker_pids",
    "shutdown_workers",
]


def live_worker_pids() -> tuple[int, ...]:
    """Pids of worker subprocesses currently attached to a session."""
    from repro.supervise.session import live_worker_pids as _pids

    return _pids()


def shutdown_workers() -> None:
    """Terminate every pooled worker subprocess (idle and attached)."""
    from repro.supervise.session import shutdown_workers as _shutdown

    _shutdown()
