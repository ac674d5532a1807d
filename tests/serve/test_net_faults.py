"""The client×server fault matrix: exactly-once under every wire fault.

Every combination of the ``net.*`` sites (listener flap, torn response
frame, connection drop after execution, slow peer) is armed against a
live loopback endpoint while a retrying client pipelines a batch of
jobs.  The acceptance contract, asserted per combination:

* every job completes with results bitwise-identical to a local run
  (zero silent drops),
* ``server.stats["completed"]`` equals the number of distinct jobs
  (zero duplicate executions across however many wire attempts the
  client needed — retried keys replay from the journal), and
* the server itself never dies: stats stay consistent and the drain on
  teardown is clean.

A final leg arms ``worker.segfault`` *behind* the server (supervised
out-of-process execution), proving an execution-layer fault composes
with the wire ones.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import RunOptions
from repro.apps.heat import build_heat
from repro.resilience import faults
from repro.serve import LoopbackServer, ServeOptions, StencilClient
from tests.conftest import has_c_backend

MODE = "c" if has_c_backend() else "split_pointer"

SITES = ("net.accept", "net.torn", "net.drop", "net.slow")
COMBOS = [
    combo
    for r in range(1, len(SITES) + 1)
    for combo in itertools.combinations(SITES, r)
]


def _build(seed):
    return build_heat((16, 16), 4, seed=seed)


def _refs(n):
    out = []
    for s in range(n):
        app = _build(s)
        app.run(mode=MODE)
        out.append(app.result())
    return out


def _run_jobs(lb, apps, *, retries=8, options=None):
    client = StencilClient(
        lb.host,
        lb.port,
        retries=retries,
        backoff=0.02,
        request_timeout=60.0,
    )
    with client:
        return client.submit_many(
            [(a.stencil, a.steps, a.kernel) for a in apps],
            options if options is not None else RunOptions(mode=MODE),
        )


@pytest.mark.parametrize(
    "combo", COMBOS, ids=["+".join(s.split(".")[1] for s in c) for c in COMBOS]
)
def test_fault_matrix_exactly_once_bitwise(combo):
    K = 3
    with LoopbackServer(ServeOptions(max_batch=8, batch_window=0.05)) as lb:
        try:
            plan = faults.FaultPlan()
            for site in combo:
                plan.add(site, times=1)
            faults.install(plan)
            apps = [_build(s) for s in range(K)]
            reports = _run_jobs(lb, apps)
        finally:
            faults.clear()
        fired = sum(faults.fired(s) for s in combo)  # 0 after clear()
        assert len(reports) == K
        # Zero silent drops, zero duplicate executions: each distinct
        # job ran exactly once, whatever the wire did.
        assert lb.server.stats["submitted"] == K
        assert lb.server.stats["completed"] == K
        assert lb.net.stats["wire_faults"] >= len(combo) - fired
        for rep in reports:
            assert rep.transport == "tcp"
            assert 1 <= rep.attempts <= 9
            if rep.replayed:
                # A replay proves the dedup path: the journal answered
                # the retry of an already-executed job.
                assert rep.attempts > 1
    for app, ref in zip(apps, _refs(K)):
        assert np.array_equal(app.result(), ref)


def test_repeated_faults_under_sustained_load():
    # Every site armed to fire twice against a larger pipelined batch:
    # the retry/replay machinery absorbs eight wire faults in a row.
    K = 4
    with LoopbackServer(ServeOptions(max_batch=8, batch_window=0.05)) as lb:
        try:
            plan = faults.FaultPlan()
            for site in SITES:
                plan.add(site, times=2)
            faults.install(plan)
            apps = [_build(s) for s in range(K)]
            reports = _run_jobs(lb, apps, retries=12)
        finally:
            faults.clear()
        assert len(reports) == K
        assert lb.server.stats["completed"] == K
        assert lb.net.stats["wire_faults"] >= 4
        assert lb.net.stats["replayed"] >= 1
        assert any("net:retried" in r.degradations for r in reports)
    for app, ref in zip(apps, _refs(K)):
        assert np.array_equal(app.result(), ref)


def test_worker_segfault_behind_the_server():
    # An execution-layer fault (a supervised worker dies on a real
    # SIGSEGV) composes with a wire fault on the response path: the
    # supervisor respawns and retries, the journal replays, the caller
    # still sees one bitwise-correct result.
    with LoopbackServer(ServeOptions(max_batch=4, batch_window=0.05)) as lb:
        try:
            plan = faults.FaultPlan()
            plan.add("worker.segfault", times=1)
            plan.add("net.drop", times=1)
            faults.install(plan)
            app = _build(0)
            (report,) = _run_jobs(
                lb, [app], options=RunOptions(mode=MODE, executor="procs")
            )
        finally:
            faults.clear()
        assert lb.server.stats["completed"] == 1
        assert lb.server.stats["batches"] == 1
        assert report.attempts > 1  # net.drop forced a wire retry
        # A lone supervised job is a local run of it: nothing to unstack.
        assert report.batch_size == 1
        assert "batch:unstackable->sequential" not in report.degradations
        assert "supervise:worker-crashed->respawned" in report.degradations
    assert np.array_equal(app.result(), _refs(1)[0])
