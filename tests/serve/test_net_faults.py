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

The same four sites also run singly against jobs large enough to travel
in a lease.  A final leg arms ``worker.segfault`` *behind* the server (supervised
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


def _serve_options(max_batch, **run):
    return ServeOptions(
        max_batch=max_batch, batch_window=0.05, run=RunOptions(mode=MODE, **run)
    )


def _run_jobs(lb, apps, *, retries=8):
    client = StencilClient(
        lb.host,
        lb.port,
        retries=retries,
        backoff=0.02,
        request_timeout=60.0,
    )
    with client:
        return client.submit_many([(a.stencil, a.steps, a.kernel) for a in apps])


@pytest.mark.parametrize(
    "combo", COMBOS, ids=["+".join(s.split(".")[1] for s in c) for c in COMBOS]
)
def test_fault_matrix_exactly_once_bitwise(combo):
    K = 3
    with LoopbackServer(_serve_options(max_batch=8)) as lb:
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


LEASED_SITES = ("net.accept", "net.torn", "net.drop", "net.slow")


@pytest.mark.parametrize("site", LEASED_SITES, ids=lambda s: s.split(".")[1])
def test_leased_jobs_exactly_once_bitwise(site):
    # Jobs larger than the server's staging buffer run in a lease once
    # their size recurs on a connection, so the fault is armed after two
    # of them: it hits the RESULT of a leased job, which carries lease
    # references and no bytes.  A torn or dropped one closes the
    # connection, the server releases its lease, and the retry on a new
    # connection replays the journaled result inline.  net.accept hits
    # the first connection instead; leasing starts again on the retry's.
    K = 4
    sizes = (160, 160)
    apps = [build_heat(sizes, 4, seed=s) for s in range(K)]
    with LoopbackServer(_serve_options(max_batch=8)) as lb, StencilClient(
        lb.host, lb.port, retries=8, backoff=0.02, request_timeout=60.0
    ) as client:
        plan = faults.FaultPlan()
        plan.add(site, times=1)
        try:
            if site == "net.accept":
                faults.install(plan)
            reports = [client.submit(a.stencil, a.steps, a.kernel) for a in apps[:2]]
            if site != "net.accept":
                faults.install(plan)
            reports += [client.submit(a.stencil, a.steps, a.kernel) for a in apps[2:]]
        finally:
            faults.clear()
        assert lb.server.stats["completed"] == K
        assert lb.net.stats["wire_faults"] == 1
        assert lb.net.stats["leases"] >= 1
        if site == "net.accept":
            assert reports[0].attempts > 1
            assert [r.transport for r in reports] == ["tcp", "tcp", "shm", "shm"]
        elif site == "net.slow":
            assert [r.transport for r in reports[2:]] == ["shm", "shm"]
        else:
            assert reports[2].attempts > 1 and reports[2].replayed
    for seed, app in enumerate(apps):
        ref = build_heat(sizes, 4, seed=seed)
        ref.run(mode=MODE)
        assert np.array_equal(app.result(), ref.result())


def test_repeated_faults_under_sustained_load():
    # Every site armed to fire twice against a larger pipelined batch:
    # the retry/replay machinery absorbs eight wire faults in a row.
    K = 4
    with LoopbackServer(_serve_options(max_batch=8)) as lb:
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
    with LoopbackServer(_serve_options(max_batch=4, executor="procs")) as lb:
        try:
            plan = faults.FaultPlan()
            plan.add("worker.segfault", times=1)
            plan.add("net.drop", times=1)
            faults.install(plan)
            app = _build(0)
            (report,) = _run_jobs(lb, [app])
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
