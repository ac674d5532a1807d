"""The five workloads, their inputs, and how one operation is run and checked.

An *operation* is what a user waits for: one ``Stencil.run`` (local
workloads) or one ``StencilClient.submit_many`` burst (served
workloads).  Every operation starts from the same seeded initial state,
so every result of one input must have the same digest — and that digest
must equal an independent reference (``serial_loops`` on the NumPy
backend; the reduced twins go further and compare against the Phase-1
interpreter).  Importing this module imports ``numpy`` and ``repro``;
``run.py`` times that import as part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import run_phase1
from repro.apps.heat import build_heat
from repro.apps.registry import AppInstance
from repro.apps.wave import build_wave
from repro.compiler import pipeline
from repro.language.stencil import RunReport
from repro.serve import StencilClient

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: The independent full-size reference: plain time-step loops over the whole
#: grid on the NumPy backend — no trapezoids, no C, no batching, no wire.
REFERENCE = {"algorithm": "serial_loops", "mode": "split_pointer"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    served: bool
    build: Callable[[int], AppInstance]
    #: Reduced twin (same kernel and boundary) small enough for Phase 1.
    twin: Callable[[int], AppInstance]
    #: ``Stencil.run`` options of a local workload; for a served workload,
    #: the local run equivalent to what the server executes (the traced
    #: pass drives the plan/executor layers with it).
    options: dict = field(default_factory=dict)
    #: Jobs per operation, and how many distinct bursts of inputs exist.
    burst: int = 1
    pool: int = 1
    #: Untimed operations between set-up and the timed loop.
    warmup: int = 1


def _heat(sizes, steps):
    return lambda seed: build_heat(sizes, steps, seed=seed)


def _wave(sizes, steps):
    return lambda seed: build_wave(sizes, steps, seed=seed)


C_SERIAL = {"mode": "c", "executor": "serial", "walk_threads": 1}
C_DAG2 = {"mode": "c", "n_workers": 2, "walk_threads": 1}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heat2d_c_serial",
            "compiled walk + fused C leaf own >90% of wall: leaf/SIMD/bytes-per-point changes show here, wire/queue changes must not",
            False,
            _heat((2048, 2048), 64),
            _heat((48, 48), 12),
            C_SERIAL,
        ),
        Workload(
            "heat2d_c_par",
            "same problem under the 2-worker task-DAG executor: the serial Python plan + graph build is the Amdahl fraction",
            False,
            _heat((2048, 2048), 64),
            _heat((48, 48), 12),
            C_DAG2,
        ),
        Workload(
            "wave3d_default",
            "stencil.run() with no options: auto resolves to NumPy, zero subtree tasks; flat for C-leaf-only changes until auto flips",
            False,
            _wave((128, 128, 128), 16),
            _wave((16, 16, 16), 6),
        ),
        Workload(
            "serve_small_burst",
            "pipelined bursts of 8 tiny jobs over TCP: framing, pickling, queueing and batch formation dominate, the leaf does almost nothing",
            True,
            # 32x32, not the issue's 64x64: eight 64x64 frames take about as
            # long to arrive as the 2 ms batch window, so the share of bursts
            # split into two batches swung between 4% and 50% from run to
            # run and the median with it.  Eight 17 KB frames fit the window.
            _heat((32, 32), 16),
            _heat((24, 24), 8),
            C_SERIAL,
            burst=8,
            pool=32,
        ),
        Workload(
            "serve_large_solo",
            "single 16.8 MB jobs through the same server: wire bytes, stack/scatter and copy-back dominate; batching policy must not matter",
            True,
            _heat((1024, 1024), 8),
            _heat((24, 24), 8),
            C_SERIAL,
            pool=4,
            # The server is ~20% slower until its 16-entry result journal is
            # full and it starts reusing freed memory.
            warmup=20,
        ),
    )
}


# -- hermetic state -----------------------------------------------------------

_state_ids = itertools.count()


def fresh_state(scratch: Path) -> Path:
    """Point every persistent cache at a new empty directory and drop the
    in-process compile cache, so the next compile really runs ``cc``."""
    state = scratch / f"state{next(_state_ids)}"
    state.mkdir(parents=True)
    os.environ["REPRO_CC_CACHE"] = str(state / "cc")
    os.environ["REPRO_TUNE_REGISTRY"] = str(state / "registry.json")
    os.environ["REPRO_CC_COUNT_FILE"] = str(state / "cc_count")
    pipeline.clear_cache()
    return state


def cc_invocations(state: Path) -> int:
    """``cc`` runs recorded since :func:`fresh_state` made ``state`` (the
    count file is appended to by every process that inherits the env)."""
    try:
        return len((state / "cc_count").read_text().splitlines())
    except FileNotFoundError:
        return 0


# -- the server child ---------------------------------------------------------


class ServerProc:
    """The job server in a child process plus one connected client."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py")],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.client = None
        try:
            line = self.proc.stdout.readline().split()
            if line[:1] != ["PORT"]:
                raise RuntimeError(f"server child did not come up: {line!r}")
            # No request deadline: a deadline makes the server arm a timer
            # that keeps the job's arrays alive until it fires (60 s with
            # the client's default), so at this closed loop's rate the
            # server would retain ~150 MB/s (see README, Findings).  run.py's
            # alarm bounds a hang instead.
            self.client = StencilClient(
                "127.0.0.1", int(line[1]), request_timeout=None
            )
            if not self.client.health()["accepting"]:
                raise RuntimeError("server child is not accepting jobs")
        except BaseException:
            self.close()
            raise

    def submit(self, burst: list[AppInstance]):
        return self.client.submit_many(
            [(a.stencil, a.steps, a.kernel) for a in burst]
        )

    def close(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if that hangs."""
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- inputs, operations, checking ---------------------------------------------


def _digest(app: AppInstance) -> str:
    return hashlib.sha256(app.result()).hexdigest()


def _reports(out) -> list[RunReport]:
    """The ``RunReport``s an operation returned (one, a list, or none)."""
    if isinstance(out, RunReport):
        return [out]
    if isinstance(out, list) and out and isinstance(out[0], RunReport):
        return out
    return []


class Session:
    """A workload's generated inputs and the outcome of every operation.

    ``--seed`` reaches the program only through the initial data of these
    inputs; sizes, step counts and pool shape are fixed by the workload.
    """

    def __init__(self, wl: Workload, seed: int, *, twin: bool = False):
        self.wl = wl
        self.seed = seed
        self.twin = twin
        self._build = wl.twin if twin else wl.build
        self.pool = [
            [self._build(self._app_seed(b, j)) for j in range(wl.burst)]
            for b in range(1 if twin else wl.pool)
        ]
        self._initial = [
            [
                {n: a.data.copy() for n, a in app.stencil.arrays.items()}
                for app in burst
            ]
            for burst in self.pool
        ]
        #: digests[b][j]: one result digest per operation that ran input (b, j).
        self.digests = [[[] for _ in burst] for burst in self.pool]
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Inputs compared with the independent reference by :meth:`verify`.
        self.checked_inputs = 0

    def _app_seed(self, b: int, j: int) -> int:
        return self.seed * 100_003 + b * self.wl.burst + j

    @property
    def points_per_op(self) -> int:
        app = self.pool[0][0]
        return int(np.prod(app.sizes)) * app.steps * self.wl.burst

    def op(self, fn: Callable[[list[AppInstance]], object],
           jobs: int | None = None):
        """Run one operation on the next burst of the pool (its first
        ``jobs`` inputs): restore the inputs, time ``fn(burst)``, digest the
        results.  Returns ``(seconds, fn's value)``, or ``(None, None)`` when
        the operation failed — the failure is counted and the run goes on."""
        b = self.ops % len(self.pool)
        self.ops += 1
        burst = self.pool[b][:jobs]
        for app, saved in zip(burst, self._initial[b]):
            for name, data in saved.items():
                app.stencil.arrays[name].data[...] = data
            app.stencil.cursor = None
        self.attempted += len(burst)
        t0 = time.perf_counter()
        try:
            out = fn(burst)
        except Exception:
            self.failed += len(burst)
            self.errors.append(traceback.format_exc())
            return None, None
        seconds = time.perf_counter() - t0
        for j, app in enumerate(burst):
            self.digests[b][j].append(_digest(app))
        # A fallback that fired (cc failed -> NumPy, unbatched serving, ...)
        # means the operation was not the workload: never record its time.
        tags = {t for r in _reports(out) for t in r.degradations}
        if tags:
            self.failed += len(burst)
            self.errors.append(f"operation {self.ops} degraded: {sorted(tags)}")
            return None, None
        return seconds, out

    def _reference(self, b: int, j: int) -> str:
        ref = self._build(self._app_seed(b, j))
        if self.twin:
            run_phase1(ref.stencil, ref.steps, ref.kernel)
        else:
            ref.run(**REFERENCE)
        return _digest(ref)

    def verify(self) -> None:
        """Check every recorded digest; each wrong one is a failed operation.

        All results of one input must agree with each other.  A seeded
        1-in-16 sample of the inputs (at least one; every input of a twin)
        is additionally compared with the independent reference.
        """
        rng = random.Random(self.seed)
        used = [
            (b, j)
            for b, burst in enumerate(self.digests)
            for j, seen in enumerate(burst)
            if seen
        ]
        if not used:
            return
        sample = {k for k in used if self.twin or rng.randrange(16) == 0}
        sample.add(rng.choice(used))
        for b, j in used:
            seen = self.digests[b][j]
            want = self._reference(b, j) if (b, j) in sample else seen[0]
            wrong = sum(1 for d in seen if d != want)
            if wrong:
                self.failed += wrong
                self.errors.append(
                    f"input ({b},{j}): {wrong}/{len(seen)} results differ from "
                    f"{'the reference' if (b, j) in sample else 'the first result'}"
                )
        self.checked_inputs = len(sample)


def runner(wl: Workload, server: ServerProc | None):
    """The workload's real operation, as ``fn(burst)`` for :meth:`Session.op`."""
    if wl.served:
        return server.submit
    return lambda burst: burst[0].run(**wl.options)


def set_up(wl: Workload, seed: int, scratch: Path):
    """One complete set-up from cold: empty ``.so`` cache and registry,
    generated inputs, server spawn + health probe + connect (served), and
    the first operation, which pays the cold compile.  Returns
    ``(seconds, cc runs, session, server)``."""
    state = fresh_state(scratch)
    t0 = time.perf_counter()
    session = Session(wl, seed)
    server = ServerProc() if wl.served else None
    try:
        session.op(runner(wl, server))
    except BaseException:
        if server is not None:
            server.close()
        raise
    return time.perf_counter() - t0, cc_invocations(state), session, server


def check_twin(wl: Workload, seed: int, server: ServerProc | None) -> Session:
    """Run the reduced twin through the workload's own path and compare it
    bitwise with the Phase-1 interpreter."""
    twin = Session(wl, seed, twin=True)
    twin.op(runner(wl, server))
    twin.verify()
    return twin


def timed_loop(session: Session, fn, seconds: float, min_ops: int,
               jobs: int | None = None) -> list[tuple[float, object]]:
    """Closed loop: the next operation starts when the previous one has
    completed, for at least ``min_ops`` operations and ``seconds``.  Returns
    ``(seconds, fn's value)`` of the operations that succeeded; gives up
    once more have failed than were asked for."""
    done: list[tuple[float, object]] = []
    deadline = time.perf_counter() + seconds
    failures = 0
    while (len(done) < min_ops or time.perf_counter() < deadline) and failures <= min_ops:
        result = session.op(fn, jobs)
        if result[0] is None:
            failures += 1
        else:
            done.append(result)
    return done


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten
    samples beyond it (``None`` under 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    med = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n >= 2 else (med, med, med)
    out = {"n": n, "median": med,
           "iqr_pct": 100.0 * (q3 - q1) / med if med else 0.0,
           "tail": None, "tail_pct": None}
    if n >= 11:
        out["tail"] = ordered[n - 11]
        out["tail_pct"] = 100.0 * (n - 10) / n
    return out
