"""Executor equivalence across every registered app.

The trapezoidal decomposition partitions space-time and each point is
written exactly once from reads of strictly earlier levels, so *any*
dependency-respecting schedule — serial elision or the ready-queue
task DAG — must produce bit-identical grids and run the
identical set of base cases.  This is the safety net for the task-DAG
runtime: a missing dependency edge would show up here as a bitwise
mismatch on some app.

The same argument covers tuned configs: a tuned config moves only
dispatch knobs, so a run under one must match the heuristic run bit for
bit under every executor — the second sweep here passes a randomized
(seeded RNG) tuned config per app as options and checks exactly that.
"""

import zlib

import numpy as np
import pytest

from repro.apps import available_apps, build
from repro.autotune.registry import TunedConfig

EXECUTORS = ("serial", "dag")


@pytest.mark.parametrize("name", available_apps())
def test_all_executors_bit_identical(name):
    results = {}
    for executor in EXECUTORS:
        app = build(name, "tiny")
        # A low time-cut threshold forces a real multi-region plan even at
        # tiny scale, so the parallel executors schedule actual DAGs.
        report = app.run(
            executor=executor,
            n_workers=None if executor == "serial" else 3,
            dt_threshold=2,
        )
        results[executor] = (app.result(), report)
        assert report.executor == executor
        if executor == "serial":
            assert report.n_workers == 1
        else:
            # Degenerate plans (a single base case) honestly report the
            # one worker that ran; otherwise the requested count shows up.
            assert report.n_workers in (1, 3)

    ref_grid, ref_report = results["serial"]
    for executor in EXECUTORS[1:]:
        grid, report = results[executor]
        assert np.array_equal(grid, ref_grid), (
            f"{name}: {executor} grid differs from serial"
        )
        assert report.base_cases == ref_report.base_cases, (
            f"{name}: {executor} ran a different decomposition"
        )


@pytest.mark.parametrize("name", available_apps())
def test_tuned_config_bit_identical_across_executors(name):
    """A tuned config must be invisible to results: for each app, a
    seeded random (valid) config, passed as options under every
    executor, reproduces the heuristic-default serial run bitwise."""
    ref_app = build(name, "tiny")
    ref_app.run(dt_threshold=2)
    ref = ref_app.result()

    # crc32, not hash(): str hashing is salted per process, and a failure
    # must reproduce with the exact same config on rerun.
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    config = TunedConfig(
        space_thresholds=tuple(
            int(rng.integers(3, 16)) for _ in range(ref_app.stencil.ndim)
        ),
        dt_threshold=int(rng.integers(1, 5)),
        n_workers=int(rng.integers(1, 4)),
    )

    for executor in EXECUTORS:
        app = build(name, "tiny")
        report = app.run(
            **{**config.as_options(), "executor": executor, "dt_threshold": 2}
        )
        assert report.executor == executor, (name, executor)
        assert np.array_equal(app.result(), ref), (
            f"{name}: tuned config under {executor!r} diverged from the "
            f"heuristic run (config={config})"
        )
