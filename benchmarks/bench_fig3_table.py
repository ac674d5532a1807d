"""Figure 3: the ten-benchmark table — Pochoir vs serial/parallel loops.

For each benchmark the paper reports Pochoir 1-core and 12-core times,
serial-loop and 12-core-loop times, and the ratios.  Here each app runs
at laptop scale; "12-core" columns come from the greedy-scheduler
simulation over the real decomposition plan (DESIGN.md substitution),
while 1-core numbers and the 2-thread executor are measured wall clock.

Run with ``-s`` to see the assembled table; the same rows are written by
``benchmarks/harness.py --fig3``.
"""

import numpy as np
import pytest

from benchmarks.bench_util import is_tiny, once, wall
from repro.analysis.reporting import Fig3Row, fig3_table
from repro.apps import build
from repro.language.stencil import RunOptions
from repro.runtime.scheduler import simulate_greedy
from repro.trap.driver import build_events

SIM_PROCESSORS = 12

#: (app, dims label) in the paper's row order.
FIG3_APPS = [
    ("heat2d", "2"),
    ("heat2dp", "2p"),
    ("heat4d", "4"),
    ("life", "2p"),
    ("wave3d", "3"),
    ("lbm", "2p"),
    ("rna", "2"),
    ("psa", "1"),
    ("lcs", "1"),
    ("apop", "1"),
]

_rows: list[Fig3Row] = []


def _scale():
    return "tiny" if is_tiny() else "small"


def _measure_row(name: str, dims: str) -> Fig3Row:
    scale = _scale()

    # Pochoir (TRAP) one core, measured.
    app = build(name, scale)
    t_trap = wall(lambda: app.run(algorithm="trap", executor="serial"))
    checksum = app.checksum()

    # Simulated P-core time from the same decomposition.
    app_sim = build(name, scale)
    problem = app_sim.stencil.prepare(app_sim.steps, app_sim.kernel)
    events = list(build_events(problem, RunOptions(algorithm="trap")))
    t1_units = simulate_greedy(events, 1)
    tp_units = simulate_greedy(events, SIM_PROCESSORS)
    sim_speedup = t1_units / tp_units if tp_units else 1.0
    t_trap_p = t_trap / sim_speedup

    # Loop baselines, measured.
    app2 = build(name, scale)
    t_serial = wall(lambda: app2.run(algorithm="serial_loops"))
    assert app2.checksum() == checksum, f"{name}: loops diverged from trap"

    app3 = build(name, scale)
    t_par = wall(lambda: app3.run(algorithm="loops"))
    # Scale the measured parallel-loop time to P simulated cores the same
    # way: loop parallelism is bounded by rows/chunks per step.
    t_par_p = min(t_par, t_serial / min(SIM_PROCESSORS, app3.sizes[0]))

    grid = "x".join(str(s) for s in app.sizes)
    return Fig3Row(
        benchmark=name,
        dims=dims,
        grid=grid,
        steps=app.steps,
        pochoir_1core=t_trap,
        pochoir_pcore=t_trap_p,
        speedup=sim_speedup,
        serial_loops=t_serial,
        serial_ratio=t_serial / t_trap_p if t_trap_p else 0.0,
        parallel_loops=t_par_p,
        parallel_ratio=t_par_p / t_trap_p if t_trap_p else 0.0,
    )


@pytest.mark.parametrize("name,dims", FIG3_APPS, ids=[a for a, _ in FIG3_APPS])
def test_fig3_row(benchmark, name, dims):
    row = once(benchmark, lambda: _measure_row(name, dims))
    _rows.append(row)
    benchmark.extra_info.update(
        {
            "grid": row.grid,
            "steps": row.steps,
            "serial_loops_over_pochoir_1c": round(
                row.serial_loops / row.pochoir_1core, 2
            ),
            "sim_speedup": round(row.speedup, 2),
        }
    )


@pytest.fixture(scope="module", autouse=True)
def _print_table_at_end():
    yield
    if _rows:
        print("\n" + fig3_table(_rows, processors=SIM_PROCESSORS))
