"""Section 4 ablation: code cloning vs modulo-on-every-index.

The paper: a 2D periodic heat implementation that applies the index
modulo at every access runs 2.3x slower than the clone-based code
(interior clone never checks; boundary clone pays the modulo only on the
thin boundary).  The repro ablation executes the *same TRAP plan* twice:
once as compiled (interior clone on interior zoids) and once with every
base region forced through the boundary clone — exactly "modulo every
index".
"""

import numpy as np
import pytest

from benchmarks.bench_util import (
    all_boundary,
    is_tiny,
    once,
    per_leaf_plan,
    run_serial,
    wall_clean,
)
from repro.compiler.pipeline import compile_kernel
from repro.trap.plan import iter_base_events, stats_from_regions
from tests.conftest import make_heat_problem

_times: dict[str, float] = {}


def _cfg():
    return ((64, 64), 16) if is_tiny() else ((384, 384), 96)


def _prepared():
    sizes, T = _cfg()
    st_, u, k = make_heat_problem(sizes, boundary="periodic")
    problem = st_.prepare(T, k)
    # Strip the fused leaves: this ablation isolates the cloning decision
    # at per-step granularity, and the snapshot-based fused boundary leaf
    # pays no per-index modulo — with it, the strawman would dodge the
    # very cost the experiment measures.
    compiled = compile_kernel(problem, "auto").without_fused_leaves()
    return problem, compiled, per_leaf_plan(problem), u


def test_cloned(benchmark):
    problem, compiled, events, u = _prepared()
    stats = stats_from_regions(iter_base_events(events))
    elapsed = once(
        benchmark, lambda: wall_clean(lambda: run_serial(events, compiled))
    )
    _times["cloned"] = elapsed
    benchmark.extra_info["interior_fraction"] = round(
        1 - stats.boundary_fraction, 3
    )
    _times["result_cloned"] = float(
        u.data[(problem.t_end - 1) % u.slots].sum()
    )


def test_modulo_everywhere(benchmark):
    problem, compiled, events, u = _prepared()
    # Force every base region through the boundary clone: every access
    # pays the modulo/boundary machinery, as in the paper's strawman.
    strawman = all_boundary(events)
    elapsed = once(
        benchmark,
        lambda: wall_clean(lambda: run_serial(strawman, compiled)),
    )
    _times["modulo"] = elapsed
    _times["result_modulo"] = float(
        u.data[(problem.t_end - 1) % u.slots].sum()
    )


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if "cloned" in _times and "modulo" in _times:
        # Same plan, same kernel: results must agree exactly.
        assert _times["result_cloned"] == pytest.approx(
            _times["result_modulo"], rel=1e-12
        )
        ratio = _times["modulo"] / _times["cloned"]
        print(
            f"\n[sec4 cloning] modulo-everywhere / clone-based = "
            f"{ratio:.2f}x slower (paper: 2.3x)"
        )
