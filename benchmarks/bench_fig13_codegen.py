"""Figure 13: loop-index codegen modes on the 2D heat torus.

The paper sweeps grid size N for ``-split-pointer`` vs
``-split-macro-shadow`` and finds the pointer mode ~2-4x faster
(1.2e8 .. 5.3e9 points/s on their axis).  The repro analogues:

* ``split_pointer``  -> vectorized NumPy slice kernels
* ``macro_shadow``   -> generated per-point Python (unchecked), built by
                        ``bench_util.run_macro_shadow`` (not a run mode)
* ``checked``        -> Phase 1, ``run_phase1`` (for scale)
* ``c``              -> generated C via the system compiler (when present)

Expected shape: split_pointer and c orders of magnitude above the
per-point modes, gap widening with N (vector lengths amortize dispatch).
"""

import pytest

from benchmarks.bench_util import (
    codegen_rows,
    is_tiny,
    once,
    run_codegen_row,
    wall,
)
from repro.analysis.reporting import series_table
from tests.conftest import make_heat_problem

_series: dict[str, list] = {}
_ns: list[int] = []


def _cfg():
    if is_tiny():
        return (32, 64), 8
    return (64, 128, 256), 16


@pytest.mark.parametrize("mode", codegen_rows())
def test_fig13_mode_throughput(benchmark, mode):
    ns, T = _cfg()

    def run():
        rates = []
        for n in ns:
            steps = T if mode != "checked" else max(2, T // 8)
            # Load the kernel's code (cc and dlopen for "c", NumPy source
            # generation and compile()) on a throwaway problem; the
            # measured run on new arrays reuses it, steady-state like the
            # paper's (compile once, run many) usage.
            st_w, _, k_w = make_heat_problem((n, n), boundary="periodic")
            run_codegen_row(mode, st_w, 1, k_w)
            st_, u, k = make_heat_problem((n, n), boundary="periodic")
            elapsed = wall(lambda: run_codegen_row(mode, st_, steps, k))
            rates.append(n * n * steps / elapsed)
        return rates

    rates = once(benchmark, run)
    global _ns
    _ns = list(ns)
    _series[mode] = rates
    benchmark.extra_info["points_per_s"] = [f"{r:.3g}" for r in rates]


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    if not _series:
        return
    print(
        "\n"
        + series_table(
            "Figure 13: grid points/second by codegen mode "
            "(paper: -split-pointer above -split-macro-shadow, both far "
            "above naive)",
            "N",
            _ns,
            {m: [f"{r:.3g}" for r in rs] for m, rs in _series.items()},
        )
    )
    if "split_pointer" in _series and "macro_shadow" in _series:
        sp = _series["split_pointer"][-1]
        ms = _series["macro_shadow"][-1]
        print(f"split_pointer / macro_shadow at N={_ns[-1]}: {sp / ms:.1f}x")
        assert sp > ms, "vectorized mode must beat per-point mode"
