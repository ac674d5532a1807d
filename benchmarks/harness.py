"""Standalone evaluation harness: regenerate every table/figure at once.

Usage::

    python benchmarks/harness.py                  # everything, small scale
    python benchmarks/harness.py --fig3 --fig9    # selected experiments
    REPRO_BENCH_SCALE=tiny python benchmarks/harness.py   # smoke scale

Each section prints a paper-style table; EXPERIMENTS.md records one such
run next to the paper's reported numbers.  (pytest-benchmark timing
statistics live in ``pytest benchmarks/ --benchmark-only``; this script
is the narrative, one-shot view.)  Every section also returns its
numbers as a dict, and a full (all-sections) run writes them to
``BENCH_harness.json`` at the repo root — the machine-readable record
of the paper's figures at laptop scale.  Partial runs and ``--no-json``
leave the record untouched.  End-to-end performance is measured
separately, by ``benchmarks/e2e/run.py`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.bench_util import (  # noqa: E402
    all_boundary,
    is_tiny,
    per_leaf_plan,
    run_serial,
    wall,
    wall_clean,
    write_bench_json,
)
from repro.analysis.reporting import Fig3Row, fig3_table, series_table  # noqa: E402
from repro.analysis.theory import parallelism_growth_exponent  # noqa: E402
from repro.apps import build  # noqa: E402
from repro.autotune import tune_blocked_loops, tune_coarsening  # noqa: E402
from repro.cachesim import simulate_loops_cache, simulate_plan_cache  # noqa: E402
from repro.compiler.pipeline import available_modes  # noqa: E402
from repro.language.stencil import RunOptions  # noqa: E402
from repro.runtime.scheduler import simulate_greedy  # noqa: E402
from repro.runtime.workspan import analyze_walk  # noqa: E402
from repro.trap.driver import build_events  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + "/tests")


def scale() -> str:
    return "tiny" if is_tiny() else "small"


def _heat_problem(sizes, boundary="periodic", seed=0):
    from tests.conftest import make_heat_problem

    return make_heat_problem(sizes, boundary=boundary, seed=seed)


def run_intro() -> dict:
    sizes, T = ((96, 96), 32) if is_tiny() else ((1536, 1536), 96)
    st1, _, k1 = _heat_problem(sizes)
    t_trap = wall(lambda: st1.run(T, k1, algorithm="trap"))
    st2, _, k2 = _heat_problem(sizes)
    t_loops = wall(lambda: st2.run(T, k2, algorithm="serial_loops"))
    print(
        f"\n== Intro (Section 1): 2D heat {sizes[0]}^2 x {T}\n"
        f"   TRAP {t_trap:.3f}s   serial LOOPS {t_loops:.3f}s   "
        f"ratio {t_loops / t_trap:.2f}x   (paper at 5000^2 x 5000: >10x)"
    )
    return {
        "grid": list(sizes),
        "steps": T,
        "trap_s": round(t_trap, 4),
        "serial_loops_s": round(t_loops, 4),
        "loops_over_trap": round(t_loops / t_trap, 3),
    }


FIG3_APPS = [
    ("heat2d", "2"), ("heat2dp", "2p"), ("heat4d", "4"), ("life", "2p"),
    ("wave3d", "3"), ("lbm", "2p"), ("rna", "2"), ("psa", "1"),
    ("lcs", "1"), ("apop", "1"),
]


def run_fig3() -> dict:
    P = 12
    rows = []
    for name, dims in FIG3_APPS:
        app = build(name, scale())
        t_trap = wall(lambda: app.run(algorithm="trap"))
        checksum = app.checksum()

        app_sim = build(name, scale())
        problem = app_sim.stencil.prepare(app_sim.steps, app_sim.kernel)
        events = list(build_events(problem, RunOptions(algorithm="trap")))
        speedup = simulate_greedy(events, 1) / max(
            simulate_greedy(events, P), 1e-12
        )
        t_trap_p = t_trap / speedup

        app2 = build(name, scale())
        t_serial = wall(lambda: app2.run(algorithm="serial_loops"))
        assert app2.checksum() == checksum, f"{name} loops diverged"
        app3 = build(name, scale())
        t_par = wall(lambda: app3.run(algorithm="loops"))
        t_par_p = min(t_par, t_serial / min(P, app3.sizes[0]))

        rows.append(
            Fig3Row(
                benchmark=name, dims=dims,
                grid="x".join(map(str, app.sizes)), steps=app.steps,
                pochoir_1core=t_trap, pochoir_pcore=t_trap_p, speedup=speedup,
                serial_loops=t_serial,
                serial_ratio=t_serial / t_trap_p,
                parallel_loops=t_par_p,
                parallel_ratio=t_par_p / t_trap_p,
            )
        )
        print(f"   [fig3] {name} done", file=sys.stderr)
    print("\n== Figure 3\n" + fig3_table(rows, processors=P))
    return {
        "processors": P,
        "rows": [
            {
                "benchmark": r.benchmark,
                "grid": r.grid,
                "steps": r.steps,
                "pochoir_1core_s": round(r.pochoir_1core, 4),
                "serial_loops_s": round(r.serial_loops, 4),
                "serial_ratio": round(r.serial_ratio, 3),
            }
            for r in rows
        ],
    }


def run_fig5() -> dict:
    print("\n== Figure 5: Pochoir vs blocked-loop autotuner (Mpoints/s)")
    blocks = (4, 8) if is_tiny() else (16, 32, 64)
    mode = "c" if "c" in available_modes() else "auto"
    out = {}
    for name in ("pt7", "pt27"):
        app_w = build(name, scale())
        app_w.run(algorithm="trap", mode=mode)  # warm kernel cache
        app = build(name, scale())
        pts = app.steps
        for s in app.sizes:
            pts *= s
        t_po = wall(lambda: app.run(algorithm="trap", mode=mode))

        def make(n=name):
            a = build(n, scale())
            return a.stencil, a.kernel

        tuned = tune_blocked_loops(
            make, app.steps, block_candidates=blocks, mode=mode
        )
        po, be = pts / t_po / 1e6, tuned.points_per_second / 1e6
        print(
            f"   {name}: pochoir {po:8.2f}  blocked {be:8.2f}  "
            f"ratio {po / be:.2f}  best block {tuned.block[:-1]} "
            f"(paper: 7pt 2.49 vs 2.0, 27pt 0.88 vs 0.95 GStencil/s)"
        )
        out[name] = {
            "pochoir_mpts": round(po, 3),
            "blocked_mpts": round(be, 3),
            "ratio": round(po / be, 3),
        }
    return out


def run_fig9() -> dict:
    out = {}
    cases = (
        {
            "name": "heat2d (paper fig 9a)",
            "ns": (100, 200, 400) if is_tiny() else (100, 400, 1600, 6400),
            "slopes": (1, 1), "height": 200 if is_tiny() else 1000,
        },
        {
            "name": "wave3d (paper fig 9b)",
            "ns": (50, 100) if is_tiny() else (100, 200, 400, 800),
            "slopes": (1, 1, 1), "height": 100 if is_tiny() else 1000,
        },
    )
    for cfg in cases:
        ndim = len(cfg["slopes"])
        trap, strap = [], []
        for n in cfg["ns"]:
            trap.append(
                analyze_walk((n,) * ndim, cfg["slopes"], cfg["height"]).parallelism
            )
            strap.append(
                analyze_walk(
                    (n,) * ndim, cfg["slopes"], cfg["height"], algorithm="strap"
                ).parallelism
            )
        print(
            "\n== Figure 9: "
            + series_table(
                cfg["name"],
                "N",
                cfg["ns"],
                {
                    "TRAP (hyperspace)": trap,
                    "STRAP (space cuts)": strap,
                    "ratio": [a / b for a, b in zip(trap, strap)],
                },
            )
        )
        e = lambda s: math.log(s[-1] / s[0]) / math.log(cfg["ns"][-1] / cfg["ns"][0])
        print(
            f"   growth exponents: trap {e(trap):.2f} "
            f"(theory {parallelism_growth_exponent(ndim, 'trap'):.2f}), "
            f"strap {e(strap):.2f} "
            f"(theory {parallelism_growth_exponent(ndim, 'strap'):.2f})"
        )
        out[cfg["name"]] = {
            "ns": list(cfg["ns"]),
            "trap_parallelism": [round(v, 1) for v in trap],
            "strap_parallelism": [round(v, 1) for v in strap],
            "trap_growth_exponent": round(e(trap), 3),
            "strap_growth_exponent": round(e(strap), 3),
        }
    return out


def run_fig10() -> dict:
    out = {}
    M, B = 4096, 8
    cases = {"heat2d": dict(ns=(24, 32), ndim=2, T=16)} if is_tiny() else {
        "heat2d": dict(ns=(32, 64, 96), ndim=2, T=32),
        "wave3d": dict(ns=(16, 24, 32), ndim=3, T=16),
    }
    for case, cfg in cases.items():
        rows = {"TRAP": [], "STRAP": [], "LOOPS": []}
        for n in cfg["ns"]:
            if cfg["ndim"] == 2:
                st_, _, k = _heat_problem((n, n), boundary="dirichlet")
                problem = st_.prepare(cfg["T"], k)
            else:
                from repro.apps.wave import build_wave

                app = build_wave((n, n, n), cfg["T"])
                problem = app.stencil.prepare(cfg["T"], app.kernel)
            protect = cfg["ndim"] >= 3
            thresholds = list((0,) * cfg["ndim"])
            if protect:
                thresholds[-1] = 1 << 30
            for alg, key in (("trap", "TRAP"), ("strap", "STRAP")):
                events = build_events(
                    problem,
                    RunOptions(
                        algorithm=alg, dt_threshold=1,
                        space_thresholds=tuple(thresholds),
                        protect_unit_stride=protect,
                    ),
                )
                rows[key].append(
                    simulate_plan_cache(
                        problem, events, capacity_points=M, line_points=B
                    ).miss_ratio
                )
            rows["LOOPS"].append(
                simulate_loops_cache(
                    problem, capacity_points=M, line_points=B
                ).miss_ratio
            )
        print(
            "\n== Figure 10: "
            + series_table(
                f"{case} ideal-cache miss ratio (M={M}, B={B})",
                "N", cfg["ns"], rows,
            )
        )
        out[case] = {
            "ns": list(cfg["ns"]),
            **{
                key: [round(v, 4) for v in vals] for key, vals in rows.items()
            },
        }
    return out


def run_fig13() -> dict:
    ns, T = ((32, 64), 8) if is_tiny() else ((64, 128, 256), 16)
    series = {}
    for mode in [m for m in ("interp", "macro_shadow", "split_pointer", "c")
                 if m in available_modes()]:
        rates = []
        for n in ns:
            steps = T if mode != "interp" else max(2, T // 8)
            st_w, _, k_w = _heat_problem((n, n))
            st_w.run(1, k_w, mode=mode)  # load the kernel's code once
            st_, _, k = _heat_problem((n, n))
            elapsed = wall(lambda: st_.run(steps, k, mode=mode))
            rates.append(n * n * steps / elapsed)
        series[mode] = [f"{r:.3g}" for r in rates]
    print(
        "\n== Figure 13: "
        + series_table("points/s by codegen mode (2D heat torus)", "N", ns,
                       series)
    )
    return {"ns": list(ns), "points_per_s": series}


def run_sec4() -> dict:
    from repro.compiler.pipeline import compile_kernel

    sizes, T = ((64, 64), 16) if is_tiny() else ((384, 384), 96)
    st_, u, k = _heat_problem(sizes)
    problem = st_.prepare(T, k)
    # The ablation isolates Section 4's *cloning* decision at per-step
    # granularity, so strip the fused leaves from both runs: a fused
    # snapshot leaf pays no per-index modulo and would let the strawman
    # dodge the cost this experiment measures.
    compiled = compile_kernel(problem, "auto").without_fused_leaves()
    events = per_leaf_plan(problem)
    t_cloned = wall_clean(lambda: run_serial(events, compiled))
    all_bnd = all_boundary(events)
    t_mod = wall_clean(lambda: run_serial(all_bnd, compiled))
    print(
        f"\n== Section 4 cloning ablation: modulo-everywhere / clone-based "
        f"= {t_mod / t_cloned:.2f}x slower (paper: 2.3x)"
    )
    out = {
        "cloning": {
            "grid": list(sizes),
            "steps": T,
            "clone_based_s": round(t_cloned, 4),
            "modulo_everywhere_s": round(t_mod, 4),
            "slowdown": round(t_mod / t_cloned, 3),
        },
        "coarsening": {},
    }

    sizes, T = ((64, 64), 16) if is_tiny() else ((256, 256), 64)
    print("== Section 4 coarsening ablation (2D heat wall seconds):")
    for name, kw in (
        ("fine_8x8x2", dict(space_thresholds=(8, 8), dt_threshold=2)),
        ("paper_100x100x5", dict(space_thresholds=(100, 100), dt_threshold=5)),
        ("defaults", {}),
    ):
        s2, _, k2 = _heat_problem(sizes)
        elapsed = wall(lambda: s2.run(T, k2, **kw))
        print(f"   {name:18s} {elapsed:.3f}s")
        out["coarsening"][name] = round(elapsed, 4)
    return out


SECTIONS = {
    "intro": run_intro,
    "fig3": run_fig3,
    "fig5": run_fig5,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig13": run_fig13,
    "sec4": run_sec4,
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    for name in SECTIONS:
        parser.add_argument(f"--{name}", action="store_true")
    parser.add_argument(
        "--no-json",
        action="store_true",
        help="skip writing BENCH_harness.json (printed tables only)",
    )
    args = parser.parse_args(argv)
    chosen = [n for n in SECTIONS if getattr(args, n)] or list(SECTIONS)
    t0 = time.time()
    print(f"repro evaluation harness — scale={scale()}, sections={chosen}")
    results = {name: SECTIONS[name]() for name in chosen}
    elapsed = time.time() - t0
    if args.no_json or len(chosen) < len(SECTIONS):
        # Partial sweeps never write: a few-section record would clobber
        # the full perf-trajectory file compared across PRs.
        if not args.no_json:
            print("\n(partial run: BENCH_harness.json not written)")
    else:
        path = write_bench_json(
            "harness", {"sections": results, "total_s": round(elapsed, 1)}
        )
        print(f"\nwrote {path}")
    print(f"\ntotal: {elapsed:.1f}s")


if __name__ == "__main__":
    main()
