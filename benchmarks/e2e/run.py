#!/usr/bin/env python3
"""The end-to-end benchmark (see README.md next to this file).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--traced]   # every workload
    python3 benchmarks/e2e/run.py --check                 # correctness only
    python3 benchmarks/e2e/run.py --aa                    # two sets, compared

With ``--workload`` the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics ``BENCHMARK.json``
names — the end-to-end ones for ``--trace 0``, the per-layer ones for
``--trace 1``.  Everything written lands under ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

#: Cold set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Fewest timed operations of a run, however short ``--seconds`` is.
MIN_OPS = 5

#: Per-layer metrics that must repeat exactly between two runs of one tree.
EXACT_COUNTS = (
    "trap.plan_events",
    "trap.base_cases",
    "trap.subtree_tasks",
    "compiler.cc_invocations",
    "serve.wire.frame_bytes",
)


def hermetic(scratch: Path) -> None:
    """Detach this process (and its children) from every ambient setting
    that could change what runs, and keep all temporary files in ``scratch``.
    The ``.so`` cache and tuned-config registry are pointed at fresh
    directories later, once per set-up (``workloads.fresh_state``)."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/e2e: {ROOT / 'src' / 'repro'} not found — "
                 f"run from a checkout of the whole repository")
    for var in ("REPRO_FAULTS", "REPRO_NO_CC", "REPRO_WALK_POOL_FAIL"):
        os.environ.pop(var, None)
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def need_toolchain() -> None:
    from repro.compiler.codegen_c import find_c_compiler

    if find_c_compiler() is None:
        sys.exit("benchmarks/e2e: no C toolchain found (tried $CC, cc, gcc, "
                 "clang) — refusing to record NumPy-degraded numbers under "
                 "the C workload names")


# -- one workload -------------------------------------------------------------


def _too_long(signum, frame):
    raise TimeoutError("benchmarks/e2e: run exceeded 170 s")


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    scratch = OUT / "tmp" / f"{name}-{os.getpid()}"
    # Served requests carry no deadline (see workloads.ServerProc); should
    # the server child wedge, unwind through the finally blocks, which stop it.
    signal.signal(signal.SIGALRM, _too_long)
    signal.alarm(170)
    try:
        hermetic(scratch)
        t0 = time.perf_counter()
        import workloads  # numpy + repro: part of what a user waits for

        import_s = time.perf_counter() - t0
        need_toolchain()
        result = measure(workloads, name, seed, seconds, trace, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (OUT / f"{name}.seed{seed}.trace{trace}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(workloads, name, seed, seconds, trace, import_s, scratch) -> dict:
    from machine import machine_record, triad_gb_s

    wl = workloads.WORKLOADS[name]
    triad = triad_gb_s()
    setups, cc_runs = [], []
    session = server = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.close()
            session = server = None  # release the previous inputs first
            s, cc, session, server = workloads.set_up(wl, seed, scratch)
            setups.append(s)
            cc_runs.append(cc)
        twin = workloads.check_twin(wl, seed, server)
        if trace:
            import layers
            from spans import Tracer

            tracer = Tracer()
            values, detail = layers.traced_pass(
                wl, session, server, scratch, tracer, triad
            )
            tracer.write(OUT / f"{name}.seed{seed}.chrome-trace.json")
        else:
            fn = workloads.runner(wl, server)
            for _ in range(wl.warmup):
                session.op(fn)
            timed = workloads.timed_loop(session, fn, seconds, MIN_OPS)
            if not timed:
                sys.exit("benchmarks/e2e: no operation succeeded:\n"
                         + "\n".join(session.errors[:3]))
            latencies = [s for s, _ in timed]
            stats = workloads.summarize(latencies)
            values = {
                "run_mpts_s": session.points_per_op / stats["median"] / 1e6,
                "jobs_s": wl.burst * len(latencies) / sum(latencies),
                "job_p50_ms": 1e3 * stats["median"],
                "setup_s": import_s + statistics.median(setups),
            }
            detail = {
                "n": stats["n"],
                "job_iqr_pct": stats["iqr_pct"],
                "job_tail_ms": None if stats["tail"] is None else 1e3 * stats["tail"],
                "tail_pct": stats["tail_pct"],
                "import_s": import_s,
                "setup_samples_s": setups,
            }
    finally:
        if server is not None:
            server.close()
    session.verify()

    attempted = session.attempted + twin.attempted
    failed = session.failed + twin.failed
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "detail": detail,
        "checked_against_reference": session.checked_inputs,
        "twin_equals_phase1": twin.failed == 0,
        "setup_cc_invocations": cc_runs,
        "peak_rss_mb": self_kb / 1024,
        "peak_rss_children_mb": child_kb / 1024,
        "errors": (session.errors + twin.errors)[:5],
        "machine": machine_record(triad),
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  ({result['why']})")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    for key, value in result["detail"].items():
        print(f"  {key:28s} {value}")
    print(f"  {'fail_ratio':28s} {result['fail_ratio']:.6g}  "
          f"({result['failed']} of {result['attempted']} operations; "
          f"{result['checked_against_reference']} inputs vs reference, "
          f"twin==phase1: {result['twin_equals_phase1']})")
    print(f"  {'peak_rss_mb':28s} {result['peak_rss_mb']:.1f} "
          f"(children {result['peak_rss_children_mb']:.1f})")
    machine = result["machine"]
    print(f"  machine: nproc={machine['nproc']} oversubscribed={machine['oversubscribed']} "
          f"{machine['compiler']} python {machine['python']} numpy {machine['numpy']} "
          f"triad {machine['machine.triad_gb_s']:.2f} GB/s")
    for err in result["errors"]:
        print("  ERROR", err.strip().splitlines()[-1])


# -- every workload, in child processes ---------------------------------------


def run_set(seed: int, seconds: float, traces=(0,)) -> dict:
    """One run per (workload, trace), each in a fresh process as the driver
    would start it; returns ``{(workload, trace): last-line JSON}``."""
    results = {}
    for name in NAMES:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                sys.exit(f"benchmarks/e2e: {name} --trace {trace} exited "
                         f"with code {proc.returncode}")
            results[name, trace] = json.loads(lines[-1])
    return results


def check(seed: int) -> int:
    """Smoke mode: the reduced twins only, each through its workload's own
    path, bitwise against the Phase-1 interpreter.  Never looks at a clock."""
    scratch = OUT / "tmp" / f"check-{os.getpid()}"
    bad = 0
    try:
        hermetic(scratch)
        import workloads

        need_toolchain()
        for wl in workloads.WORKLOADS.values():
            workloads.fresh_state(scratch)
            server = workloads.ServerProc() if wl.served else None
            try:
                twin = workloads.check_twin(wl, seed, server)
            finally:
                if server is not None:
                    server.close()
            shape = "x".join(map(str, twin.pool[0][0].sizes))
            print(f"{wl.name:20s} twin {shape} x{twin.pool[0][0].steps} "
                  f"jobs={wl.burst}: {'ok' if not twin.failed else 'FAILED'}")
            for err in twin.errors:
                print(err)
            bad += twin.failed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if bad else 0


def aa(seed: int, seconds: float) -> int:
    """Two complete sets on one tree.  Gated metrics must agree within
    their bounds, exact counts must repeat, nothing may fail; the observed
    differences are written to ``aa_spread.json`` for reviewers."""
    first = run_set(seed, seconds, (0, 1))
    second = run_set(seed, seconds, (0, 1))
    bad = 0
    spread: dict = {}
    print(f"\n{'metric':14s} {'workload':20s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for m in SPEC["end_to_end"]:
        for name in NAMES:
            a = first[name, 0]["metrics"][m["name"]]["value"]
            b = second[name, 0]["metrics"][m["name"]]["value"]
            diff = abs(b - a) / a
            over = diff > m["bound"]
            bad += over
            spread.setdefault(m["name"], {})[name] = round(diff, 4)
            print(f"{m['name']:14s} {name:20s} {a:12.5g} {b:12.5g} "
                  f"{diff:8.2%} {m['bound']:6.0%}{'  OVER BOUND' if over else ''}")
    for key, res in (*first.items(), *second.items()):
        if res["failed"]:
            bad += 1
            print(f"{key}: {res['failed']} of {res['attempted']} operations failed")
    drifted = [
        (metric, name)
        for name in NAMES
        for metric in EXACT_COUNTS
        if first[name, 1]["metrics"][metric]["value"]
        != second[name, 1]["metrics"][metric]["value"]
    ]
    for metric, name in drifted:
        print(f"{metric} on {name} does not repeat between the two sets")
    bad += len(drifted)
    (HERE / "aa_spread.json").write_text(json.dumps(
        {
            "what": "relative difference between two back-to-back sets of the "
                    "same tree (run.py --aa), per gated metric and workload",
            "seed": seed,
            "seconds": seconds,
            "bounds": {m["name"]: m["bound"] for m in SPEC["end_to_end"]},
            "observed": spread,
            "exact_counts_repeat": not drifted,
        },
        indent=2,
    ) + "\n")
    print("A/A:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--check", action="store_true",
                    help="reduced twins vs Phase 1 only; exit code is correctness")
    ap.add_argument("--aa", action="store_true",
                    help="run everything twice and compare against the bounds")
    args = ap.parse_args()
    trace = 1 if args.traced else args.trace
    OUT.mkdir(exist_ok=True)
    if args.check:
        return check(args.seed)
    if args.aa:
        return aa(args.seed, args.seconds)
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds, trace)
    run_set(args.seed, args.seconds, (trace,))
    return 0


if __name__ == "__main__":
    sys.exit(main())
