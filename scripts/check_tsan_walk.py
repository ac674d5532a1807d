"""ThreadSanitizer harness for the parallel compiled walk.

A TSan-instrumented ``.so`` cannot be dlopened into an uninstrumented
Python, so this script builds a *pure C executable*: the generated
kernel source (with the pthread task pool) plus a generated ``main()``
that fills the data arrays deterministically, runs the same
boundary-touching subtree (its recursion reaches both the interior and
the row-peeled boundary leaf) through the exported entry points Python
binds, ``walk_subtree_batch`` (serial) and ``walk_subtree_par_batch``
(4 pool threads, data copies), each with ``nb=1``, and memcmps the
results.  Compiled with
``-fsanitize=thread -pthread`` and run under
``TSAN_OPTIONS=halt_on_error=1``, it fails on

* any data race the sanitizer observes in the pool (exit 66),
* any bitwise divergence between the two walks (exit 1),
* a run that never spawned a pool task — which would mean the harness
  silently stopped exercising the pool (exit 2).

Hosts whose toolchain lacks libtsan (probed with a tiny compile) and
hosts with no compiler at all print a notice and exit 0: the harness
gates on capability, the CI job that invokes it never needs to.

Usage::

    python scripts/check_tsan_walk.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from repro.compiler.codegen_c import find_c_compiler, generate_c_source  # noqa: E402
from repro.compiler.frontend import build_ir  # noqa: E402
from tests.conftest import make_heat_problem  # noqa: E402

#: Same bitwise-contract flags as build_shared_object, minus the
#: shared-object bits, plus the sanitizer.  -O1 keeps TSan's
#: instrumentation honest (higher levels may elide racy loads).
TSAN_FLAGS = (
    "-O1", "-g", "-ffp-contract=off", "-fno-math-errno",
    "-fsanitize=thread", "-pthread",
)

PROBE = "#include <pthread.h>\nint main(void){return 0;}\n"

#: The subtree under test: a shrinking box (slopes 1) on a 24x24
#: periodic grid that wraps across the x0 seam and touches the x1 edge,
#: so the walk classifies zoids itself and runs both fused leaves, with
#: thresholds small enough that the recursion spawns many same-level
#: tasks for the 4-thread pool.
GRID = (24, 24)
TA, TB = 1, 6
LO, HI = (-3, 0), (17, 20)
DLO, DHI = (1, 1), (-1, -1)
SLOPES, THRESH = (1, 1), (3, 3)
DT_TH, HYPER, NTHREADS = 1, 1, 4


def tsan_supported(cc: str, workdir: str) -> bool:
    probe_c = os.path.join(workdir, "probe.c")
    with open(probe_c, "w") as f:
        f.write(PROBE)
    probe_bin = os.path.join(workdir, "probe")
    res = subprocess.run(
        [cc, *TSAN_FLAGS, probe_c, "-o", probe_bin],
        capture_output=True,
        text=True,
    )
    return res.returncode == 0


def generate_main(ir) -> str:
    """A main() that exercises both walks on identical inputs."""
    names = [info.name for info in ir.array_infos]
    consts = sorted(ir.const_arrays)
    lines = [
        "#include <stdio.h>",
        "#include <stdlib.h>",
        "#include <string.h>",
        "",
        "/* Deterministic LCG fill: same bits every run, no libm. */",
        "static unsigned long long lcg_state = 0x243F6A8885A308D3ULL;",
        "static double lcg(void) {",
        "  lcg_state = lcg_state * 6364136223846793005ULL"
        " + 1442695040888963407ULL;",
        "  return (double)(lcg_state >> 11) / (double)(1ULL << 53);",
        "}",
        "",
        "int main(void) {",
    ]
    for info in ir.array_infos:
        n = info.slots
        for s in info.sizes:
            n *= s
        lines += [
            f"  const long long n_{info.name} = {n}LL;",
            f"  double* a_{info.name} = malloc(n_{info.name}"
            " * sizeof(double));",
            f"  double* b_{info.name} = malloc(n_{info.name}"
            " * sizeof(double));",
            f"  for (long long i = 0; i < n_{info.name}; ++i)"
            f" a_{info.name}[i] = lcg();",
            f"  memcpy(b_{info.name}, a_{info.name}, n_{info.name}"
            " * sizeof(double));",
        ]
    for c in consts:
        size = 1
        for s in ir.const_arrays[c].values.shape:
            size *= s
        lines += [
            f"  double* c_{c} = malloc({size}LL * sizeof(double));",
            f"  for (long long i = 0; i < {size}LL; ++i) c_{c}[i] = lcg();",
        ]
    scalar = ", ".join(
        str(v)
        for v in (TA, TB, *LO, *HI, *DLO, *DHI, *SLOPES, *THRESH,
                  DT_TH, HYPER)
    )
    a_ptrs = ", ".join(
        [f"a_{n}" for n in names] + [f"c_{c}" for c in consts]
    )
    b_ptrs = ", ".join(
        [f"b_{n}" for n in names] + [f"c_{c}" for c in consts]
    )
    lines += [
        "  long long wstats[3] = {0, 0, 0};",
        f"  walk_subtree_batch({a_ptrs}, 1, {scalar});",
        f"  walk_subtree_par_batch({b_ptrs}, 1, {scalar}, {NTHREADS}, wstats);",
        '  printf("spawned=%lld stolen=%lld barriers=%lld\\n",',
        "         wstats[0], wstats[1], wstats[2]);",
        "  if (wstats[0] == 0) {",
        '    fprintf(stderr, "pool spawned no tasks: harness is not'
        ' exercising the pool\\n");',
        "    return 2;",
        "  }",
    ]
    for n in names:
        lines += [
            f"  if (memcmp(a_{n}, b_{n}, n_{n} * sizeof(double)) != 0) {{",
            f'    fprintf(stderr, "parallel walk diverged on {n}\\n");',
            "    return 1;",
            "  }",
        ]
    lines += [
        '  printf("tsan walk check ok: serial == parallel, no races'
        ' reported\\n");',
        "  return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def main() -> int:
    cc = find_c_compiler()
    if cc is None:
        print("no C compiler found: tsan walk check skipped")
        return 0
    st_, u, k = make_heat_problem(GRID, seed=11)
    ir = build_ir(st_.prepare(TB, k))
    source = generate_c_source(ir, include_boundary=True,
                               include_parallel=True)
    source += "\n" + generate_main(ir)
    with tempfile.TemporaryDirectory(prefix="repro_tsan_") as workdir:
        if not tsan_supported(cc, workdir):
            print(
                f"{cc} cannot build -fsanitize=thread binaries "
                "(no libtsan?): tsan walk check skipped"
            )
            return 0
        src_path = os.path.join(workdir, "tsan_walk.c")
        with open(src_path, "w") as f:
            f.write(source)
        bin_path = os.path.join(workdir, "tsan_walk")
        res = subprocess.run(
            [cc, *TSAN_FLAGS, src_path, "-o", bin_path],
            capture_output=True,
            text=True,
        )
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            print("tsan walk harness failed to compile", file=sys.stderr)
            return 1
        env = dict(os.environ)
        # halt_on_error turns the first race into a nonzero exit even
        # if the program would have finished; the distinct exitcode
        # separates "race" from "divergence" in CI logs.
        env["TSAN_OPTIONS"] = (
            env.get("TSAN_OPTIONS", "") + " halt_on_error=1 exitcode=66"
        ).strip()
        run = subprocess.run(
            [bin_path], capture_output=True, text=True, env=env,
            timeout=600,
        )
        sys.stdout.write(run.stdout)
        sys.stderr.write(run.stderr)
        if run.returncode == 66:
            print("ThreadSanitizer reported a data race in the "
                  "parallel walk", file=sys.stderr)
        return run.returncode


if __name__ == "__main__":
    sys.exit(main())
